package pcie

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/sim"
)

// testFabric builds: RC -- SW -- EP(with DRAM claim at 0x10000).
func testFabric(t *testing.T) (*sim.Kernel, *Domain, NodeID, NodeID, *memory.Memory) {
	t.Helper()
	k := sim.NewKernel()
	d := NewDomain("hostA", k, LinkParams{})
	rc := d.AddNode(RootComplex, "rc")
	sw := d.AddNode(Switch, "sw0")
	ep := d.AddNode(Endpoint, "nvme")
	if err := d.Connect(rc, sw); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(sw, ep); err != nil {
		t.Fatal(err)
	}
	mem := memory.New(0x10000, 1<<16)
	if _, err := NewHostPort(d, rc, mem); err != nil {
		t.Fatal(err)
	}
	return k, d, rc, ep, mem
}

func TestRangeContains(t *testing.T) {
	r := Range{Base: 100, Size: 50}
	if !r.Contains(100, 50) || !r.Contains(149, 1) || r.Contains(149, 2) || r.Contains(99, 1) {
		t.Fatal("Range.Contains boundary logic wrong")
	}
	if r.Contains(^uint64(0), 2) {
		t.Fatal("wraparound accepted")
	}
}

func TestRangeOverlaps(t *testing.T) {
	a := Range{0, 10}
	cases := []struct {
		b    Range
		want bool
	}{
		{Range{10, 5}, false},
		{Range{9, 1}, true},
		{Range{5, 20}, true},
		{Range{20, 5}, false},
	}
	for _, c := range cases {
		if a.Overlaps(c.b) != c.want {
			t.Fatalf("Overlaps(%+v) != %v", c.b, c.want)
		}
	}
}

func TestClaimOverlapRejected(t *testing.T) {
	k := sim.NewKernel()
	d := NewDomain("d", k, LinkParams{})
	rc := d.AddNode(RootComplex, "rc")
	hp, err := NewHostPort(d, rc, memory.New(0, 4096))
	if err != nil {
		t.Fatal(err)
	}
	err = d.Claim(Range{Base: 100, Size: 10}, rc, hp)
	if !errors.Is(err, ErrOverlap) {
		t.Fatalf("got %v, want ErrOverlap", err)
	}
}

func TestUnclaim(t *testing.T) {
	k := sim.NewKernel()
	d := NewDomain("d", k, LinkParams{})
	rc := d.AddNode(RootComplex, "rc")
	m := memory.New(0, 4096)
	r := Range{Base: m.Base(), Size: m.Size()}
	if _, err := NewHostPort(d, rc, m); err != nil {
		t.Fatal(err)
	}
	if !d.Unclaim(r) {
		t.Fatal("Unclaim returned false for existing claim")
	}
	if d.Unclaim(r) {
		t.Fatal("Unclaim returned true for removed claim")
	}
	if _, err := d.lookup(0, 1); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("lookup after unclaim: %v", err)
	}
}

func TestNoRoute(t *testing.T) {
	k, d, _, ep, _ := testFabric(t)
	var err error
	k.Spawn("p", func(p *sim.Proc) {
		err = d.MemRead(p, ep, 0xdead0000, make([]byte, 4))
	})
	k.RunAll()
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("got %v, want ErrNoRoute", err)
	}
}

func TestDisconnectedNodes(t *testing.T) {
	k := sim.NewKernel()
	d := NewDomain("d", k, LinkParams{})
	rc := d.AddNode(RootComplex, "rc")
	ep := d.AddNode(Endpoint, "island")
	if _, err := NewHostPort(d, rc, memory.New(0, 4096)); err != nil {
		t.Fatal(err)
	}
	var err error
	k.Spawn("p", func(p *sim.Proc) {
		err = d.MemRead(p, ep, 0, make([]byte, 4))
	})
	k.RunAll()
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("got %v, want ErrDisconnected", err)
	}
}

func TestSwitchHopCounting(t *testing.T) {
	k := sim.NewKernel()
	d := NewDomain("d", k, LinkParams{})
	rc := d.AddNode(RootComplex, "rc")
	sw1 := d.AddNode(Switch, "sw1")
	sw2 := d.AddNode(Switch, "sw2")
	ep := d.AddNode(Endpoint, "ep")
	d.Connect(rc, sw1)
	d.Connect(sw1, sw2)
	d.Connect(sw2, ep)
	hops, err := d.switchHops(rc, ep)
	if err != nil {
		t.Fatal(err)
	}
	if hops != 2 {
		t.Fatalf("hops = %d, want 2", hops)
	}
	// Endpoint nodes are not counted even when adjacent.
	hops, _ = d.switchHops(sw1, sw2)
	if hops != 0 {
		t.Fatalf("adjacent switches: hops = %d, want 0", hops)
	}
}

func TestReadLatencyScalesWithHops(t *testing.T) {
	// Build two fabrics: direct attach vs two switches; per-hop cost must
	// appear twice (round trip) per chip.
	build := func(nSwitch int) (int64, error) {
		k := sim.NewKernel()
		d := NewDomain("d", k, LinkParams{PerSwitchNs: 100})
		rc := d.AddNode(RootComplex, "rc")
		prev := rc
		for i := 0; i < nSwitch; i++ {
			sw := d.AddNode(Switch, "sw")
			d.Connect(prev, sw)
			prev = sw
		}
		ep := d.AddNode(Endpoint, "ep")
		d.Connect(prev, ep)
		if _, err := NewHostPort(d, rc, memory.New(0, 4096)); err != nil {
			return 0, err
		}
		return d.ReadLatency(ep, 0, 64)
	}
	l0, err := build(0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := build(2)
	if err != nil {
		t.Fatal(err)
	}
	if l2-l0 != 2*2*100 {
		t.Fatalf("2 switches added %d ns, want 400 (2 chips x 2 directions x 100)", l2-l0)
	}
}

func TestMemReadRoundTripTiming(t *testing.T) {
	k, d, _, ep, mem := testFabric(t)
	mem.Write(0x10000, []byte{1, 2, 3, 4})
	var done sim.Time
	buf := make([]byte, 4)
	k.Spawn("reader", func(p *sim.Proc) {
		if err := d.MemRead(p, ep, 0x10000, buf); err != nil {
			t.Error(err)
		}
		done = p.Now()
	})
	k.RunAll()
	want, _ := d.ReadLatency(ep, 0x10000, 4)
	if done != want {
		t.Fatalf("read completed at %d, want %d", done, want)
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("data %v", buf)
	}
}

func TestMemWriteIsPosted(t *testing.T) {
	k, d, _, ep, mem := testFabric(t)
	var issued sim.Time
	k.Spawn("writer", func(p *sim.Proc) {
		if err := d.MemWrite(p, ep, 0x10000, []byte{0xAA}); err != nil {
			t.Error(err)
		}
		issued = p.Now()
		// Data must NOT be visible yet: delivery is one traversal away.
		b := make([]byte, 1)
		mem.Read(0x10000, b)
		if b[0] == 0xAA {
			t.Error("posted write visible at issue time")
		}
	})
	k.RunAll()
	ser := SerializeNs(1)
	if issued != ser {
		t.Fatalf("initiator blocked %d ns, want serialization only (%d)", issued, ser)
	}
	b := make([]byte, 1)
	mem.Read(0x10000, b)
	if b[0] != 0xAA {
		t.Fatal("posted write never delivered")
	}
}

func TestPostedWritesStayOrdered(t *testing.T) {
	// Issue a large write then a small one; the small one must not arrive
	// first even though its standalone latency is lower.
	k, d, _, ep, mem := testFabric(t)
	var order []byte
	// Observe arrival order via a spy target in a second claim.
	spy := &spyTarget{onWrite: func(addr Addr, data []byte) {
		order = append(order, data[0])
		mem.Write(addr, data)
	}}
	d.Unclaim(Range{Base: mem.Base(), Size: mem.Size()})
	if err := d.Claim(Range{Base: mem.Base(), Size: mem.Size()}, 0, spy); err != nil {
		t.Fatal(err)
	}
	k.Spawn("writer", func(p *sim.Proc) {
		big := make([]byte, 4096)
		big[0] = 1
		d.MemWrite(p, ep, 0x10000, big)
		d.MMIOWrite(p, ep, 0x10100, []byte{2})
	})
	k.RunAll()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("arrival order %v, want [1 2]", order)
	}
}

// TestPostedWriteCapturesAtIssue: a posted write delivers the bytes its
// source held at issue, although the caller overwrites the source before
// delivery, and a later write that reuses the delivered record leaves the
// first write's bytes alone.
func TestPostedWriteCapturesAtIssue(t *testing.T) {
	k, d, _, ep, mem := testFabric(t)
	k.Spawn("writer", func(p *sim.Proc) {
		src := []byte{1, 2, 3, 4}
		if err := d.MemWrite(p, ep, 0x10000, src); err != nil {
			t.Error(err)
		}
		copy(src, []byte{9, 9, 9, 9}) // before delivery
		p.Sleep(10 * sim.Microsecond)
		if err := d.MemWrite(p, ep, 0x10100, []byte{5, 6}); err != nil {
			t.Error(err)
		}
		copy(src, []byte{8, 8, 8, 8})
	})
	k.RunAll()
	got := make([]byte, 4)
	mem.Read(0x10000, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Errorf("first write delivered %v, want [1 2 3 4]", got)
	}
	mem.Read(0x10100, got)
	if !bytes.Equal(got, []byte{5, 6, 0, 0}) {
		t.Errorf("second write delivered %v, want [5 6 0 0]", got)
	}
	if n := len(d.posted); n != 1 {
		t.Errorf("%d posted-write records after two sequential writes, want 1 (reused)", n)
	}
}

type spyTarget struct {
	onWrite func(Addr, []byte)
}

func (s *spyTarget) TargetWrite(a Addr, d []byte) { s.onWrite(a, d) }
func (s *spyTarget) TargetRead(a Addr, b []byte)  {}

func TestMMIOWriteBlocksIssueCostOnly(t *testing.T) {
	k, d, _, ep, _ := testFabric(t)
	var issued sim.Time
	k.Spawn("w", func(p *sim.Proc) {
		d.MMIOWrite(p, ep, 0x10000, []byte{1, 2, 3, 4})
		issued = p.Now()
	})
	k.RunAll()
	if want := DefaultLinkParams().MMIOIssueNs; issued != want {
		t.Fatalf("blocked %d, want %d", issued, want)
	}
}

func TestReadSeesDataPresentAtRequestArrival(t *testing.T) {
	// A value written (locally, instantly) after the read request arrives
	// at the completer must NOT be observed.
	k, d, _, ep, mem := testFabric(t)
	mem.Write(0x10000, []byte{7})
	buf := make([]byte, 1)
	k.Spawn("reader", func(p *sim.Proc) {
		d.MemRead(p, ep, 0x10000, buf)
	})
	res, _ := d.Resolve(ep, 0x10000, 1)
	// Schedule a local overwrite just after the request arrives.
	k.After(res.OneWayNs+1, func() { mem.Write(0x10000, []byte{9}) })
	k.RunAll()
	if buf[0] != 7 {
		t.Fatalf("read observed %d, want 7 (value at request arrival)", buf[0])
	}
}

func TestResolveLatencyHelpersAgree(t *testing.T) {
	_, d, _, ep, _ := testFabric(t)
	res, err := d.Resolve(ep, 0x10000, 8)
	if err != nil {
		t.Fatal(err)
	}
	rl, _ := d.ReadLatency(ep, 0x10000, 8)
	wl, _ := d.WriteLatency(ep, 0x10000, 8)
	if rl != 2*res.OneWayNs+CplServiceNs+SerializeNs(8) {
		t.Fatal("ReadLatency formula mismatch")
	}
	if wl != res.OneWayNs+SerializeNs(8) {
		t.Fatal("WriteLatency formula mismatch")
	}
}

func TestSerializeNs(t *testing.T) {
	if SerializeNs(0) != 0 || SerializeNs(-1) != 0 {
		t.Fatal("non-positive sizes must cost 0")
	}
	// 4096 / 7.9 = 518.48..., truncated.
	if SerializeNs(4096) != 518 {
		t.Fatalf("4096B at 7.9B/ns = %d, want 518", SerializeNs(4096))
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	lp := LinkParams{PerSwitchNs: 999}.withDefaults()
	if lp.PerSwitchNs != 999 {
		t.Fatal("explicit value overwritten")
	}
	if lp.MMIOIssueNs == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestNodeKindString(t *testing.T) {
	if RootComplex.String() == "" || Switch.String() == "" || Endpoint.String() == "" ||
		NodeKind(99).String() != "unknown" {
		t.Fatal("NodeKind.String broken")
	}
}

// Property: hop count is symmetric on tree fabrics.
func TestPropHopSymmetry(t *testing.T) {
	f := func(depth uint8) bool {
		n := int(depth%6) + 1
		k := sim.NewKernel()
		d := NewDomain("d", k, LinkParams{})
		rc := d.AddNode(RootComplex, "rc")
		prev := rc
		for i := 0; i < n; i++ {
			sw := d.AddNode(Switch, "sw")
			d.Connect(prev, sw)
			prev = sw
		}
		ep := d.AddNode(Endpoint, "ep")
		d.Connect(prev, ep)
		a, err1 := d.switchHops(rc, ep)
		b, err2 := d.switchHops(ep, rc)
		return err1 == nil && err2 == nil && a == b && a == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: DMA round trip preserves arbitrary payloads byte-for-byte.
func TestPropDMADataIntegrity(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) == 0 || len(data) > 4096 {
			return true
		}
		k, d, _, ep, _ := testFabric(t)
		got := make([]byte, len(data))
		ok := true
		k.Spawn("p", func(p *sim.Proc) {
			if err := d.MemWrite(p, ep, 0x10000, data); err != nil {
				ok = false
				return
			}
			p.Sleep(1_000_000) // let delivery land
			if err := d.MemRead(p, ep, 0x10000, got); err != nil {
				ok = false
			}
		})
		k.RunAll()
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestHopTableFollowsTopology: switch counts come from a table built on
// the first route after an AddNode or Connect. Resolve a route, then add
// nodes on a longer path, and an island that Connect joins later, and
// resolve from each: the new counts must show, and posted writes from
// the new nodes must be ordered, so a stale or wrongly sized table, or
// arrival slice, fails here.
func TestHopTableFollowsTopology(t *testing.T) {
	k, d, _, ep, _ := testFabric(t)
	oneWay := func(from NodeID) (int64, error) {
		res, err := d.Resolve(from, 0x10000, 4)
		return res.OneWayNs, err
	}
	if got, err := oneWay(ep); err != nil || got != PropNs+125 {
		t.Fatalf("ep -> DRAM: %d ns, %v; want %d ns over one switch", got, err, PropNs+125)
	}
	sw0 := NodeID(1)
	sw1 := d.AddNode(Switch, "sw1")
	ep2 := d.AddNode(Endpoint, "ep2")
	if err := d.Connect(sw0, sw1); err != nil {
		t.Fatal(err)
	}
	if err := d.Connect(sw1, ep2); err != nil {
		t.Fatal(err)
	}
	if got, err := oneWay(ep2); err != nil || got != PropNs+2*125 {
		t.Fatalf("ep2 -> DRAM: %d ns, %v; want %d ns over two switches", got, err, PropNs+2*125)
	}
	island := d.AddNode(Endpoint, "island")
	if _, err := oneWay(island); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("island -> DRAM: %v, want ErrDisconnected", err)
	}
	if err := d.Connect(island, sw1); err != nil {
		t.Fatal(err)
	}
	if got, err := oneWay(island); err != nil || got != PropNs+2*125 {
		t.Fatalf("island -> DRAM after Connect: %d ns, %v; want %d ns", got, err, PropNs+2*125)
	}
	var errs []error
	k.Spawn("p", func(p *sim.Proc) {
		for _, from := range []NodeID{ep2, island} {
			errs = append(errs, d.MemWrite(p, from, 0x10000, []byte{1, 2, 3, 4}))
		}
	})
	k.RunAll()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
