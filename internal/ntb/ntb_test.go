package ntb

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// twoHosts builds two domains, each RC--SW--NTB-endpoint, linked by a
// symmetric NTB pair, with DRAM on each root complex.
type twoHosts struct {
	k          *sim.Kernel
	a, b       *pcie.Domain
	aRC, bRC   pcie.NodeID
	aNTB, bNTB pcie.NodeID
	memA, memB *memory.Memory
	ab, ba     *NTB
}

const (
	barBase = 0x8000_0000
	barSize = 0x100_0000
)

func newTwoHosts(t *testing.T) *twoHosts {
	t.Helper()
	k := sim.NewKernel()
	h := &twoHosts{k: k}
	h.a = pcie.NewDomain("A", k, pcie.LinkParams{})
	h.b = pcie.NewDomain("B", k, pcie.LinkParams{})
	build := func(d *pcie.Domain) (rc, nep pcie.NodeID) {
		rc = d.AddNode(pcie.RootComplex, "rc")
		sw := d.AddNode(pcie.Switch, "adapter-sw")
		nep = d.AddNode(pcie.Endpoint, "ntb")
		d.Connect(rc, sw)
		d.Connect(sw, nep)
		return
	}
	h.aRC, h.aNTB = build(h.a)
	h.bRC, h.bNTB = build(h.b)
	h.memA = memory.New(0x10_0000, 1<<20)
	h.memB = memory.New(0x10_0000, 1<<20)
	if err := pcie.AttachMemory(h.a, h.aRC, h.memA); err != nil {
		t.Fatal(err)
	}
	if err := pcie.AttachMemory(h.b, h.bRC, h.memB); err != nil {
		t.Fatal(err)
	}
	var err error
	h.ab, h.ba, err = Link("ab",
		h.a, h.aNTB, pcie.Range{Base: barBase, Size: barSize},
		h.b, h.bNTB, pcie.Range{Base: barBase, Size: barSize}, 50)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestMapWindowValidation(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.MapWindow(0, 0, 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("zero size: %v", err)
	}
	if err := h.ab.MapWindow(barSize-4, 8, 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("past BAR end: %v", err)
	}
	if err := h.ab.MapWindow(0, 4096, h.memB.Base()); err != nil {
		t.Fatal(err)
	}
	if err := h.ab.MapWindow(2048, 4096, 0); !errors.Is(err, ErrWindowInUse) {
		t.Fatalf("overlap: %v", err)
	}
}

func TestLUTCapacity(t *testing.T) {
	h := newTwoHosts(t)
	h.ab.MaxWindows = 2
	if err := h.ab.MapWindow(0, 4096, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.ab.MapWindow(4096, 4096, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.ab.MapWindow(8192, 4096, 0); !errors.Is(err, ErrLUTFull) {
		t.Fatalf("got %v, want ErrLUTFull", err)
	}
	if err := h.ab.UnmapWindow(0); err != nil {
		t.Fatal(err)
	}
	if err := h.ab.MapWindow(8192, 4096, 0); err != nil {
		t.Fatalf("after unmap: %v", err)
	}
}

func TestUnmapMissing(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.UnmapWindow(0x999); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("got %v, want ErrNotMapped", err)
	}
}

func TestTranslate(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.MapWindow(0x1000, 0x1000, 0x20_0000); err != nil {
		t.Fatal(err)
	}
	got, err := h.ab.Translate(barBase+0x1800, 0x800)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x20_0800 {
		t.Fatalf("translated to %#x, want 0x200800", got)
	}
	if _, err := h.ab.Translate(barBase, 1); !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("unmapped offset: %v", err)
	}
	if _, err := h.ab.Translate(barBase+0x1800, 0x801); !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("range leaving its window: %v", err)
	}
}

func TestCrossDomainWriteReadRoundTrip(t *testing.T) {
	h := newTwoHosts(t)
	// Map remote memB at BAR offset 0.
	if err := h.ab.MapWindow(0, 1<<20, h.memB.Base()); err != nil {
		t.Fatal(err)
	}
	want := []byte("cross-domain payload")
	got := make([]byte, len(want))
	h.k.Spawn("cpuA", func(p *sim.Proc) {
		if err := h.a.MemWrite(p, h.aRC, barBase+0x40, want); err != nil {
			t.Error(err)
		}
		p.Sleep(10_000)
		if err := h.a.MemRead(p, h.aRC, barBase+0x40, got); err != nil {
			t.Error(err)
		}
	})
	h.k.RunAll()
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	// The bytes must physically live in B's memory.
	direct := make([]byte, len(want))
	h.memB.Read(h.memB.Base()+0x40, direct)
	if !bytes.Equal(direct, want) {
		t.Fatal("data not present in remote physical memory")
	}
}

func TestCrossingCostAddsUp(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.MapWindow(0, 4096, h.memB.Base()); err != nil {
		t.Fatal(err)
	}
	// Local read for comparison.
	localLat, err := h.a.ReadLatency(h.aRC, h.memA.Base(), 8)
	if err != nil {
		t.Fatal(err)
	}
	remoteLat, err := h.a.ReadLatency(h.aRC, barBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	if remoteLat <= localLat {
		t.Fatalf("remote read (%d) not slower than local (%d)", remoteLat, localLat)
	}
	// Decompose: remote adds per direction: adapter switch on A side was
	// already between RC and NTB; B side adds prop + its switch + cross.
	res, err := h.a.Resolve(h.aRC, barBase, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossings != 1 {
		t.Fatalf("crossings = %d, want 1", res.Crossings)
	}
	wantOneWay := int64(1)*h.a.Params().PerSwitchNs + h.a.Params().PropNs + // A: RC->sw->ntb
		50 + // crossing
		int64(1)*h.b.Params().PerSwitchNs + h.b.Params().PropNs // B: ntb->sw->rc
	if res.OneWayNs != wantOneWay {
		t.Fatalf("one-way = %d, want %d", res.OneWayNs, wantOneWay)
	}
}

func TestReverseDirection(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ba.MapWindow(0, 4096, h.memA.Base()); err != nil {
		t.Fatal(err)
	}
	h.k.Spawn("cpuB", func(p *sim.Proc) {
		if err := h.b.MemWrite(p, h.bRC, barBase+8, []byte{0x5A}); err != nil {
			t.Error(err)
		}
	})
	h.k.RunAll()
	b := make([]byte, 1)
	h.memA.Read(h.memA.Base()+8, b)
	if b[0] != 0x5A {
		t.Fatal("reverse NTB write did not land in A's memory")
	}
}

func TestFreeOffsetSkipsUsed(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.MapWindow(0, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
	off, err := h.ab.FreeOffset(0x1000, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if off != 0x1000 {
		t.Fatalf("free offset %#x, want 0x1000", off)
	}
	if err := h.ab.MapWindow(off, 0x1000, 0); err != nil {
		t.Fatal(err)
	}
}

func TestFreeOffsetExhaustion(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.MapWindow(0, barSize, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ab.FreeOffset(1, 1); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("got %v, want ErrBadWindow", err)
	}
}

func TestMapWindowSyncCostsTime(t *testing.T) {
	h := newTwoHosts(t)
	var took sim.Time
	h.k.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		if err := h.ab.MapWindowSync(p, 0, 4096, h.memB.Base()); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	h.k.RunAll()
	if took != ProgramCostNs {
		t.Fatalf("MapWindowSync took %d, want %d", took, ProgramCostNs)
	}
}

func TestUntranslatedAccessPanics(t *testing.T) {
	h := newTwoHosts(t)
	defer func() {
		if recover() == nil {
			t.Fatal("TargetWrite on bridge did not panic")
		}
	}()
	h.ab.TargetWrite(barBase, []byte{1})
}

func TestChainedNTBThreeDomains(t *testing.T) {
	// A -> B -> C: write from A lands in C's memory; two crossings counted.
	k := sim.NewKernel()
	mk := func(name string) (*pcie.Domain, pcie.NodeID, pcie.NodeID) {
		d := pcie.NewDomain(name, k, pcie.LinkParams{})
		rc := d.AddNode(pcie.RootComplex, "rc")
		nep := d.AddNode(pcie.Endpoint, "ntb")
		d.Connect(rc, nep)
		return d, rc, nep
	}
	a, aRC, aN := mk("A")
	b, _, bN := mk("B")
	// B needs a second NTB endpoint toward C.
	bN2 := b.AddNode(pcie.Endpoint, "ntb2")
	b.Connect(bN, bN2)
	c, cRC, cN := mk("C")
	memC := memory.New(0x1000, 1<<16)
	if err := pcie.AttachMemory(c, cRC, memC); err != nil {
		t.Fatal(err)
	}
	ab, err := New(Config{Name: "ab", Local: a, Node: aN, BAR: pcie.Range{Base: 0x9000_0000, Size: 1 << 20},
		Remote: b, RemoteEntry: bN, CrossNs: 50})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := New(Config{Name: "bc", Local: b, Node: bN2, BAR: pcie.Range{Base: 0xA000_0000, Size: 1 << 20},
		Remote: c, RemoteEntry: cN, CrossNs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := ab.MapWindow(0, 1<<20, 0xA000_0000); err != nil {
		t.Fatal(err)
	}
	if err := bc.MapWindow(0, 1<<16, memC.Base()); err != nil {
		t.Fatal(err)
	}
	res, err := a.Resolve(aRC, 0x9000_0000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossings != 2 {
		t.Fatalf("crossings = %d, want 2", res.Crossings)
	}
	k.Spawn("cpuA", func(p *sim.Proc) {
		if err := a.MemWrite(p, aRC, 0x9000_0010, []byte{0x77}); err != nil {
			t.Error(err)
		}
	})
	k.RunAll()
	got := make([]byte, 1)
	memC.Read(memC.Base()+0x10, got)
	if got[0] != 0x77 {
		t.Fatal("chained write did not reach C")
	}
}

// Property: translation is affine within a window — offsets preserved.
func TestPropTranslationAffine(t *testing.T) {
	f := func(off uint16) bool {
		h := newTwoHosts(t)
		if err := h.ab.MapWindow(0x2000, 0x10000, 0x5000); err != nil {
			return false
		}
		o := uint64(off)
		addr := uint64(barBase) + 0x2000 + o%0x10000
		got, err := h.ab.Translate(addr, 1)
		return err == nil && got == 0x5000+o%0x10000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: round-tripping arbitrary data through the NTB window preserves
// it exactly.
func TestPropCrossDomainIntegrity(t *testing.T) {
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 || len(data) > 2048 {
			return true
		}
		h := newTwoHosts(t)
		if err := h.ab.MapWindow(0, 1<<20, h.memB.Base()); err != nil {
			return false
		}
		o := uint64(off)
		got := make([]byte, len(data))
		ok := true
		h.k.Spawn("p", func(p *sim.Proc) {
			if err := h.a.MemWrite(p, h.aRC, barBase+o, data); err != nil {
				ok = false
				return
			}
			p.Sleep(100_000)
			if err := h.a.MemRead(p, h.aRC, barBase+o, got); err != nil {
				ok = false
			}
		})
		h.k.RunAll()
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowStraddlingTransferFails pins that the bridge translates a
// transaction's whole range, not only its first address. An 8 KiB write
// that starts at the base of a 4 KiB window must fail without a byte
// landing in the remote DRAM, inside the window's target or past it, and
// so must an 8 KiB read.
func TestWindowStraddlingTransferFails(t *testing.T) {
	h := newTwoHosts(t)
	if err := h.ab.MapWindow(0, 4096, h.memB.Base()); err != nil {
		t.Fatal(err)
	}
	var werr, rerr error
	h.k.Spawn("cpuA", func(p *sim.Proc) {
		werr = h.a.MemWrite(p, h.aRC, barBase, bytes.Repeat([]byte{0xA5}, 8192))
		rerr = h.a.MemRead(p, h.aRC, barBase, make([]byte, 8192))
	})
	h.k.RunAll()
	if !errors.Is(werr, ErrNoTranslation) {
		t.Errorf("straddling write: %v, want ErrNoTranslation", werr)
	}
	if !errors.Is(rerr, ErrNoTranslation) {
		t.Errorf("straddling read: %v, want ErrNoTranslation", rerr)
	}
	got := make([]byte, 8192)
	h.memB.Read(h.memB.Base(), got)
	if !bytes.Equal(got, make([]byte, 8192)) {
		t.Error("a refused write changed remote DRAM")
	}
}
