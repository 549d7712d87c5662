package ntb

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/pcie"
	"repro/internal/sim"
)

func TestMapWindowValidation(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	if _, err := a.Map(0, 0, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("zero size: %v", err)
	}
	if _, err := a.Map(barSize-4, 8, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("past BAR end: %v", err)
	}
	if _, err := a.Map(0, 4096, c.dom[1], c.nep[1], c.mem[1].Base()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Map(2048, 4096, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrWindowInUse) {
		t.Fatalf("overlap: %v", err)
	}
}

func TestLUTCapacity(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	a.MaxWindows = 2
	if _, err := a.Map(0, 4096, c.dom[1], c.nep[1], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Map(4096, 4096, c.dom[2], c.nep[2], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Map(8192, 4096, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrLUTFull) {
		t.Fatalf("got %v, want ErrLUTFull", err)
	}
	if err := a.Unmap(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Map(8192, 4096, c.dom[1], c.nep[1], 0); err != nil {
		t.Fatalf("after unmap: %v", err)
	}
}

// TestUnmapMissing: Unmap needs a window's own start; an offset that was
// never mapped, or one inside a window, removes nothing.
func TestUnmapMissing(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	if err := a.Unmap(0x999); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("got %v, want ErrNotMapped", err)
	}
	addr, err := a.Map(0x1000, 0x1000, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmapAddr(addr + 0x800); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("inside a window: %v, want ErrNotMapped", err)
	}
	if a.Windows() != 1 {
		t.Fatalf("windows %d, want 1", a.Windows())
	}
}

// TestTranslate: Forward keeps a range's offset within its window and
// names the window's domain and entry node; an unmapped offset and a
// range leaving its window fail.
func TestTranslate(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	if _, err := a.Map(0x1000, 0x1000, c.dom[1], c.nep[1], 0x20_0000); err != nil {
		t.Fatal(err)
	}
	dom, entry, got, crossNs, err := a.Forward(barBase+0x1800, 0x800)
	if err != nil {
		t.Fatal(err)
	}
	if dom != c.dom[1] || entry != c.nep[1] || got != 0x20_0800 || crossNs != 50 {
		t.Fatalf("translated to %s node %d %#x cost %d, want B node %d 0x200800 cost 50",
			dom.Name, entry, got, crossNs, c.nep[1])
	}
	if _, _, _, _, err := a.Forward(barBase, 1); !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("unmapped offset: %v", err)
	}
	if _, _, _, _, err := a.Forward(barBase+0x1800, 0x801); !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("range leaving its window: %v", err)
	}
	if a.Translations != 1 {
		t.Fatalf("%d translations, want 1", a.Translations)
	}
}

func TestCrossDomainWriteReadRoundTrip(t *testing.T) {
	c := newTriCluster(t)
	// Map B's DRAM at BAR offset 0.
	toB, err := c.adpt[0].Map(0, 1<<20, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("cross-domain payload")
	got := make([]byte, len(want))
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		if err := c.dom[0].MemWrite(p, c.rc[0], toB+0x40, want); err != nil {
			t.Error(err)
		}
		p.Sleep(10_000)
		if err := c.dom[0].MemRead(p, c.rc[0], toB+0x40, got); err != nil {
			t.Error(err)
		}
	})
	c.k.RunAll()
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
	// The bytes must physically live in B's memory.
	direct := make([]byte, len(want))
	c.mem[1].Read(c.mem[1].Base()+0x40, direct)
	if !bytes.Equal(direct, want) {
		t.Fatal("data not present in remote physical memory")
	}
}

func TestCrossingCostAddsUp(t *testing.T) {
	c := newTriCluster(t)
	toB, err := c.adpt[0].Map(0, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	// Local read for comparison.
	localLat, err := c.dom[0].ReadLatency(c.rc[0], c.mem[0].Base(), 8)
	if err != nil {
		t.Fatal(err)
	}
	remoteLat, err := c.dom[0].ReadLatency(c.rc[0], toB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if remoteLat <= localLat {
		t.Fatalf("remote read (%d) not slower than local (%d)", remoteLat, localLat)
	}
	// Decompose one direction: A's RC -> adapter switch -> adapter, the
	// crossing, then B's adapter -> adapter switch -> RC.
	res, err := c.dom[0].Resolve(c.rc[0], toB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossings != 1 {
		t.Fatalf("crossings = %d, want 1", res.Crossings)
	}
	perSwitch := pcie.DefaultLinkParams().PerSwitchNs
	wantOneWay := perSwitch + pcie.PropNs + 50 + perSwitch + pcie.PropNs
	if res.OneWayNs != wantOneWay {
		t.Fatalf("one-way = %d, want %d", res.OneWayNs, wantOneWay)
	}
}

// TestReverseDirection: B reads A's DRAM through B's own adapter, and
// sees what A's CPU stored there.
func TestReverseDirection(t *testing.T) {
	c := newTriCluster(t)
	toA, err := c.adpt[1].Map(0, 4096, c.dom[0], c.nep[0], c.mem[0].Base())
	if err != nil {
		t.Fatal(err)
	}
	c.mem[0].Write(c.mem[0].Base()+8, []byte{0x5A})
	got := make([]byte, 1)
	c.k.Spawn("cpuB", func(p *sim.Proc) {
		if err := c.dom[1].MemRead(p, c.rc[1], toA+8, got); err != nil {
			t.Error(err)
		}
	})
	c.k.RunAll()
	if got[0] != 0x5A {
		t.Fatalf("B read %#x through its window into A, want 0x5a", got[0])
	}
}

// TestFreeOffsetSkipsUsed: MapAuto places a window past the ones in use,
// rounded up to its alignment.
func TestFreeOffsetSkipsUsed(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	if _, err := a.Map(0, 0x1000, c.dom[1], c.nep[1], 0); err != nil {
		t.Fatal(err)
	}
	addr, err := a.MapAuto(0x1000, 0x1000, c.dom[1], c.nep[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	if addr != barBase+0x1000 {
		t.Fatalf("window at %#x, want BAR + 0x1000", addr)
	}
	if _, err := a.Map(0x2000, 0x800, c.dom[2], c.nep[2], 0); err != nil {
		t.Fatal(err)
	}
	if addr, err = a.MapAuto(0x1000, 0x1000, c.dom[1], c.nep[1], 0); err != nil {
		t.Fatal(err)
	}
	if addr != barBase+0x3000 {
		t.Fatalf("window at %#x, want BAR + 0x3000 (past 0x2800, aligned)", addr)
	}
}

func TestFreeOffsetExhaustion(t *testing.T) {
	c := newTriCluster(t)
	if _, err := c.adpt[0].Map(0, barSize, c.dom[1], c.nep[1], 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.adpt[0].MapAuto(1, 1, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("got %v, want ErrBadWindow", err)
	}
}

func TestUntranslatedAccessPanics(t *testing.T) {
	c := newTriCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("TargetWrite on adapter did not panic")
		}
	}()
	c.adpt[0].TargetWrite(barBase, []byte{1})
}

// TestChainedNTBThreeDomains: A's window targets B's BAR, and B's window
// there targets C's DRAM, so a write from A crosses two adapters and
// lands in C.
func TestChainedNTBThreeDomains(t *testing.T) {
	c := newTriCluster(t)
	bToC, err := c.adpt[1].Map(0, 1<<16, c.dom[2], c.nep[2], c.mem[2].Base())
	if err != nil {
		t.Fatal(err)
	}
	aToB, err := c.adpt[0].Map(0, 1<<16, c.dom[1], c.nep[1], bToC)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.dom[0].Resolve(c.rc[0], aToB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crossings != 2 {
		t.Fatalf("crossings = %d, want 2", res.Crossings)
	}
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		if err := c.dom[0].MemWrite(p, c.rc[0], aToB+0x10, []byte{0x77}); err != nil {
			t.Error(err)
		}
	})
	c.k.RunAll()
	got := make([]byte, 1)
	c.mem[2].Read(c.mem[2].Base()+0x10, got)
	if got[0] != 0x77 {
		t.Fatal("chained write did not reach C")
	}
}

// Property: translation is affine within a window — offsets preserved.
func TestPropTranslationAffine(t *testing.T) {
	f := func(off uint16) bool {
		c := newTriCluster(t)
		if _, err := c.adpt[0].Map(0x2000, 0x10000, c.dom[1], c.nep[1], 0x5000); err != nil {
			return false
		}
		o := uint64(off)
		addr := uint64(barBase) + 0x2000 + o%0x10000
		_, _, got, _, err := c.adpt[0].Forward(addr, 1)
		return err == nil && got == 0x5000+o%0x10000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: round-tripping arbitrary data through an adapter window
// preserves it exactly.
func TestPropCrossDomainIntegrity(t *testing.T) {
	f := func(data []byte, off uint16) bool {
		if len(data) == 0 || len(data) > 2048 {
			return true
		}
		c := newTriCluster(t)
		toB, err := c.adpt[0].Map(0, 1<<20, c.dom[1], c.nep[1], c.mem[1].Base())
		if err != nil {
			return false
		}
		o := uint64(off)
		got := make([]byte, len(data))
		ok := true
		c.k.Spawn("p", func(p *sim.Proc) {
			if err := c.dom[0].MemWrite(p, c.rc[0], toB+o, data); err != nil {
				ok = false
				return
			}
			p.Sleep(100_000)
			if err := c.dom[0].MemRead(p, c.rc[0], toB+o, got); err != nil {
				ok = false
			}
		})
		c.k.RunAll()
		return ok && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowStraddlingTransferFails pins that the adapter translates a
// transaction's whole range, not only its first address. An 8 KiB write
// that starts at the base of a 4 KiB window must fail without a byte
// landing in the remote DRAM, inside the window's target or past it, and
// so must an 8 KiB read.
func TestWindowStraddlingTransferFails(t *testing.T) {
	c := newTriCluster(t)
	toB, err := c.adpt[0].Map(0, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	var werr, rerr error
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		werr = c.dom[0].MemWrite(p, c.rc[0], toB, bytes.Repeat([]byte{0xA5}, 8192))
		rerr = c.dom[0].MemRead(p, c.rc[0], toB, make([]byte, 8192))
	})
	c.k.RunAll()
	if !errors.Is(werr, ErrNoTranslation) {
		t.Errorf("straddling write: %v, want ErrNoTranslation", werr)
	}
	if !errors.Is(rerr, ErrNoTranslation) {
		t.Errorf("straddling read: %v, want ErrNoTranslation", rerr)
	}
	got := make([]byte, 8192)
	c.mem[1].Read(c.mem[1].Base(), got)
	if !bytes.Equal(got, make([]byte, 8192)) {
		t.Error("a refused write changed remote DRAM")
	}
}
