package ntb

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
)

const (
	barBase = 0x8000_0000
	barSize = 0x100_0000
)

// triCluster is three hosts, each RC--SW--adapter endpoint with DRAM on
// the root complex and a ClusterAdapter, all interconnected.
type triCluster struct {
	k    *sim.Kernel
	dom  [3]*pcie.Domain
	rc   [3]pcie.NodeID
	nep  [3]pcie.NodeID
	mem  [3]*memory.Memory
	adpt [3]*ClusterAdapter
}

func newTriCluster(t *testing.T) *triCluster {
	t.Helper()
	k := sim.NewKernel()
	c := &triCluster{k: k}
	for i := 0; i < 3; i++ {
		d := pcie.NewDomain(string(rune('A'+i)), k, pcie.LinkParams{})
		rc := d.AddNode(pcie.RootComplex, "rc")
		sw := d.AddNode(pcie.Switch, "adapter-sw")
		nep := d.AddNode(pcie.Endpoint, "adapter")
		d.Connect(rc, sw)
		d.Connect(sw, nep)
		m := memory.New(0x10_0000, 1<<20)
		if _, err := pcie.NewHostPort(d, rc, m); err != nil {
			t.Fatal(err)
		}
		a, err := NewClusterAdapter(AdapterConfig{
			Name: "adpt" + string(rune('A'+i)), Local: d, Node: nep,
			BAR: pcie.Range{Base: barBase, Size: barSize}, CrossNs: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.dom[i], c.rc[i], c.nep[i], c.mem[i], c.adpt[i] = d, rc, nep, m, a
	}
	return c
}

func TestAdapterMapDifferentTargets(t *testing.T) {
	c := newTriCluster(t)
	// A maps windows into both B and C.
	toB, err := c.adpt[0].MapAuto(4096, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	toC, err := c.adpt[0].MapAuto(4096, 4096, c.dom[2], c.nep[2], c.mem[2].Base())
	if err != nil {
		t.Fatal(err)
	}
	if toB == toC {
		t.Fatal("windows share an address")
	}
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		if err := c.dom[0].MemWrite(p, c.rc[0], toB, []byte{0xB1}); err != nil {
			t.Error(err)
		}
		if err := c.dom[0].MemWrite(p, c.rc[0], toC, []byte{0xC1}); err != nil {
			t.Error(err)
		}
	})
	c.k.RunAll()
	b := make([]byte, 1)
	c.mem[1].Read(c.mem[1].Base(), b)
	if b[0] != 0xB1 {
		t.Fatalf("B got %#x", b[0])
	}
	c.mem[2].Read(c.mem[2].Base(), b)
	if b[0] != 0xC1 {
		t.Fatalf("C got %#x", b[0])
	}
}

func TestAdapterWindowLifecycle(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	addr, err := a.Map(0x1000, 0x1000, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	if addr != barBase+0x1000 {
		t.Fatalf("addr %#x", addr)
	}
	if a.Windows() != 1 {
		t.Fatalf("windows %d", a.Windows())
	}
	if _, err := a.Map(0x1800, 0x1000, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrWindowInUse) {
		t.Fatalf("overlap: %v", err)
	}
	if err := a.UnmapAddr(addr); err != nil {
		t.Fatal(err)
	}
	if a.Windows() != 0 {
		t.Fatal("window not removed")
	}
	if err := a.Unmap(0x1000); !errors.Is(err, ErrNotMapped) {
		t.Fatalf("double unmap: %v", err)
	}
}

// TestAdapterLUTFull: an adapter configured without MaxWindows gets
// DefaultMaxWindows LUT entries, and the next window fails.
func TestAdapterLUTFull(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	if a.MaxWindows != DefaultMaxWindows {
		t.Fatalf("MaxWindows = %d, want %d", a.MaxWindows, DefaultMaxWindows)
	}
	for i := 0; i < DefaultMaxWindows; i++ {
		if _, err := a.MapAuto(4096, 4096, c.dom[1], c.nep[1], c.mem[1].Base()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.MapAuto(4096, 4096, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrLUTFull) {
		t.Fatalf("got %v, want ErrLUTFull", err)
	}
}

// TestAdapterBadWindow: a window that starts at the BAR's end, or whose
// end wraps around the address space, is refused.
func TestAdapterBadWindow(t *testing.T) {
	c := newTriCluster(t)
	if _, err := c.adpt[0].Map(barSize, 4096, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("got %v, want ErrBadWindow", err)
	}
	if _, err := c.adpt[0].Map(^uint64(0)-0xfff, 0x2000, c.dom[1], c.nep[1], 0); !errors.Is(err, ErrBadWindow) {
		t.Fatalf("wrapping window: %v", err)
	}
}

func TestAdapterUntranslatedPanics(t *testing.T) {
	c := newTriCluster(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.adpt[0].TargetRead(barBase, make([]byte, 4))
}

func TestAdapterSymmetricCommunication(t *testing.T) {
	// A->B and B->A simultaneously; data lands correctly both ways.
	c := newTriCluster(t)
	toB, _ := c.adpt[0].MapAuto(4096, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	toA, _ := c.adpt[1].MapAuto(4096, 4096, c.dom[0], c.nep[0], c.mem[0].Base())
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		c.dom[0].MemWrite(p, c.rc[0], toB+8, []byte{0xAB})
	})
	c.k.Spawn("cpuB", func(p *sim.Proc) {
		c.dom[1].MemWrite(p, c.rc[1], toA+8, []byte{0xBA})
	})
	c.k.RunAll()
	b := make([]byte, 1)
	c.mem[1].Read(c.mem[1].Base()+8, b)
	if b[0] != 0xAB {
		t.Fatalf("B got %#x", b[0])
	}
	c.mem[0].Read(c.mem[0].Base()+8, b)
	if b[0] != 0xBA {
		t.Fatalf("A got %#x", b[0])
	}
}

// TestAdapterWindowStraddlingWriteFails: two windows side by side in the
// BAR do not make one. A write that starts in the window toward B and
// runs into the one toward C fails, and neither host's DRAM changes.
func TestAdapterWindowStraddlingWriteFails(t *testing.T) {
	c := newTriCluster(t)
	toB, err := c.adpt[0].Map(0, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.adpt[0].Map(4096, 4096, c.dom[2], c.nep[2], c.mem[2].Base()); err != nil {
		t.Fatal(err)
	}
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		err = c.dom[0].MemWrite(p, c.rc[0], toB+4000, bytes.Repeat([]byte{0xA5}, 200))
	})
	c.k.RunAll()
	if !errors.Is(err, ErrNoTranslation) {
		t.Fatalf("straddling write: %v, want ErrNoTranslation", err)
	}
	if c.adpt[0].Translations != 0 {
		t.Fatalf("%d translations, want 0", c.adpt[0].Translations)
	}
	for _, h := range []int{1, 2} {
		got := make([]byte, 4096)
		c.mem[h].Read(c.mem[h].Base(), got)
		if !bytes.Equal(got, make([]byte, 4096)) {
			t.Errorf("a refused write changed host %d's DRAM", h)
		}
	}
}
