package pcie

import (
	"bytes"
	"testing"

	"repro/internal/memory"
	"repro/internal/sim"
)

// hostRig: one domain with a HostPort and a remote-ish claim to exercise
// the fabric path.
func hostRig(t *testing.T) (*sim.Kernel, *Domain, *HostPort, *memory.Memory) {
	t.Helper()
	k := sim.NewKernel()
	d := NewDomain("h", k, LinkParams{})
	rc := d.AddNode(RootComplex, "rc")
	ep := d.AddNode(Endpoint, "dev")
	if err := d.Connect(rc, ep); err != nil {
		t.Fatal(err)
	}
	mem := memory.New(0x10000, 1<<20)
	hp, err := NewHostPort(d, rc, mem)
	if err != nil {
		t.Fatal(err)
	}
	// A device-memory claim for non-local accesses.
	devMem := memory.New(0xD000_0000, 1<<16)
	if _, err := NewHostPort(d, ep, devMem); err != nil {
		t.Fatal(err)
	}
	return k, d, hp, mem
}

func TestHostPortLocalAccessIsCheap(t *testing.T) {
	k, _, hp, _ := hostRig(t)
	var localCost, remoteCost sim.Duration
	k.Spawn("p", func(p *sim.Proc) {
		buf := make([]byte, 64)
		t0 := p.Now()
		if err := hp.Read(p, 0x10000, buf); err != nil {
			t.Error(err)
		}
		localCost = p.Now() - t0
		t0 = p.Now()
		if err := hp.Read(p, 0xD000_0000, buf); err != nil {
			t.Error(err)
		}
		remoteCost = p.Now() - t0
	})
	k.RunAll()
	k.Shutdown()
	if localCost >= remoteCost {
		t.Fatalf("local read (%d) not cheaper than MMIO read (%d)", localCost, remoteCost)
	}
	want := CopyNs(64)
	if localCost != want {
		t.Fatalf("local cost %d, want %d", localCost, want)
	}
}

func TestHostPortWriteRouting(t *testing.T) {
	k, _, hp, mem := hostRig(t)
	k.Spawn("p", func(p *sim.Proc) {
		// Local write: visible immediately.
		if err := hp.Write(p, 0x10010, []byte("local")); err != nil {
			t.Error(err)
		}
		got := make([]byte, 5)
		mem.Read(0x10010, got)
		if !bytes.Equal(got, []byte("local")) {
			t.Error("local write not immediately visible")
		}
		// Small MMIO write: posted, delivered later.
		if err := hp.Write(p, 0xD000_0000, []byte{0xAB}); err != nil {
			t.Error(err)
		}
		// Large fabric write: also posted.
		if err := hp.Write(p, 0xD000_1000, make([]byte, 4096)); err != nil {
			t.Error(err)
		}
	})
	k.RunAll()
	k.Shutdown()
}

func TestHostPortWatchFiresOnDMAAndCPU(t *testing.T) {
	k, d, hp, _ := hostRig(t)
	hits := 0
	remove := hp.Watch(Range{Base: 0x10100, Size: 16}, func(Addr, int) { hits++ })
	k.Spawn("p", func(p *sim.Proc) {
		// CPU store inside the range.
		hp.Write(p, 0x10104, []byte{1})
		// CPU store outside the range.
		hp.Write(p, 0x10200, []byte{1})
		// Inbound DMA from the device endpoint into the range.
		d.MemWrite(p, 1, 0x10108, []byte{2, 3})
	})
	k.RunAll()
	k.Shutdown()
	if hits != 2 {
		t.Fatalf("watch fired %d times, want 2", hits)
	}
	remove()
	k2 := sim.NewKernel()
	_ = k2
	// After removal, more writes must not fire.
	k3 := hp.Domain().Kernel()
	k3.Spawn("p2", func(p *sim.Proc) {
		hp.Write(p, 0x10104, []byte{9})
	})
	k3.RunAll()
	k3.Shutdown()
	if hits != 2 {
		t.Fatalf("watch fired after removal: %d", hits)
	}
}

func TestHostPortWatchOverlapSemantics(t *testing.T) {
	k, _, hp, _ := hostRig(t)
	hits := 0
	hp.Watch(Range{Base: 0x10100, Size: 16}, func(Addr, int) { hits++ })
	k.Spawn("p", func(p *sim.Proc) {
		// A write straddling the range boundary must fire.
		hp.Write(p, 0x100F8, make([]byte, 16))
	})
	k.RunAll()
	k.Shutdown()
	if hits != 1 {
		t.Fatalf("straddling write fired %d times", hits)
	}
}

func TestHostPortAllocFreeSlice(t *testing.T) {
	_, _, hp, _ := hostRig(t)
	a, err := hp.Alloc(4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s, err := hp.Slice(a, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s[0] = 0x42
	if !hp.Local(a, 4096) {
		t.Fatal("allocated memory not local")
	}
	if hp.Local(0xD000_0000, 4) {
		t.Fatal("device memory reported local")
	}
	if err := hp.Free(a); err != nil {
		t.Fatal(err)
	}
}

func TestCopyNs(t *testing.T) {
	if CopyNs(0) != 0 {
		t.Fatal("zero-byte copy costs time")
	}
	if CopyNs(1600) != LocalAccessNs+100 {
		t.Fatalf("1600B at 16B/ns = %d", CopyNs(1600))
	}
}
