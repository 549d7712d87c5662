package iommu_test

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/iommu"
	"repro/internal/pcie"
	"repro/internal/sim"
)

const aperBase = 0xE000_0000

// rig: two hosts; an IOMMU on host 0 (the "device host") whose aperture
// translates into local DRAM or into host 0's NTB windows toward host 1.
type rig struct {
	c *cluster.Cluster
	u *iommu.Unit
}

func newRig(t *testing.T) *rig {
	t.Helper()
	c, err := cluster.New(cluster.Config{Hosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	u, err := iommu.New("iommu0", c.Hosts[0].Dom, c.Hosts[0].RC,
		pcie.Range{Base: aperBase, Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{c: c, u: u}
}

func TestMapTranslateLocal(t *testing.T) {
	r := newRig(t)
	h := r.c.Hosts[0]
	phys, _ := h.Port.Alloc(8192, iommu.PageSize)
	r.c.Go("p", func(p *sim.Proc) {
		if err := r.u.Map(p, aperBase, phys, 8192); err != nil {
			t.Error(err)
			return
		}
		// A "device" DMA through the IOVA lands in the physical pages.
		if err := h.Dom.MemWrite(p, h.AdapterEP, aperBase+100, []byte("via iommu")); err != nil {
			t.Error(err)
		}
	})
	r.c.Run()
	got, _ := h.Port.Slice(phys+100, 9)
	if !bytes.Equal(got, []byte("via iommu")) {
		t.Fatal("IOMMU-translated DMA missed its physical page")
	}
	if r.u.Mapped() != 2 {
		t.Fatalf("mapped pages %d, want 2", r.u.Mapped())
	}
}

func TestChainIOMMUIntoNTBWindow(t *testing.T) {
	// The future-work design: IOVA -> NTB window -> remote client page.
	// A device DMA on host 0 reaches host 1's memory with zero copies.
	r := newRig(t)
	h0, h1 := r.c.Hosts[0], r.c.Hosts[1]
	remotePhys, _ := h1.Port.Alloc(4096, iommu.PageSize)
	window, err := h0.Adapter.MapAuto(4096, 4096, h1.Dom, h1.AdapterEP, remotePhys)
	if err != nil {
		t.Fatal(err)
	}
	r.c.Go("p", func(p *sim.Proc) {
		if err := r.u.Map(p, aperBase, window, 4096); err != nil {
			t.Error(err)
			return
		}
		if err := h0.Dom.MemWrite(p, h0.RC, aperBase+8, []byte{0xE7}); err != nil {
			t.Error(err)
		}
	})
	r.c.Run()
	got, _ := h1.Port.Slice(remotePhys+8, 1)
	if got[0] != 0xE7 {
		t.Fatal("chained IOMMU->NTB DMA missed the remote page")
	}
}

func TestMapValidation(t *testing.T) {
	r := newRig(t)
	r.c.Go("p", func(p *sim.Proc) {
		if err := r.u.Map(p, aperBase+1, 0, 4096); !errors.Is(err, iommu.ErrNotAligned) {
			t.Errorf("unaligned iova: %v", err)
		}
		if err := r.u.Map(p, aperBase, 4096, 100); !errors.Is(err, iommu.ErrNotAligned) {
			t.Errorf("unaligned size: %v", err)
		}
		if err := r.u.Map(p, 0x1000, 4096, 4096); !errors.Is(err, iommu.ErrAperture) {
			t.Errorf("outside aperture: %v", err)
		}
		if err := r.u.Map(p, aperBase, 0x10_0000, 4096); err != nil {
			t.Errorf("valid map: %v", err)
		}
		if err := r.u.Map(p, aperBase, 0x20_0000, 4096); !errors.Is(err, iommu.ErrOverlap) {
			t.Errorf("overlap: %v", err)
		}
	})
	r.c.Run()
}

func TestUnmapAndFault(t *testing.T) {
	r := newRig(t)
	h := r.c.Hosts[0]
	phys, _ := h.Port.Alloc(4096, iommu.PageSize)
	var faulted error
	r.c.Go("p", func(p *sim.Proc) {
		const iova = aperBase + 0x5000
		if err := r.u.Map(p, iova, phys, 4096); err != nil {
			t.Error(err)
			return
		}
		if err := r.u.Unmap(p, iova, 4096); err != nil {
			t.Error(err)
			return
		}
		if err := r.u.Unmap(p, iova, 4096); !errors.Is(err, iommu.ErrUnmapped) {
			t.Errorf("double unmap: %v", err)
		}
		// DMA through the stale IOVA faults (routing error).
		faulted = h.Dom.MemWrite(p, h.RC, iova, []byte{1})
	})
	r.c.Run()
	if !errors.Is(faulted, iommu.ErrUnmapped) {
		t.Fatalf("stale IOVA access: %v, want ErrUnmapped", faulted)
	}
	if r.u.Mapped() != 0 {
		t.Fatal("pages left mapped")
	}
}

func TestMapUnmapCostsTime(t *testing.T) {
	r := newRig(t)
	h := r.c.Hosts[0]
	phys, _ := h.Port.Alloc(16<<10, iommu.PageSize)
	var mapCost, unmapCost sim.Duration
	r.c.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		if err := r.u.Map(p, aperBase, phys, 16<<10); err != nil { // 4 pages
			t.Error(err)
			return
		}
		mapCost = p.Now() - t0
		t0 = p.Now()
		if err := r.u.Unmap(p, aperBase, 16<<10); err != nil {
			t.Error(err)
		}
		unmapCost = p.Now() - t0
	})
	r.c.Run()
	if mapCost != 4*iommu.MapNs {
		t.Fatalf("map cost %d, want %d", mapCost, 4*iommu.MapNs)
	}
	if unmapCost != iommu.UnmapNs {
		t.Fatalf("unmap cost %d, want %d (batched invalidation)", unmapCost, iommu.UnmapNs)
	}
}

// TestStraddlingDMAFails pins that the unit translates a transaction's
// whole range. A DMA across two IOVA pages succeeds only when both are
// mapped to one contiguous physical run. One that runs into an unmapped
// page, or into a page mapped elsewhere, fails with ErrUnmapped and moves
// no byte.
func TestStraddlingDMAFails(t *testing.T) {
	r := newRig(t)
	h := r.c.Hosts[0]
	phys, _ := h.Port.Alloc(4*iommu.PageSize, iommu.PageSize)
	data := bytes.Repeat([]byte{0x5A}, 2*iommu.PageSize)
	r.c.Go("p", func(p *sim.Proc) {
		// Two contiguous pages: one DMA covers both.
		if err := r.u.Map(p, aperBase, phys, 2*iommu.PageSize); err != nil {
			t.Error(err)
			return
		}
		if err := h.Dom.MemWrite(p, h.RC, aperBase, data); err != nil {
			t.Errorf("contiguous pages: %v", err)
		}
		// One page mapped, the next not.
		if err := r.u.Map(p, aperBase+0x10000, phys+2*iommu.PageSize, iommu.PageSize); err != nil {
			t.Error(err)
			return
		}
		if err := h.Dom.MemWrite(p, h.RC, aperBase+0x10000, data); !errors.Is(err, iommu.ErrUnmapped) {
			t.Errorf("into an unmapped page: %v, want ErrUnmapped", err)
		}
		// The next page is mapped, but not right after the first.
		if err := r.u.Map(p, aperBase+0x11000, phys, iommu.PageSize); err != nil {
			t.Error(err)
			return
		}
		if err := h.Dom.MemWrite(p, h.RC, aperBase+0x10000, data); !errors.Is(err, iommu.ErrUnmapped) {
			t.Errorf("into a non-contiguous page: %v, want ErrUnmapped", err)
		}
	})
	r.c.Run()
	got := make([]byte, 4*iommu.PageSize)
	if err := h.Port.Mem().Read(phys, got); err != nil {
		t.Fatal(err)
	}
	want := append(data, make([]byte, 2*iommu.PageSize)...)
	if !bytes.Equal(got, want) {
		t.Fatal("a refused DMA changed DRAM")
	}
}

// TestForwardReentersAtEntry pins that translated traffic re-enters
// routing at the node New was given, here the adapter endpoint rather
// than the root complex.
func TestForwardReentersAtEntry(t *testing.T) {
	c, err := cluster.New(cluster.Config{Hosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := c.Hosts[0]
	u, err := iommu.New("iommu0", h.Dom, h.AdapterEP, pcie.Range{Base: aperBase, Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	phys, _ := h.Port.Alloc(iommu.PageSize, iommu.PageSize)
	c.Go("p", func(p *sim.Proc) {
		if err := u.Map(p, aperBase, phys, iommu.PageSize); err != nil {
			t.Error(err)
		}
	})
	c.Run()
	dom, node, addr, _, err := u.Forward(aperBase+8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dom != h.Dom || node != h.AdapterEP || addr != phys+8 {
		t.Fatalf("Forward re-enters at node %d address %#x, want node %d (the adapter endpoint) address %#x",
			node, addr, h.AdapterEP, phys+8)
	}
}

// Property: translation is the identity on offsets within a mapped page.
func TestPropAffineWithinPage(t *testing.T) {
	f := func(off uint16) bool {
		r := newRig(t)
		h := r.c.Hosts[0]
		phys, _ := h.Port.Alloc(4096, iommu.PageSize)
		o := uint64(off) % 4096
		ok := true
		r.c.Go("p", func(p *sim.Proc) {
			if err := r.u.Map(p, aperBase, phys, 4096); err != nil {
				ok = false
				return
			}
			if err := h.Dom.MemWrite(p, h.RC, aperBase+pcie.Addr(o), []byte{0x77}); err != nil {
				ok = false
			}
		})
		r.c.Run()
		if !ok {
			return false
		}
		got, _ := h.Port.Slice(phys+pcie.Addr(o), 1)
		return got[0] == 0x77
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
