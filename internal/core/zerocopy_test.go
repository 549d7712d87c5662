package core_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// iommu is the manager configuration zero-copy clients need.
var iommu = core.ManagerParams{EnableIOMMU: true}

func TestZeroCopyReadWrite(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.startWith(t, iommu, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			cl, err := core.NewClient(cp, "zc", r.svc, r.c.Hosts[1].Node, r.mgr,
				core.ClientParams{ZeroCopy: true})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			want := bytes.Repeat([]byte{0x2C, 0x0F}, 2048)
			if err := cl.WriteBlocks(cp, 4000, 8, want); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			got := make([]byte, 4096)
			if err := cl.ReadBlocks(cp, 4000, 8, got); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Error("data mismatch through IOMMU path")
			}
		})
		p.Wait(done)
	})
	if r.mgr.IOMMU() == nil {
		t.Fatal("manager has no IOMMU")
	}
	if r.mgr.IOMMU().Mapped() != 0 {
		t.Fatalf("%d pages still mapped after I/O completed (unmap leak)", r.mgr.IOMMU().Mapped())
	}
}

func TestZeroCopyLargeTransfer(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.startWith(t, iommu, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			cl, err := core.NewClient(cp, "zc", r.svc, r.c.Hosts[1].Node, r.mgr,
				core.ClientParams{ZeroCopy: true})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			n := 12 * 4096 // PRP list path through IOVA entries
			want := make([]byte, n)
			for i := range want {
				want[i] = byte(i*17 + 9)
			}
			if err := cl.WriteBlocks(cp, 0, n/512, want); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			got := make([]byte, n)
			if err := cl.ReadBlocks(cp, 0, n/512, got); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Error("large zero-copy transfer corrupted")
			}
		})
		p.Wait(done)
	})
}

func TestZeroCopyRequiresIOMMUManager(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) { // plain manager, no IOMMU
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			_, err := core.NewClient(cp, "zc", r.svc, r.c.Hosts[1].Node, r.mgr,
				core.ClientParams{ZeroCopy: true})
			if !errors.Is(err, core.ErrBadGrant) {
				t.Errorf("got %v, want ErrBadGrant", err)
			}
		})
		p.Wait(done)
	})
}

func TestZeroCopyQueueRecycleAfterFailure(t *testing.T) {
	// A failed zero-copy attach must not leak its queue pair.
	r := newRig(t, 2, cluster.NVMeConfig{Ctrl: nvme.Params{MaxQueuePairs: 2}})
	r.start(t, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			if _, err := core.NewClient(cp, "zc", r.svc, r.c.Hosts[1].Node, r.mgr,
				core.ClientParams{ZeroCopy: true}); err == nil {
				t.Error("zero-copy attach succeeded without IOMMU")
				return
			}
			// The single I/O queue pair must still be available.
			if _, err := core.NewClient(cp, "plain", r.svc, r.c.Hosts[1].Node, r.mgr,
				core.ClientParams{}); err != nil {
				t.Errorf("queue pair leaked by failed attach: %v", err)
			}
		})
		p.Wait(done)
	})
}

// TestZeroCopyVsBounceCrossover verifies the economics that justify both
// the paper's bounce-buffer design (small I/O) and its IOMMU future work
// (large I/O): copying wins at 4 kB, mapping wins for large transfers.
func TestZeroCopyVsBounceCrossover(t *testing.T) {
	lat := func(zeroCopy bool, n int) sim.Duration {
		r := newRig(t, 2, cluster.NVMeConfig{
			Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12},
		})
		var out sim.Duration
		r.startWith(t, core.ManagerParams{EnableIOMMU: zeroCopy}, func(p *sim.Proc) {
			done := sim.NewEvent(r.c.K)
			r.c.Go("client", func(cp *sim.Proc) {
				defer done.Trigger(nil)
				cl, err := core.NewClient(cp, "c", r.svc, r.c.Hosts[1].Node, r.mgr,
					core.ClientParams{ZeroCopy: zeroCopy, PartitionBytes: 256 << 10})
				if err != nil {
					t.Errorf("client: %v", err)
					return
				}
				buf := make([]byte, n)
				cl.WriteBlocks(cp, 0, n/512, buf)
				start := cp.Now()
				const iters = 8
				for i := 0; i < iters; i++ {
					if err := cl.WriteBlocks(cp, uint64(i*512), n/512, buf); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
				out = (cp.Now() - start) / iters
			})
			p.Wait(done)
		})
		return out
	}
	// 4 kB: bounce should win (one small memcpy beats map+IOTLB flush).
	if b, z := lat(false, 4096), lat(true, 4096); z <= b {
		t.Errorf("4kB: zero-copy (%d) unexpectedly beat bounce (%d)", z, b)
	}
	// 128 kB: zero-copy should win (copy cost scales with bytes, mapping
	// with pages).
	if b, z := lat(false, 128<<10), lat(true, 128<<10); z >= b {
		t.Errorf("128kB: zero-copy (%d) did not beat bounce (%d)", z, b)
	}
}
