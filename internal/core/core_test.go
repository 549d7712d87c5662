package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/smartio"
)

// rig is a cluster.Rig with N hosts and the controller on host 0, plus
// the manager its test body runs beside.
type rig struct {
	*cluster.Rig
	c    *cluster.Cluster
	svc  *smartio.Service
	dev  *smartio.Device
	ctrl *nvme.Controller
	mgr  *core.Manager
}

func newRig(t *testing.T, hosts int, nvmeCfg cluster.NVMeConfig) *rig {
	t.Helper()
	cr, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: hosts, AdapterWindows: 256},
		NVMe:    []cluster.NVMeConfig{nvmeCfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{Rig: cr, c: cr.Cluster, svc: cr.Svc, dev: cr.Devs[0], ctrl: cr.Ctrls[0]}
}

// start runs fn in a proc after creating the manager on host 0.
func (r *rig) start(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	r.startWith(t, core.ManagerParams{}, fn)
}

// startWith is start with explicit manager parameters.
func (r *rig) startWith(t *testing.T, mp core.ManagerParams, fn func(p *sim.Proc)) {
	t.Helper()
	err := r.Run("test", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, mp)
		if err != nil {
			return err
		}
		r.mgr = mgr
		fn(p)
		return nil
	})
	if err != nil {
		t.Error(err)
	}
}

func TestManagerPublishesMetadata(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		meta := r.mgr.Metadata()
		if meta.ManagerNode != 0 || meta.DeviceID != uint32(r.dev.ID) {
			t.Errorf("metadata %+v", meta)
		}
		if meta.BlockShift != 9 {
			t.Errorf("block shift %d", meta.BlockShift)
		}
		if meta.MaxQueues == 0 {
			t.Error("no queues advertised")
		}
		if meta.Serial == "" {
			t.Error("empty serial")
		}
	})
}

func TestManagerExclusiveInit(t *testing.T) {
	// While the manager holds the exclusive ref (before downgrade) nobody
	// can acquire; after NewManager returns, shared acquire must work.
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		ref, err := r.svc.Acquire(r.dev.ID, r.c.Hosts[1].Node, false)
		if err != nil {
			t.Errorf("shared acquire after manager init: %v", err)
			return
		}
		ref.Release()
	})
}

func TestLocalClientReadWrite(t *testing.T) {
	r := newRig(t, 1, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "dnvme0", r.svc, r.c.Hosts[0].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		want := bytes.Repeat([]byte{0xC5, 0x11}, 2048)
		if err := cl.WriteBlocks(p, 40, 8, want); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		got := make([]byte, 4096)
		if err := cl.ReadBlocks(p, 40, 8, got); err != nil {
			t.Errorf("read: %v", err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("data mismatch (local client)")
		}
		if err := cl.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	if r.ctrl.Stats.ReadCmds != 1 || r.ctrl.Stats.WriteCmds != 1 {
		t.Fatalf("ctrl stats %+v", r.ctrl.Stats)
	}
	if r.ctrl.Stats.Interrupts != 0 {
		t.Fatal("distributed driver must poll, not use interrupts")
	}
}

func TestRemoteClientReadWrite(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client-host1", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			cl, err := core.NewClient(cp, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			if cl.Metadata().ManagerNode != 0 {
				t.Error("metadata bootstrap failed")
			}
			want := bytes.Repeat([]byte{0x0F, 0xF0}, 2048)
			if err := cl.WriteBlocks(cp, 1000, 8, want); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			got := make([]byte, 4096)
			if err := cl.ReadBlocks(cp, 1000, 8, got); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Error("data mismatch (remote client)")
			}
		})
		p.Wait(done)
	})
}

func TestRemoteClientSQPlacementDeviceSide(t *testing.T) {
	// With SQDeviceSide, the client's SQE bytes must physically land in
	// the device host's DRAM.
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			cl, err := core.NewClient(cp, "d", r.svc, r.c.Hosts[1].Node, r.mgr,
				core.ClientParams{Placement: core.SQDeviceSide})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			if cl.Placement() != core.SQDeviceSide {
				t.Error("placement not recorded")
			}
			buf := make([]byte, 4096)
			if err := cl.ReadBlocks(cp, 0, 8, buf); err != nil {
				t.Errorf("read: %v", err)
			}
		})
		p.Wait(done)
	})
}

func TestTwoClientsOperateInParallel(t *testing.T) {
	r := newRig(t, 3, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		var evs []*sim.Event
		for i := 1; i <= 2; i++ {
			host := i
			done := sim.NewEvent(r.c.K)
			evs = append(evs, done)
			r.c.Go("client", func(cp *sim.Proc) {
				defer done.Trigger(nil)
				cl, err := core.NewClient(cp, "d", r.svc, r.c.Hosts[host].Node, r.mgr, core.ClientParams{})
				if err != nil {
					t.Errorf("client %d: %v", host, err)
					return
				}
				pat := bytes.Repeat([]byte{byte(host * 17)}, 4096)
				lba := uint64(host * 5000)
				for k := 0; k < 5; k++ {
					if err := cl.WriteBlocks(cp, lba+uint64(k*8), 8, pat); err != nil {
						t.Errorf("client %d write: %v", host, err)
						return
					}
				}
				got := make([]byte, 4096)
				for k := 0; k < 5; k++ {
					if err := cl.ReadBlocks(cp, lba+uint64(k*8), 8, got); err != nil {
						t.Errorf("client %d read: %v", host, err)
						return
					}
					if !bytes.Equal(got, pat) {
						t.Errorf("client %d data mismatch", host)
						return
					}
				}
			})
		}
		for _, ev := range evs {
			p.Wait(ev)
		}
	})
	if r.mgr.GrantedQueues != 2 {
		t.Fatalf("granted queues %d", r.mgr.GrantedQueues)
	}
}

func TestQueueExhaustionAndRelease(t *testing.T) {
	// Controller with 3 queue pairs (admin + 2 I/O): third client fails,
	// then succeeds after one closes.
	r := newRig(t, 2, cluster.NVMeConfig{Ctrl: nvme.Params{MaxQueuePairs: 3}})
	r.start(t, func(p *sim.Proc) {
		n := r.c.Hosts[1].Node
		c1, err := core.NewClient(p, "c1", r.svc, n, r.mgr, core.ClientParams{})
		if err != nil {
			t.Errorf("c1: %v", err)
			return
		}
		c2, err := core.NewClient(p, "c2", r.svc, n, r.mgr, core.ClientParams{})
		if err != nil {
			t.Errorf("c2: %v", err)
			return
		}
		if _, err := core.NewClient(p, "c3", r.svc, n, r.mgr, core.ClientParams{}); !errors.Is(err, core.ErrNoFreeQueues) {
			t.Errorf("c3: %v, want ErrNoFreeQueues", err)
		}
		if err := c1.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		c4, err := core.NewClient(p, "c4", r.svc, n, r.mgr, core.ClientParams{})
		if err != nil {
			t.Errorf("c4 after release: %v", err)
			return
		}
		// The released QID must be recycled.
		if c4.QID() != c1.QID() {
			t.Errorf("c4 qid %d, want recycled %d", c4.QID(), c1.QID())
		}
		_ = c2
	})
}

func TestClientClosedRejectsIO(t *testing.T) {
	r := newRig(t, 1, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "c", r.svc, r.c.Hosts[0].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		if err := cl.Close(p); err != nil {
			t.Errorf("close: %v", err)
			return
		}
		if err := cl.ReadBlocks(p, 0, 8, make([]byte, 4096)); !errors.Is(err, core.ErrClosed) {
			t.Errorf("read after close: %v", err)
		}
		if err := cl.Close(p); !errors.Is(err, core.ErrClosed) {
			t.Errorf("double close: %v", err)
		}
	})
}

func TestTransferTooLarge(t *testing.T) {
	r := newRig(t, 1, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "c", r.svc, r.c.Hosts[0].Node, r.mgr,
			core.ClientParams{PartitionBytes: 8192})
		if err != nil {
			t.Errorf("client: %v", err)
			return
		}
		big := make([]byte, 16384)
		if err := cl.ReadBlocks(p, 0, len(big)/512, big); !errors.Is(err, core.ErrTransferTooLarge) {
			t.Errorf("got %v, want ErrTransferTooLarge", err)
		}
	})
}

func TestLargeTransferUsesPRPList(t *testing.T) {
	type row struct {
		name   string
		params core.ClientParams
		pages  int
	}
	// 6 pages take one list page; in a 4 MiB partition, 513 pages still
	// fit one list page and 514 or more chain to a second or third.
	rows := []row{{"6 pages", core.ClientParams{}, 6}}
	for _, zc := range []bool{false, true} {
		mode := map[bool]string{false: "bounce", true: "zero-copy"}[zc]
		for _, pages := range []int{513, 514, 1023, 1024} {
			rows = append(rows, row{fmt.Sprintf("%d pages %s", pages, mode),
				core.ClientParams{QueueDepth: 2, PartitionBytes: 4 << 20, ZeroCopy: zc}, pages})
		}
	}
	for _, c := range rows {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 2, cluster.NVMeConfig{})
			r.startWith(t, core.ManagerParams{EnableIOMMU: c.params.ZeroCopy}, func(p *sim.Proc) {
				done := sim.NewEvent(r.c.K)
				r.c.Go("client", func(cp *sim.Proc) {
					defer done.Trigger(nil)
					cl, err := core.NewClient(cp, "c", r.svc, r.c.Hosts[1].Node, r.mgr, c.params)
					if err != nil {
						t.Errorf("client: %v", err)
						return
					}
					n := c.pages * 4096
					want := make([]byte, n)
					for i := range want {
						want[i] = byte(i*13 + 5)
					}
					if err := cl.WriteBlocks(cp, 300, n/512, want); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					got := make([]byte, n)
					if err := cl.ReadBlocks(cp, 300, n/512, got); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Error("PRP-list transfer corrupted data across NTB")
					}
				})
				p.Wait(done)
			})
		})
	}
}

func TestClientViaBlockLayer(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			cl, err := core.NewClient(cp, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			q := block.NewQueue(cl)
			want := bytes.Repeat([]byte{0x42}, 4096)
			if err := q.SubmitAndWait(cp, block.OpWrite, 0, 8, want); err != nil {
				t.Errorf("blk write: %v", err)
				return
			}
			got := make([]byte, 4096)
			if err := q.SubmitAndWait(cp, block.OpRead, 0, 8, got); err != nil {
				t.Errorf("blk read: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Error("mismatch via block layer")
			}
		})
		p.Wait(done)
	})
}

func TestDeviceSidePlacementFasterThanClientLocal(t *testing.T) {
	// The Fig. 8 claim: device-side SQ placement lowers remote latency
	// because the controller's SQE fetch is a local read rather than a
	// non-posted read across the NTB.
	measure := func(placement core.SQPlacement) sim.Duration {
		r := newRig(t, 2, cluster.NVMeConfig{
			Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12},
		})
		var total sim.Duration
		r.start(t, func(p *sim.Proc) {
			done := sim.NewEvent(r.c.K)
			r.c.Go("client", func(cp *sim.Proc) {
				defer done.Trigger(nil)
				cl, err := core.NewClient(cp, "c", r.svc, r.c.Hosts[1].Node, r.mgr,
					core.ClientParams{Placement: placement})
				if err != nil {
					t.Errorf("client: %v", err)
					return
				}
				buf := make([]byte, 4096)
				cl.ReadBlocks(cp, 0, 8, buf) // warm-up
				start := cp.Now()
				const n = 10
				for i := 0; i < n; i++ {
					if err := cl.ReadBlocks(cp, uint64(i*8), 8, buf); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
				total = (cp.Now() - start) / n
			})
			p.Wait(done)
		})
		return total
	}
	deviceSide := measure(core.SQDeviceSide)
	clientLocal := measure(core.SQClientLocal)
	if deviceSide >= clientLocal {
		t.Fatalf("device-side SQ (%d ns) not faster than client-local (%d ns)", deviceSide, clientLocal)
	}
}

func TestRemoteSlowerThanLocalButClose(t *testing.T) {
	// The headline result in miniature: remote access through our driver
	// costs only the extra PCIe path (~1-2 us), far below NVMe-oF's
	// 7+ us software penalty.
	lat := func(hostIdx int) sim.Duration {
		r := newRig(t, 2, cluster.NVMeConfig{
			Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12},
		})
		var out sim.Duration
		r.start(t, func(p *sim.Proc) {
			done := sim.NewEvent(r.c.K)
			r.c.Go("client", func(cp *sim.Proc) {
				defer done.Trigger(nil)
				cl, err := core.NewClient(cp, "c", r.svc, r.c.Hosts[hostIdx].Node, r.mgr, core.ClientParams{})
				if err != nil {
					t.Errorf("client: %v", err)
					return
				}
				buf := make([]byte, 4096)
				cl.ReadBlocks(cp, 0, 8, buf)
				start := cp.Now()
				const n = 10
				for i := 0; i < n; i++ {
					if err := cl.ReadBlocks(cp, uint64(i*8), 8, buf); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
				out = (cp.Now() - start) / n
			})
			p.Wait(done)
		})
		return out
	}
	local := lat(0)
	remote := lat(1)
	delta := remote - local
	if delta <= 0 {
		t.Fatalf("remote (%d) not slower than local (%d)", remote, local)
	}
	if delta > 3000 {
		t.Fatalf("remote delta %d ns; PCIe-native sharing should add ~1-2 us, not more", delta)
	}
}

// TestPhaseAccounting verifies the per-phase decomposition sums to the
// client's measured I/O time, on both read and write paths.
func TestPhaseAccounting(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		done := sim.NewEvent(r.c.K)
		r.c.Go("client", func(cp *sim.Proc) {
			defer done.Trigger(nil)
			cl, err := core.NewClient(cp, "ph", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
			if err != nil {
				t.Errorf("client: %v", err)
				return
			}
			buf := make([]byte, 4096)
			start := cp.Now()
			const n = 6
			for i := 0; i < n; i++ {
				if err := cl.WriteBlocks(cp, uint64(i*8), 8, buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if err := cl.ReadBlocks(cp, uint64(i*8), 8, buf); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
			total := cp.Now() - start
			ph := cl.Phases
			if ph.Ops != 2*n {
				t.Errorf("phase ops %d, want %d", ph.Ops, 2*n)
				return
			}
			sum := ph.SubmitNs + ph.DataMoveNs + ph.DeviceNs + ph.CompleteNs
			if sum != total {
				t.Errorf("phase sum %d != measured total %d", sum, total)
			}
			submit, move, device, complete := ph.Mean()
			if submit <= 0 || move <= 0 || device <= 0 || complete <= 0 {
				t.Errorf("non-positive phase mean: %v %v %v %v", submit, move, device, complete)
			}
			if device < 8000 {
				t.Errorf("device phase %.0f ns implausibly small", device)
			}
		})
		p.Wait(done)
	})
}
