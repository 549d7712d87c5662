package hostdriver_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/hostdriver"
	"repro/internal/nvme"
	"repro/internal/sim"
)

type rig struct {
	c    *cluster.Cluster
	ctrl *nvme.Controller
}

func newRig(t *testing.T) *rig {
	t.Helper()
	c, err := cluster.New(cluster.Config{Hosts: 1, MemBytes: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := c.AttachNVMe(0, cluster.NVMeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{c: c, ctrl: ctrl}
}

func (r *rig) withDriver(t *testing.T, params hostdriver.Params, fn func(p *sim.Proc, d *hostdriver.Driver)) {
	t.Helper()
	r.c.Go("test", func(p *sim.Proc) {
		d, err := hostdriver.New(p, "nvme0n1", r.c.Hosts[0].Port, cluster.NVMeBARBase, r.ctrl, params)
		if err != nil {
			t.Errorf("driver init: %v", err)
			return
		}
		fn(p, d)
	})
	r.c.Run()
}

func TestDriverInit(t *testing.T) {
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{}, func(p *sim.Proc, d *hostdriver.Driver) {
		if d.BlockSize() != 512 {
			t.Errorf("block size %d", d.BlockSize())
		}
		if d.Blocks() == 0 {
			t.Error("zero capacity")
		}
		if d.Identify().Model == "" {
			t.Error("empty model")
		}
		if d.Queues() != 1 {
			t.Errorf("queues %d", d.Queues())
		}
	})
}

func TestDriverMultiQueue(t *testing.T) {
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{Queues: 4}, func(p *sim.Proc, d *hostdriver.Driver) {
		if d.Queues() != 4 {
			t.Errorf("queues %d, want 4", d.Queues())
		}
		// I/O still works when spread round-robin.
		buf := make([]byte, 4096)
		for i := 0; i < 8; i++ {
			if err := d.ReadBlocks(p, uint64(i*8), 8, buf); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
		}
	})
}

func TestDriverReadWrite(t *testing.T) {
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{}, func(p *sim.Proc, d *hostdriver.Driver) {
		want := bytes.Repeat([]byte{0xDA, 0x7A}, 2048)
		if err := d.WriteBlocks(p, 64, 8, want); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := make([]byte, 4096)
		if err := d.ReadBlocks(p, 64, 8, got); err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data mismatch through driver")
		}
		if err := d.Flush(p); err != nil {
			t.Fatalf("flush: %v", err)
		}
	})
	if r.ctrl.Stats.ReadCmds != 1 || r.ctrl.Stats.WriteCmds != 1 || r.ctrl.Stats.FlushCmds != 1 {
		t.Fatalf("controller stats %+v", r.ctrl.Stats)
	}
	if r.ctrl.Stats.Interrupts == 0 {
		t.Fatal("no interrupts: stock driver must be interrupt-driven")
	}
}

func TestDriverLargeTransferPRPList(t *testing.T) {
	for _, c := range []struct {
		name   string
		params hostdriver.Params
		pages  int
	}{
		{"16 pages", hostdriver.Params{}, 16},
		// 600 pages take a PRP list chained over two list pages.
		{"600 pages", hostdriver.Params{MaxPages: 600, QueueDepth: 8}, 600},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t)
			r.withDriver(t, c.params, func(p *sim.Proc, d *hostdriver.Driver) {
				n := c.pages * 4096
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(i * 7)
				}
				if err := d.WriteBlocks(p, 0, n/512, want); err != nil {
					t.Fatalf("write: %v", err)
				}
				got := make([]byte, n)
				if err := d.ReadBlocks(p, 0, n/512, got); err != nil {
					t.Fatalf("read: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Error("large transfer mismatch")
				}
			})
		})
	}
}

// TestDriverContextOwnedUntilCompletion stalls one read in the medium,
// for stalls swept over 0-60 µs, while two readers loop on another LBA.
// However the completions interleave, a command's DMA pages must stay its
// own until it has copied its data out.
func TestDriverContextOwnedUntilCompletion(t *testing.T) {
	r := newRig(t)
	med := r.ctrl.Medium().(*nvme.FlashMedium)
	wrong := 0
	r.withDriver(t, hostdriver.Params{QueueDepth: 4}, func(p *sim.Proc, d *hostdriver.Driver) {
		stalled := bytes.Repeat([]byte{0x5A}, 4096)
		other := bytes.Repeat([]byte{0xA5}, 4096)
		if err := d.WriteBlocks(p, 0, 8, stalled); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteBlocks(p, 64, 8, other); err != nil {
			t.Fatal(err)
		}
		stop := false
		for i := 0; i < 2; i++ {
			r.c.K.Spawn("reader", func(rp *sim.Proc) {
				buf := make([]byte, 4096)
				for !stop {
					if err := d.ReadBlocks(rp, 64, 8, buf); err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(buf, other) {
						wrong++
					}
				}
			})
		}
		buf := make([]byte, 4096)
		for stall := int64(0); stall <= 60_000; stall += 250 {
			med.InjectStall(stall)
			if err := d.ReadBlocks(p, 0, 8, buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, stalled) {
				wrong++
			}
		}
		stop = true
	})
	if wrong > 0 {
		t.Errorf("%d reads returned another command's data", wrong)
	}
}

func TestDriverTooLarge(t *testing.T) {
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{MaxPages: 2}, func(p *sim.Proc, d *hostdriver.Driver) {
		buf := make([]byte, 3*4096)
		if err := d.ReadBlocks(p, 0, len(buf)/512, buf); !errors.Is(err, hostdriver.ErrTooLarge) {
			t.Errorf("got %v, want ErrTooLarge", err)
		}
	})
}

func TestDriverBadBuffer(t *testing.T) {
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{}, func(p *sim.Proc, d *hostdriver.Driver) {
		if err := d.ReadBlocks(p, 0, 8, make([]byte, 100)); err == nil {
			t.Error("mismatched buffer accepted")
		}
	})
}

func TestDriverAsBlockDevice(t *testing.T) {
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{}, func(p *sim.Proc, d *hostdriver.Driver) {
		q := block.NewQueue(r.c.K, d, block.QueueParams{})
		want := bytes.Repeat([]byte{0x99}, 4096)
		if err := q.SubmitAndWait(p, block.OpWrite, 128, 8, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 4096)
		if err := q.SubmitAndWait(p, block.OpRead, 128, 8, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Error("mismatch via block layer")
		}
	})
}

func TestDriverConcurrentIO(t *testing.T) {
	r := newRig(t)
	var drv *hostdriver.Driver
	r.c.Go("init", func(p *sim.Proc) {
		d, err := hostdriver.New(p, "nvme0n1", r.c.Hosts[0].Port, cluster.NVMeBARBase, r.ctrl, hostdriver.Params{})
		if err != nil {
			t.Errorf("init: %v", err)
			return
		}
		drv = d
		// Fan out 16 concurrent writers/readers on distinct LBA ranges.
		for i := 0; i < 16; i++ {
			idx := i
			r.c.K.Spawn("io", func(p *sim.Proc) {
				lba := uint64(idx * 100)
				pat := bytes.Repeat([]byte{byte(idx + 1)}, 4096)
				if err := drv.WriteBlocks(p, lba, 8, pat); err != nil {
					t.Errorf("w%d: %v", idx, err)
					return
				}
				got := make([]byte, 4096)
				if err := drv.ReadBlocks(p, lba, 8, got); err != nil {
					t.Errorf("r%d: %v", idx, err)
					return
				}
				if !bytes.Equal(got, pat) {
					t.Errorf("worker %d data mismatch", idx)
				}
			})
		}
	})
	r.c.Run()
	if r.ctrl.Stats.ReadCmds != 16 || r.ctrl.Stats.WriteCmds != 16 {
		t.Fatalf("stats %+v", r.ctrl.Stats)
	}
}

func TestDriverLatencySanity(t *testing.T) {
	// QD1 4 kB read latency must be dominated by the medium (~8.5 us) and
	// land well under 20 us; the software+fabric share is a few us.
	r := newRig(t)
	r.withDriver(t, hostdriver.Params{}, func(p *sim.Proc, d *hostdriver.Driver) {
		buf := make([]byte, 4096)
		if err := d.ReadBlocks(p, 0, 8, buf); err != nil { // warm-up
			t.Fatal(err)
		}
		start := p.Now()
		const n = 20
		for i := 0; i < n; i++ {
			if err := d.ReadBlocks(p, uint64(i*8), 8, buf); err != nil {
				t.Fatal(err)
			}
		}
		avg := (p.Now() - start) / n
		if avg < 8000 || avg > 20000 {
			t.Errorf("QD1 read latency %d ns outside sane window", avg)
		}
	})
}
