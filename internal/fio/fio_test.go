package fio

import (
	"errors"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
)

// fixedDevice completes every I/O in a fixed virtual time.
type fixedDevice struct {
	latNs  int64
	blocks uint64
	reads  int
	writes int
}

func (d *fixedDevice) Name() string   { return "fixed" }
func (d *fixedDevice) BlockSize() int { return 512 }
func (d *fixedDevice) Blocks() uint64 { return d.blocks }
func (d *fixedDevice) Flush(p *sim.Proc) error {
	p.Sleep(d.latNs)
	return nil
}
func (d *fixedDevice) ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	p.Sleep(d.latNs)
	d.reads++
	return nil
}
func (d *fixedDevice) WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	p.Sleep(d.latNs)
	d.writes++
	return nil
}

func runJob(t *testing.T, dev block.Device, spec JobSpec) *Result {
	t.Helper()
	k := sim.NewKernel()
	q := block.NewQueue(dev)
	var res *Result
	var err error
	k.Spawn("fio", func(p *sim.Proc) {
		res, err = Run(p, q, spec)
	})
	k.RunAll()
	k.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRandReadJob(t *testing.T) {
	dev := &fixedDevice{latNs: 10_000, blocks: 1 << 20}
	res := runJob(t, dev, JobSpec{Name: "r", Op: RandRead, MaxIOs: 100, Runtime: sim.Second})
	if res.IOs != 100 {
		t.Fatalf("ios %d, want 100", res.IOs)
	}
	if res.ReadLat.Count() != 100 || res.WriteLat.Count() != 0 {
		t.Fatalf("lat counts r=%d w=%d", res.ReadLat.Count(), res.WriteLat.Count())
	}
	if res.Errors != 0 {
		t.Fatalf("errors %d", res.Errors)
	}
	// Latency must be device latency plus small block-layer overhead.
	if min := res.ReadLat.Min(); min < 10_000 || min > 11_000 {
		t.Fatalf("min latency %.0f", min)
	}
}

func TestRandWriteJob(t *testing.T) {
	dev := &fixedDevice{latNs: 5_000, blocks: 1 << 20}
	res := runJob(t, dev, JobSpec{Name: "w", Op: RandWrite, MaxIOs: 50, Runtime: sim.Second})
	if res.WriteLat.Count() != 50 || res.ReadLat.Count() != 0 {
		t.Fatalf("lat counts r=%d w=%d", res.ReadLat.Count(), res.WriteLat.Count())
	}
	if dev.writes != 50 {
		t.Fatalf("device writes %d", dev.writes)
	}
}

func TestRandRWMix(t *testing.T) {
	dev := &fixedDevice{latNs: 1_000, blocks: 1 << 20}
	res := runJob(t, dev, JobSpec{Name: "rw", Op: RandRW, MaxIOs: 1000, Runtime: 10 * sim.Second})
	frac := float64(res.ReadLat.Count()) / float64(res.IOs)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction %.2f, want ~%d%%", frac, readPct)
	}
}

func TestRuntimeBound(t *testing.T) {
	dev := &fixedDevice{latNs: 100_000, blocks: 1 << 20} // 100 us/io
	res := runJob(t, dev, JobSpec{Name: "rt", Op: RandRead, Runtime: sim.Millisecond})
	// 1 ms / ~100 us => ~10 I/Os.
	if res.IOs < 5 || res.IOs > 15 {
		t.Fatalf("ios %d, want ~10", res.IOs)
	}
	if res.Elapsed < sim.Millisecond {
		t.Fatalf("elapsed %d below runtime", res.Elapsed)
	}
}

func TestQueueDepthIncreasesIOPS(t *testing.T) {
	run := func(qd int) float64 {
		dev := &fixedDevice{latNs: 10_000, blocks: 1 << 20}
		res := runJob(t, dev, JobSpec{Name: "qd", Op: RandRead, QueueDepth: qd,
			MaxIOs: 200, Runtime: 100 * sim.Millisecond})
		return res.IOPS()
	}
	if run(8) < 3*run(1) {
		t.Fatal("QD8 should deliver several times QD1 IOPS on a parallel device")
	}
}

func TestWarmupExcluded(t *testing.T) {
	dev := &fixedDevice{latNs: 1000, blocks: 1 << 20}
	res := runJob(t, dev, JobSpec{Name: "warm", Op: RandRead, MaxIOs: 10, WarmupIOs: 5, Runtime: sim.Second})
	if res.IOs != 10 {
		t.Fatalf("measured ios %d, want 10", res.IOs)
	}
	if dev.reads != 15 {
		t.Fatalf("device reads %d, want 15 (10 measured + 5 warmup)", dev.reads)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, float64) {
		dev := &fixedDevice{latNs: 7_777, blocks: 1 << 16}
		res := runJob(t, dev, JobSpec{Name: "det", Op: RandRW, MaxIOs: 200, Seed: 42, Runtime: sim.Second})
		return res.IOs, res.ReadLat.Sum() + res.WriteLat.Sum()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatal("same seed produced different results")
	}
}

func TestBadSpecs(t *testing.T) {
	dev := &fixedDevice{latNs: 1, blocks: 1024}
	k := sim.NewKernel()
	q := block.NewQueue(dev)
	var err1, err2 error
	k.Spawn("fio", func(p *sim.Proc) {
		_, err1 = Run(p, q, JobSpec{Op: RandRead, BlockSize: 1000, MaxIOs: 1})
		_, err2 = Run(p, q, JobSpec{Op: RandRead, BlockSize: 4096, RangeBlocks: 4, MaxIOs: 1})
	})
	k.RunAll()
	k.Shutdown()
	if !errors.Is(err1, ErrBadSpec) {
		t.Fatalf("unaligned bs: %v", err1)
	}
	if !errors.Is(err2, ErrBadSpec) {
		t.Fatalf("tiny range: %v", err2)
	}
}

func TestPrefillWritesRange(t *testing.T) {
	dev := &fixedDevice{latNs: 10, blocks: 1 << 20}
	res := runJob(t, dev, JobSpec{Name: "pf", Op: RandRead, MaxIOs: 10,
		RangeBlocks: 80, Prefill: true, Runtime: sim.Second})
	// Range of 80 blocks = 10 x 4 kB slots prefilled + 10 reads.
	if dev.writes != 10 {
		t.Fatalf("prefill writes %d, want 10", dev.writes)
	}
	if res.IOs != 10 {
		t.Fatalf("ios %d", res.IOs)
	}
}

func TestOpString(t *testing.T) {
	if RandRead.String() != "randread" || RandWrite.String() != "randwrite" ||
		RandRW.String() != "randrw" || Op(9).String() != "unknown" {
		t.Fatal("Op strings broken")
	}
}

func TestResultString(t *testing.T) {
	dev := &fixedDevice{latNs: 100, blocks: 1 << 20}
	res := runJob(t, dev, JobSpec{Name: "str", Op: RandRead, MaxIOs: 3, Runtime: sim.Second})
	if res.String() == "" {
		t.Fatal("empty summary")
	}
}
