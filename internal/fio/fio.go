// Package fio is a Flexible-I/O-Tester-style synthetic workload generator
// for the simulation: random read/write jobs with configurable block
// size, queue depth and runtime, producing per-I/O latency samples and
// the boxplot summaries the paper's Figure 10 reports. The paper's
// configuration — 4 kB, QD1, 60 s, random read/write — is the default.
package fio

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/block"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Op selects the workload pattern.
type Op int

// Workload patterns.
const (
	RandRead Op = iota
	RandWrite
	RandRW
)

// readPct is RandRW's read percentage.
const readPct = 50

func (o Op) String() string {
	switch o {
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	case RandRW:
		return "randrw"
	}
	return "unknown"
}

// ErrBadSpec reports an invalid job specification.
var ErrBadSpec = errors.New("fio: bad job spec")

// JobSpec describes one benchmark job.
type JobSpec struct {
	Name string
	Op   Op
	// BlockSize is the I/O size in bytes (default 4096).
	BlockSize int
	// QueueDepth is the number of concurrent in-flight I/Os (default 1).
	QueueDepth int
	// Runtime bounds the job in virtual time (default 60 virtual
	// seconds, like the paper's runs).
	Runtime sim.Duration
	// MaxIOs additionally caps the number of I/Os (0 = unlimited); use
	// it to bound wall-clock simulation cost.
	MaxIOs int
	// RangeBlocks restricts offsets to the first N device blocks
	// (0 = whole device).
	RangeBlocks uint64
	// Seed makes the job deterministic: it seeds each worker's offsets,
	// ops and write buffers, and the prefill's buffers. A buffer holds
	// the bytes math/rand's Read writes for the same draws, so what a job
	// stores, and any digest of it, does not depend on how the fill is
	// done.
	Seed int64
	// WarmupIOs are issued first and excluded from statistics.
	WarmupIOs int
	// Prefill writes the working range once before measuring, so reads
	// hit written blocks.
	Prefill bool
}

func (s JobSpec) withDefaults() JobSpec {
	if s.BlockSize == 0 {
		s.BlockSize = 4096
	}
	if s.QueueDepth == 0 {
		s.QueueDepth = 1
	}
	if s.Runtime == 0 {
		s.Runtime = 60 * sim.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Result accumulates a job's outcome.
type Result struct {
	Spec JobSpec
	// ReadLat and WriteLat hold per-I/O completion latencies in ns.
	ReadLat  *stats.Sample
	WriteLat *stats.Sample
	// IOs counts measured I/Os; Errors counts failures.
	IOs    int
	Errors int
	// Elapsed is the measured virtual duration.
	Elapsed sim.Duration
}

// IOPS returns measured I/Os per virtual second.
func (r *Result) IOPS() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.IOs) / (float64(r.Elapsed) / float64(sim.Second))
}

// Bandwidth returns bytes moved per virtual second.
func (r *Result) Bandwidth() float64 {
	return r.IOPS() * float64(r.Spec.BlockSize)
}

// String summarizes the result in a fio-like line.
func (r *Result) String() string {
	s := fmt.Sprintf("%s: ios=%d iops=%.0f bw=%.1fMB/s errors=%d",
		r.Spec.Name, r.IOs, r.IOPS(), r.Bandwidth()/1e6, r.Errors)
	if r.ReadLat.Count() > 0 {
		s += " read[" + r.ReadLat.Box().String() + "]"
	}
	if r.WriteLat.Count() > 0 {
		s += " write[" + r.WriteLat.Box().String() + "]"
	}
	return s
}

// Run executes the job against the block queue from the calling process,
// spawning QueueDepth worker processes, and returns aggregate results.
func Run(p *sim.Proc, q *block.Queue, spec JobSpec) (*Result, error) {
	spec = spec.withDefaults()
	dev := q.Device()
	bs := dev.BlockSize()
	if spec.BlockSize%bs != 0 {
		return nil, fmt.Errorf("%w: block size %d not a multiple of device blocks (%d)",
			ErrBadSpec, spec.BlockSize, bs)
	}
	nblk := spec.BlockSize / bs
	rangeBlocks := spec.RangeBlocks
	if rangeBlocks == 0 || rangeBlocks > dev.Blocks() {
		rangeBlocks = dev.Blocks()
	}
	if rangeBlocks < uint64(nblk) {
		return nil, fmt.Errorf("%w: range smaller than one I/O", ErrBadSpec)
	}
	slots := rangeBlocks / uint64(nblk)

	res := &Result{
		Spec:     spec,
		ReadLat:  stats.NewSample(spec.MaxIOs),
		WriteLat: stats.NewSample(spec.MaxIOs),
	}

	if spec.Prefill {
		if err := prefill(p, q, spec, slots); err != nil {
			return nil, err
		}
	}

	k := p.Kernel()
	deadline := p.Now() + spec.Runtime
	issued := 0
	warmLeft := spec.WarmupIOs
	start := p.Now()
	var done []*sim.Event
	for w := 0; w < spec.QueueDepth; w++ {
		src := &stream{seed: spec.Seed + int64(w)*7919}
		rng := rand.New(src)
		fin := sim.NewEvent(k)
		done = append(done, fin)
		k.Spawn(fmt.Sprintf("fio/%s/w%d", spec.Name, w), func(wp *sim.Proc) {
			defer fin.Trigger(nil)
			buf := make([]byte, spec.BlockSize)
			for {
				if wp.Now() >= deadline {
					return
				}
				if spec.MaxIOs > 0 && issued >= spec.MaxIOs+spec.WarmupIOs {
					return
				}
				issued++
				warm := false
				if warmLeft > 0 {
					warmLeft--
					warm = true
				}
				lba := uint64(rng.Int63n(int64(slots))) * uint64(nblk)
				op := block.OpRead
				switch spec.Op {
				case RandWrite:
					op = block.OpWrite
				case RandRW:
					if rng.Intn(100) >= readPct {
						op = block.OpWrite
					}
				}
				if op == block.OpWrite {
					src.fill(buf)
				}
				t0 := wp.Now()
				err := q.SubmitAndWait(wp, op, lba, nblk, buf)
				lat := wp.Now() - t0
				if warm {
					continue
				}
				if err != nil {
					res.Errors++
					continue
				}
				res.IOs++
				if op == block.OpRead {
					res.ReadLat.AddDuration(lat)
				} else {
					res.WriteLat.AddDuration(lat)
				}
			}
		})
	}
	for _, fin := range done {
		p.Wait(fin)
	}
	res.Elapsed = p.Now() - start
	return res, nil
}

// prefill sequentially writes the working range once (bounded by MaxIOs
// when set, so huge devices do not explode simulation cost).
func prefill(p *sim.Proc, q *block.Queue, spec JobSpec, slots uint64) error {
	n := slots
	if spec.MaxIOs > 0 && uint64(spec.MaxIOs) < n {
		n = uint64(spec.MaxIOs)
	}
	nblk := spec.BlockSize / q.Device().BlockSize()
	src := &stream{seed: spec.Seed ^ 0x5EED}
	buf := make([]byte, spec.BlockSize)
	for i := uint64(0); i < n; i++ {
		src.fill(buf)
		if err := q.SubmitAndWait(p, block.OpWrite, i*uint64(nblk), nblk, buf); err != nil {
			return err
		}
	}
	return nil
}
