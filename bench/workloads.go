package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// workload is one set of inputs the benchmark runs. Its sizes are in the
// runner's unit: measured IOs (fio workloads), IOs per host (multihost)
// or milliseconds of arrival horizon (QoS).
type workload struct {
	name string
	run  runner
	// full sizes a timed or profiled repetition, short a traced one and
	// the untraced repetitions it is compared with.
	full, short int
}

// Why each workload is here is recorded in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name: "remote-qd1-read",
		run: fioRunner{scenario: cluster.OursRemote, job: fio.JobSpec{
			Op: fio.RandRead, BlockSize: 4096, QueueDepth: 1, RangeBlocks: 1 << 16,
		}},
		full: 100_000, short: 20_000,
	},
	{
		name: "shared-8host-rw",
		run: multihostRunner{cfg: cluster.MultiHostConfig{
			Hosts: 8, QueueDepth: 8, Op: fio.RandRW,
		}},
		full: 4000, short: 1000,
	},
	{
		// QD1: at QD4 the NVMe-oF target's completion poller loses a
		// wakeup on some seeds (3 of seeds 1–120) and the run stalls. Its
		// poll loop waits on the CQ signal without first checking for a Set
		// during its CQ head doorbell write. At QD1 no completion can land
		// then: the next command is a whole round trip away.
		name: "nvmeof-write-64k",
		run: fioRunner{scenario: cluster.NVMeoFRemote, job: fio.JobSpec{
			Op: fio.RandWrite, BlockSize: 64 << 10, QueueDepth: 1, RangeBlocks: 1 << 16,
		}},
		full: 12_000, short: 2000,
	},
	{
		// 300 ms of arrivals gives the latency class about 12k requests,
		// so at least ten lie beyond its p99.9.
		name: "qos-noisy-open",
		run: qosRunner{cfg: cluster.QoSRunConfig{
			Scenario: cluster.QoSNoisyNeighbor, QoS: true, RateScale: 1,
		}},
		full: 300, short: 30,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runner drives one kind of workload through the repository's public
// entry points.
type runner interface {
	// setup times building the system and bringing it up, with no
	// measured load.
	setup(seed int64) (time.Duration, error)
	// rep runs one repetition of size n, timing its measured part in sec.
	rep(seed int64, n int, in instruments, sec *section) (repResult, error)
}

// instruments are the observers a repetition runs with; the zero value
// runs untraced and unwired.
type instruments struct {
	reg    *trace.Registry
	tracer *trace.Tracer
}

// section times the measured part of a repetition and, when profileHz
// is set, records a CPU profile at that rate and allocation totals over it.
type section struct {
	profileHz int
	t0        time.Time
	wall      time.Duration
	prof      bytes.Buffer
	m0, m1    runtime.MemStats
	err       error
}

func (s *section) begin() {
	if s.profileHz > 0 {
		runtime.ReadMemStats(&s.m0)
		// Ask for more samples than pprof's default 100 Hz; StartCPUProfile
		// then keeps this rate (and prints a note that it cannot set its own).
		runtime.SetCPUProfileRate(s.profileHz)
		s.err = pprof.StartCPUProfile(&s.prof)
	}
	s.t0 = time.Now()
}

func (s *section) end() {
	s.wall = time.Since(s.t0)
	if s.profileHz > 0 {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&s.m1)
	}
}

// virtual is a repetition's outcome in simulated time. It depends only
// on the seed and the size, so repetitions must agree on it exactly.
type virtual struct {
	IOs, Errors int
	ElapsedNs   int64
	MeanNs      float64
	P50Ns       float64
	P99Ns       float64
	P999Ns      float64
	// Shed and Dropped count QoS requests refused by admission control
	// or by a tenant's outstanding cap; Digest fingerprints the arrivals.
	Shed, Dropped uint64
	Digest        string
}

// kiops is completed IOs per virtual millisecond (thousands per second).
func (v virtual) kiops() float64 {
	if v.ElapsedNs == 0 {
		return 0
	}
	return float64(v.IOs) * 1e6 / float64(v.ElapsedNs)
}

type repResult struct {
	v                 virtual
	attempted, failed int
	// includesSetup marks a timed section that also builds and brings up
	// the system, because the entry point does both in one call.
	includesSetup bool
	// before and after are registry snapshots around the measured phase
	// (before is nil when the registry was created with the system).
	before, after []trace.MetricValue
}

// fioVirtual summarizes closed-loop fio results measured over elapsedNs,
// with latency percentiles over all their reads and writes together.
func fioVirtual(elapsedNs int64, results ...*fio.Result) virtual {
	n := 0
	for _, r := range results {
		n += r.ReadLat.Count() + r.WriteLat.Count()
	}
	lat := stats.NewSample(n)
	v := virtual{ElapsedNs: elapsedNs}
	for _, r := range results {
		v.IOs += r.IOs
		v.Errors += r.Errors
		for _, s := range []*stats.Sample{r.ReadLat, r.WriteLat} {
			// A Sample exposes its values only as percentiles. The rank-i
			// percentile is the i-th smallest value up to float rounding,
			// and latencies are whole nanoseconds, so rounding is exact.
			for i := 0; i < s.Count(); i++ {
				lat.Add(math.Round(s.Percentile(100 * float64(i) / float64(max(s.Count()-1, 1)))))
			}
		}
	}
	v.MeanNs, v.P50Ns, v.P99Ns, v.P999Ns = lat.Mean(), lat.Percentile(50), lat.Percentile(99), lat.Percentile(99.9)
	return v
}

// fioRunner runs a closed-loop fio job on one of the paper's scenarios
// (cluster.Build, cluster.RunWorkload, fio.Run).
type fioRunner struct {
	scenario cluster.Scenario
	job      fio.JobSpec
}

// warmupIOs (or n, when fewer) run before each measured phase of n IOs,
// outside it.
const warmupIOs = 1000

func (f fioRunner) config(seed int64, in instruments) cluster.ScenarioConfig {
	return cluster.ScenarioConfig{NVMe: cluster.NVMeConfig{Seed: seed}, Tracer: in.tracer}
}

// errStalled reports a run whose simulated processes all blocked before
// the workload finished: the kernel ran out of events and the entry point
// returned as if the run were done.
var errStalled = errors.New("the simulation stopped before the workload finished: every process blocked")

func (f fioRunner) setup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	var d time.Duration
	up := false
	err := cluster.RunWorkload(f.scenario, f.config(seed, instruments{}), func(*sim.Proc, *cluster.Env) error {
		d, up = time.Since(t0), true
		return nil
	})
	if err == nil && !up {
		err = errStalled
	}
	return d, err
}

// build times constructing the system alone (cluster.Build), which the
// other workloads' entry points do inside their one call.
func (f fioRunner) build(seed int64) (time.Duration, error) {
	t0 := time.Now()
	_, _, err := cluster.Build(f.scenario, f.config(seed, instruments{}))
	return time.Since(t0), err
}

func (f fioRunner) rep(seed int64, n int, in instruments, sec *section) (repResult, error) {
	var r repResult
	done := false
	err := cluster.RunWorkload(f.scenario, f.config(seed, in), func(p *sim.Proc, env *cluster.Env) error {
		job := f.job
		job.Name, job.MaxIOs, job.Seed = "warmup", min(warmupIOs, n), seed^0x5bd1e995
		if _, err := fio.Run(p, env.Queue, job); err != nil {
			return err
		}
		in.tracer.Reset()
		if in.reg != nil {
			env.WireMetrics(in.reg)
			r.before = in.reg.Snapshot()
		}
		job.Name, job.MaxIOs, job.Seed = "measured", n, seed
		sec.begin()
		res, err := fio.Run(p, env.Queue, job)
		sec.end()
		if err != nil {
			return err
		}
		if in.reg != nil {
			r.after = in.reg.Snapshot()
		}
		r.v = fioVirtual(int64(res.Elapsed), res)
		r.attempted, r.failed = res.IOs+res.Errors, res.Errors
		if r.attempted != n {
			return fmt.Errorf("fio ran %d of %d IOs", r.attempted, n)
		}
		if err := verifyData(p, env.Queue, seed, job.BlockSize); err != nil {
			return err
		}
		done = true
		return nil
	})
	if err == nil && !done {
		err = errStalled
	}
	return r, err
}

// verifyData writes seeded patterns to a few blocks through the
// workload's queue and reads them back: the data path must return what
// it stored.
func verifyData(p *sim.Proc, q *block.Queue, seed int64, size int) error {
	nblk := size / q.Device().BlockSize()
	rng := rand.New(rand.NewSource(seed))
	want, got := make([]byte, size), make([]byte, size)
	for i := 0; i < 8; i++ {
		lba := uint64(i) * 97 * uint64(nblk)
		rng.Read(want)
		if err := q.SubmitAndWait(p, block.OpWrite, lba, nblk, want); err != nil {
			return fmt.Errorf("verify write at lba %d: %w", lba, err)
		}
		if err := q.SubmitAndWait(p, block.OpRead, lba, nblk, got); err != nil {
			return fmt.Errorf("verify read at lba %d: %w", lba, err)
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("verify: lba %d read back different data", lba)
		}
	}
	return nil
}

// multihostRunner runs cluster.RunMultiHost: client hosts sharing one
// controller, each running fio.
type multihostRunner struct {
	cfg cluster.MultiHostConfig
}

func (m multihostRunner) config(seed int64, n int, in instruments) cluster.MultiHostConfig {
	c := m.cfg
	c.Seed, c.IOsPerHost, c.NVMe.Seed = seed, n, seed
	c.Registry, c.Tracer = in.reg, in.tracer
	return c
}

func (m multihostRunner) setup(seed int64) (time.Duration, error) {
	var sec section
	_, err := m.rep(seed, 1, instruments{}, &sec)
	return sec.wall, err
}

func (m multihostRunner) rep(seed int64, n int, in instruments, sec *section) (repResult, error) {
	sec.begin()
	res, err := cluster.RunMultiHost(m.config(seed, n, in))
	sec.end()
	if err != nil {
		return repResult{}, err
	}
	if len(res.PerHost) != m.cfg.Hosts {
		return repResult{}, fmt.Errorf("%d of %d hosts finished: %w", len(res.PerHost), m.cfg.Hosts, errStalled)
	}
	var all []*fio.Result
	for _, h := range res.PerHost {
		if h.Err != nil {
			return repResult{}, fmt.Errorf("host %d: %w", h.Host, h.Err)
		}
		if h.Res.IOs+h.Res.Errors != n {
			return repResult{}, fmt.Errorf("host %d ran %d of %d IOs", h.Host, h.Res.IOs+h.Res.Errors, n)
		}
		all = append(all, h.Res)
	}
	r := repResult{v: fioVirtual(int64(res.ElapsedNs), all...), includesSetup: true}
	r.attempted, r.failed = r.v.IOs+r.v.Errors, r.v.Errors
	if in.reg != nil {
		r.after = in.reg.Snapshot()
	}
	return r, nil
}

// qosRunner runs cluster.RunQoSScenario: open-loop tenant populations
// behind WRR arbitration and admission control.
type qosRunner struct {
	cfg cluster.QoSRunConfig
}

func (q qosRunner) config(seed int64, horizonNs int64, in instruments) cluster.QoSRunConfig {
	c := q.cfg
	c.Seed, c.DurationNs, c.NVMe.Seed = uint64(seed), horizonNs, seed
	c.Registry, c.Tracer = in.reg, in.tracer
	return c
}

// setup is wired like every repetition (see rep), so that what it times
// is what the repetitions subtract.
func (q qosRunner) setup(seed int64) (time.Duration, error) {
	t0 := time.Now()
	_, err := cluster.RunQoSScenario(q.config(seed, 1, instruments{reg: trace.NewRegistry()}))
	return time.Since(t0), err
}

// latencyHost is the client host of the latency-sensitive class, whose
// host.latency histogram is the workload's latency.
const latencyHost = 1

// rep always runs with a registry: the pooled host.latency histogram of
// the latency class is the only latency RunQoSScenario reports per class
// down to p99.9.
func (q qosRunner) rep(seed int64, n int, in instruments, sec *section) (repResult, error) {
	if in.reg == nil {
		in.reg = trace.NewRegistry()
	}
	sec.begin()
	res, err := cluster.RunQoSScenario(q.config(seed, int64(n)*int64(sim.Millisecond), in))
	sec.end()
	if err != nil {
		return repResult{}, err
	}
	if res.Timeouts+res.Retries+res.Quarantined > 0 {
		return repResult{}, fmt.Errorf("qos: %d timeouts, %d retries, %d quarantined slots",
			res.Timeouts, res.Retries, res.Quarantined)
	}
	r := repResult{includesSetup: true, after: in.reg.Snapshot()}
	r.v = virtual{ElapsedNs: res.ElapsedNs, Digest: res.ArrivalDigest}
	for _, c := range res.Classes {
		r.v.IOs += int(c.Completed)
		r.v.Errors += int(c.Failed)
		r.v.Shed += c.Shed
		r.v.Dropped += c.Dropped
		r.attempted += int(c.Issued + c.Dropped)
	}
	r.failed = r.v.Errors
	h := in.reg.Histogram("host.latency", trace.L("host", latencyHost)).Hist()
	if h.Count() == 0 {
		return r, errors.New("qos: no host.latency samples for the latency class")
	}
	r.v.MeanNs = h.Mean()
	r.v.P50Ns, r.v.P99Ns, r.v.P999Ns = interpolatedPercentile(h, 50), interpolatedPercentile(h, 99), interpolatedPercentile(h, 99.9)
	return r, nil
}

// histSubBits is the trace registry's histogram resolution: each octave of
// values is split into 1<<histSubBits buckets of equal width.
const histSubBits = 5

// interpolatedPercentile estimates the p-th percentile of h by linear
// interpolation over the ranks in the bucket that holds it. h.Percentile
// reports that bucket's midpoint, which moves in steps of the bucket's
// width (up to 3%), so a tail read that way mostly repeats from one seed
// to the next.
func interpolatedPercentile(h *stats.PowHistogram, p float64) float64 {
	n := h.Count()
	// at is the reported value of the k-th smallest observation.
	at := func(k uint64) float64 { return h.Percentile(100 * (float64(k) - 0.5) / float64(n)) }
	r := max(uint64(math.Ceil(p/100*float64(n))), 1)
	v := at(r)
	u := uint64(v)
	if u < 1<<histSubBits || v == float64(h.Max()) {
		// Small values are exact, and the top bucket's report is the
		// exact maximum.
		return v
	}
	width := uint64(1) << (bits.Len64(u) - 1 - histSubBits)
	lo := u &^ (width - 1)
	first := uint64(sort.Search(int(r), func(i int) bool { return at(uint64(i)+1) == v })) + 1
	last := r + uint64(sort.Search(int(n-r), func(i int) bool { return at(r+uint64(i)+1) != v }))
	return float64(lo) + float64(width)*(float64(r-first)+0.5)/float64(last-first+1)
}

// maxSustainPct bounds the QoS rate ladder.
const maxSustainPct = 400

// maxSustain returns the highest offered rate, in IOPS, at which the
// latency class meets its SLO: the rate scale climbs in 25% steps to the
// first failure, then bisects down to 5%.
func (q qosRunner) maxSustain(seed, horizonNs int64) (float64, error) {
	best, lo, hi := 0.0, 0, 0
	eval := func(pct int) error {
		c := q.config(seed, horizonNs, instruments{})
		c.RateScale = float64(pct) / 100
		res, err := cluster.RunQoSScenario(c)
		if err != nil {
			return err
		}
		if res.SLOMet {
			lo, best = pct, res.OfferedIOPS
		} else {
			hi = pct
		}
		return nil
	}
	for pct := 25; hi == 0 && pct <= maxSustainPct; pct += 25 {
		if err := eval(pct); err != nil {
			return 0, err
		}
	}
	for hi > 0 && hi-lo > 5 {
		mid := (lo + hi) / 2 / 5 * 5
		if mid <= lo {
			mid = lo + 5
		}
		if err := eval(mid); err != nil {
			return 0, err
		}
	}
	return best, nil
}
