package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/attr"
	"repro/internal/trace"
)

// plan fixes how much a run measures. The benchmark uses fullPlan; tests
// use a smaller one.
type plan struct {
	// budget is how long the timed repetitions keep starting; at least
	// minReps run (in a per-layer run, minReps plain and at least minReps
	// profiled ones).
	budget  time.Duration
	minReps int
	// setupReps is the number of setup-only repetitions behind setup_s
	// and setup_s.build.
	setupReps int
	// pairs is the number of untraced/traced repetition pairs behind
	// trace.overhead_frac.
	pairs int
	// pingpongs is the number of round trips in one host speed
	// calibration.
	pingpongs int
	// profileHz is the requested CPU profile sampling rate. Profiled
	// repetitions repeat until they hold minSamples samples, at most
	// maxProfileReps times.
	profileHz      int
	minSamples     int
	maxProfileReps int
	// ladderNs is the arrival horizon of each QoS rate-ladder step.
	ladderNs int64
	// size scales workload.full and workload.short (1 for the benchmark).
	size float64
}

func fullPlan(seconds int) plan {
	return plan{
		budget: time.Duration(seconds) * time.Second, minReps: 3,
		setupReps: 21, pairs: 3, pingpongs: 20_000,
		profileHz: 1000, minSamples: 2000, maxProfileReps: 8,
		ladderNs: 20_000_000, size: 1,
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type measurement struct {
	result
	// reps is the number of timed repetitions (or plain/profiled pairs).
	reps int
	// problems lists failed correctness checks.
	problems []string
}

func (m *measurement) set(name string, v float64, unit string) {
	m.Metrics[name] = metric{Value: v, Unit: unit}
}

func (m *measurement) check(ok bool, format string, args ...any) {
	if !ok {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) count(r repResult) {
	m.Attempted += r.attempted
	m.Failed += r.failed
	m.check(r.failed == 0, "%d of %d operations failed", r.failed, r.attempted)
}

// cold returns freed memory to the OS so that the next repetition pays
// for fresh pages, as a new simulation does.
func cold() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func (p plan) scaled(n int) int { return max(int(float64(n)*p.size), 1) }

// pingpongNs calibrates the host: the median time, over five rounds, of
// one round trip of a value between two goroutines on unbuffered
// channels. That handoff is how the simulation kernel switches from one
// simulated process to the next, and on a shared machine its cost rises
// and falls with the simulator's as neighbours load the CPU.
func pingpongNs(n int) float64 {
	var ts []float64
	for round := 0; round < 5; round++ {
		ping, pong := make(chan struct{}), make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range ping {
				pong <- struct{}{}
			}
		}()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			ping <- struct{}{}
			<-pong
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/float64(n))
		close(ping)
		<-done
	}
	return median(ts)
}

// cost is a repetition's host time per IO: in microseconds, and in
// ping-pong round trips measured just before and after it.
type cost struct {
	us, pingpongs, pingpongNs float64
}

// timedRep runs one repetition from a cold start, between two host
// calibrations of the given number of round trips unless that is 0.
// setupS is subtracted from sections that include setup.
func timedRep(w workload, seed int64, n, pingpongs int, in instruments, sec *section, setupS float64) (repResult, cost, error) {
	cold()
	var before float64
	if pingpongs > 0 {
		before = pingpongNs(pingpongs)
	}
	r, err := w.run.rep(seed, n, in, sec)
	if err != nil {
		return r, cost{}, err
	}
	wall := sec.wall.Seconds()
	if r.includesSetup {
		wall -= setupS
	}
	c := cost{us: wall * 1e6 / float64(max(r.v.IOs, 1))}
	if pingpongs > 0 {
		c.pingpongNs = (before + pingpongNs(pingpongs)) / 2
		c.pingpongs = c.us * 1e3 / c.pingpongNs
	}
	return r, c, nil
}

// measure runs workload w once: end-to-end metrics untraced, or with
// traced set the per-layer metrics.
func measure(w workload, seed int64, p plan, traced bool) (*measurement, error) {
	m := &measurement{result: result{Metrics: map[string]metric{}}}
	var err error
	if traced {
		err = measureLayers(m, w, seed, p)
	} else {
		err = measureEndToEnd(m, w, seed, p)
	}
	if err != nil {
		return nil, err
	}
	m.check(m.Attempted > 0, "no operation was attempted")
	m.Correct = len(m.problems) == 0
	return m, nil
}

// measureEndToEnd times setup-only repetitions, then untraced, unwired
// repetitions until the budget is spent.
func measureEndToEnd(m *measurement, w workload, seed int64, p plan) error {
	start := time.Now()
	var setup []float64
	for i := 0; i < p.setupReps; i++ {
		cold()
		d, err := w.run.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, d.Seconds())
	}
	setupS := median(setup)

	heap := startHeapSampler()
	var pps []float64
	var v0 virtual
	for time.Since(start) < p.budget || len(pps) < p.minReps {
		var sec section
		r, c, err := timedRep(w, seed, p.scaled(w.full), p.pingpongs, instruments{}, &sec, setupS)
		if err != nil {
			heap.stop()
			return err
		}
		m.count(r)
		pps = append(pps, c.pingpongs)
		if len(pps) == 1 {
			v0 = r.v
		}
		m.check(r.v == v0, "repetition %d differs in virtual time: %+v, first %+v", len(pps), r.v, v0)
	}
	peak := heap.stop()
	m.reps = len(pps)

	m.set("wall_pingpongs_per_io", median(pps), "pingpong")
	m.set("setup_s", setupS, "s")
	m.set("peak_heap_mb", peak/(1<<20), "MiB")
	m.set("v_mean_us", v0.MeanNs/1e3, "us")
	m.set("v_p999_us", v0.P999Ns/1e3, "us")
	m.set("v_kiops", v0.kiops(), "kIOPS")
	return nil
}

// measureLayers reports the per-layer metrics: profiled, traced, the
// build split and the QoS rate ladder.
func measureLayers(m *measurement, w workload, seed int64, p plan) error {
	if err := profileReps(m, w, seed, p); err != nil {
		return err
	}
	if err := tracedReps(m, w, seed, p); err != nil {
		return err
	}

	var builds []float64
	if f, ok := w.run.(fioRunner); ok {
		for i := 0; i < p.setupReps; i++ {
			cold()
			d, err := f.build(seed)
			if err != nil {
				return fmt.Errorf("build: %w", err)
			}
			builds = append(builds, d.Seconds())
		}
	}
	m.set("setup_s.build", median(builds), "s")

	sustain := 0.0
	if q, ok := w.run.(qosRunner); ok {
		iops, err := q.maxSustain(seed, p.ladderNs)
		if err != nil {
			return fmt.Errorf("rate ladder: %w", err)
		}
		sustain = iops / 1e3
	}
	m.set("qos.max_sustain_kiops", sustain, "kIOPS")
	return nil
}

// profileReps alternates full-size plain repetitions with ones that run
// under a CPU profile and a wired registry. The plain ones stop after
// p.minReps; the profiled ones go on until the profiles hold p.minSamples
// samples. It reports the wall time split by layer, allocation, and the
// layers' own counts per IO.
func profileReps(m *measurement, w workload, seed int64, p plan) error {
	n := p.scaled(w.full)
	var f folded
	var ios, allocBytes, allocs, gcs float64
	var us, ppNs, profUs []float64
	var plain virtual
	for i := 0; i < p.maxProfileReps && (i < p.minReps || f.total < int64(p.minSamples)); i++ {
		if i < p.minReps {
			var sec section
			r, c, err := timedRep(w, seed, n, p.pingpongs, instruments{}, &sec, 0)
			if err != nil {
				return err
			}
			m.count(r)
			if i == 0 {
				plain = r.v
			}
			m.check(r.v == plain, "repetition %d differs in virtual time: %+v, first %+v", i+1, r.v, plain)
			us, ppNs = append(us, c.us), append(ppNs, c.pingpongNs)
		}

		psec := section{profileHz: p.profileHz}
		pr, pc, err := timedRep(w, seed, n, 0, instruments{reg: trace.NewRegistry()}, &psec, 0)
		if err != nil {
			return fmt.Errorf("profiled repetition: %w", err)
		}
		if psec.err != nil {
			return fmt.Errorf("cpu profile: %w", psec.err)
		}
		m.count(pr)
		m.check(pr.v == plain, "profiled repetition differs in virtual time: %+v, plain %+v", pr.v, plain)
		profUs = append(profUs, pc.us)
		prof, err := parseProfile(psec.prof.Bytes())
		if err != nil {
			return err
		}
		f.add(prof)
		ios += float64(pr.v.IOs)
		allocBytes += float64(psec.m1.TotalAlloc - psec.m0.TotalAlloc)
		allocs += float64(psec.m1.Mallocs - psec.m0.Mallocs)
		gcs += float64(psec.m1.NumGC - psec.m0.NumGC)
		if i == 0 {
			// Counts are in virtual time: every repetition repeats them.
			layerCounts(m, deltas(pr.before, pr.after), pr.after, float64(pr.v.IOs), float64(pr.v.ElapsedNs))
		}
	}
	m.reps = len(us)
	m.set("wall_us_per_io", median(us), "us")
	m.set("host.pingpong_ns", median(ppNs), "ns")
	m.set("v_p50_us", plain.P50Ns/1e3, "us")
	m.set("v_p99_us", plain.P99Ns/1e3, "us")

	// The profile gives each layer's share; the plain repetitions give the
	// total, because turning the profiler on costs time of its own
	// (profile.overhead_frac). The layers then add up to wall_us_per_io.
	for _, l := range layers {
		m.set("wall_us_per_io."+l, median(us)*f.share(f.layer[l]), "us")
	}
	m.set("wall_share.handoff", f.share(f.handoff), "ratio")
	m.set("wall_share.malloc", f.share(f.malloc), "ratio")
	m.set("wall_share.copy", f.share(f.copy), "ratio")
	m.set("profile.samples", float64(f.total), "count")
	// Plain and profiled repetitions alternate seconds apart, so the
	// host's speed drifts less between them than a ping-pong calibration
	// varies: raw wall times compare best.
	m.set("profile.overhead_frac", median(profUs)/median(us)-1, "ratio")
	m.set("go.alloc_bytes_per_io", allocBytes/ios, "B")
	m.set("go.allocs_per_io", allocs/ios, "count")
	m.set("go.gc_per_kio", gcs*1e3/ios, "count")
	return nil
}

// tracedReps alternates short untraced and traced repetitions: the pairs
// give the tracing overhead, and the last traced one the virtual-time
// split by stage and by resource.
func tracedReps(m *measurement, w workload, seed int64, p plan) error {
	var overhead []float64
	var spans []*trace.Span
	var plain virtual
	for i := 0; i < p.pairs; i++ {
		var c [2]cost
		for j, tr := range []*trace.Tracer{nil, trace.New()} {
			var sec section
			r, rc, err := timedRep(w, seed, p.scaled(w.short), 0, instruments{tracer: tr}, &sec, 0)
			if err != nil {
				return fmt.Errorf("traced repetition: %w", err)
			}
			m.count(r)
			c[j] = rc
			if i == 0 && tr == nil {
				plain = r.v
			}
			m.check(r.v == plain, "traced=%v repetition differs in virtual time: %+v, untraced %+v", tr != nil, r.v, plain)
			if tr != nil {
				spans = tr.Spans()
			}
		}
		overhead = append(overhead, c[1].us/c[0].us-1)
	}
	m.set("trace.overhead_frac", median(overhead), "ratio")

	bd := trace.ComputeBreakdown(spans)
	sum, e2e := bd.ReconcileNs()
	m.check(sum == e2e, "trace stages sum to %d ns, end to end is %d ns", sum, e2e)
	perSpan := float64(max(bd.Spans, 1))
	stageNs := map[string]int64{}
	for _, st := range append(bd.Stages, bd.SubStages...) {
		stageNs[st.Stage] = st.TotalNs
	}
	for st := trace.StageSubmit; st <= trace.StageCQPoll; st++ {
		m.set("v_stage_ns."+st.String(), float64(stageNs[st.String()])/perSpan, "ns")
	}

	bs := attr.NewBlameSet()
	bs.AddSpans(spans)
	m.check(bs.ResidualNs == 0, "blame residual is %d ns", bs.ResidualNs)
	for _, res := range resources {
		b := bs.ResourceBlame(res)
		m.set("v_service_ns."+res, float64(b.ServiceNs)/perSpan, "ns")
		m.set("v_queue_ns."+res, float64(b.QueueNs)/perSpan, "ns")
	}
	return nil
}

// resources are the attr resources blamed for virtual time.
var resources = []string{
	attr.ResHostCPU, attr.ResHostData, attr.ResNVMeSQ, attr.ResNVMeCtrl,
	attr.ResNVMeMedium, attr.ResNVMeCQ, attr.ResFabricLink, attr.ResDevice,
}

// deltas returns after − before for each metric (name and labels);
// before may be nil.
func deltas(before, after []trace.MetricValue) []trace.MetricValue {
	prev := map[string]float64{}
	for _, mv := range before {
		prev[mv.FullName()] = mv.Value
	}
	out := make([]trace.MetricValue, len(after))
	for i, mv := range after {
		mv.Value -= prev[mv.FullName()]
		out[i] = mv
	}
	return out
}

// total sums a metric over its label sets.
func total(vals []trace.MetricValue, name string) float64 {
	s := 0.0
	for _, mv := range vals {
		if mv.Name == name {
			s += mv.Value
		}
	}
	return s
}

// largest is a metric's largest value over its label sets.
func largest(vals []trace.MetricValue, name string) float64 {
	s := 0.0
	for _, mv := range vals {
		if mv.Name == name {
			s = max(s, mv.Value)
		}
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCounts reports the layers' registry counters: d holds their
// changes over the measured phase, after their final values.
func layerCounts(m *measurement, d, after []trace.MetricValue, ios, elapsedNs float64) {
	perIO := func(name string, names ...string) {
		s := 0.0
		for _, n := range names {
			s += total(d, n)
		}
		m.set(name, ratio(s, ios), "count")
	}
	perIO("sim.events_per_io", "sim.events_executed")
	m.set("sim.pool_misses", total(d, "sim.pool_misses"), "count")
	perIO("pcie.tlps_per_io", "pcie.posted_writes", "pcie.mmio_writes", "pcie.reads")
	m.set("pcie.bytes_per_io", ratio(total(d, "pcie.bytes_written")+total(d, "pcie.bytes_read"), ios), "B")
	perIO("pcie.crossings_per_io", "pcie.crossings")
	perIO("ntb.translations_per_io", "ntb.translations")
	perIO("nvme.fetches_per_io", "nvme.ctrl.fetches")
	perIO("nvme.sq_doorbells_per_io", "nvme.ctrl.sq_doorbell_writes")
	perIO("nvme.cq_doorbells_per_io", "nvme.ctrl.cq_doorbell_writes")
	perIO("nvme.interrupts_per_io", "nvme.ctrl.interrupts")
	m.set("nvme.max_inflight", largest(after, "attr.ctrl.max_inflight"), "count")
	perIO("core.polls_per_io", "core.client.polls")
	m.set("core.bounce_bytes_per_io", ratio(total(d, "core.client.bounce_bytes"), ios), "B")
	saved := total(d, "core.client.sq_doorbells_saved")
	m.set("core.sq_doorbells_saved_frac", ratio(saved, saved+total(d, "core.client.sq_doorbells")), "ratio")
	saved = total(d, "core.client.cq_rings_saved")
	m.set("core.cq_rings_saved_frac", ratio(saved, saved+total(d, "core.client.cq_doorbells")), "ratio")
	perIO("nvmeof.target_polls_per_io", "nvmeof.target.polls")
	m.set("nvmeof.staged_bytes_per_io", ratio(total(d, "nvmeof.target.staged_bytes"), ios), "B")

	issued, dropped := total(d, "arrival.issued"), total(d, "arrival.dropped")
	m.set("qos.shed_frac", ratio(total(d, "arrival.shed"), issued), "ratio")
	m.set("qos.violation_frac", ratio(total(d, "qos.violations"), total(d, "qos.windows")), "ratio")
	m.set("qos.throttles", total(d, "qos.throttles"), "count")
	m.set("arrival.drop_frac", ratio(dropped, issued+dropped), "ratio")
	fetched := total(d, "nvme.arb.urgent_fetched") + total(d, "nvme.arb.high_fetched") +
		total(d, "nvme.arb.medium_fetched") + total(d, "nvme.arb.low_fetched")
	m.set("nvme.arb.high_share", ratio(total(d, "nvme.arb.high_fetched"), fetched), "ratio")

	m.set("util.nvme.ctrl", ratio(total(d, "attr.ctrl.busy_ns"), elapsedNs), "ratio")
	m.set("util.nvme.sq", ratio(largest(d, "attr.queue.sq_busy_ns"), elapsedNs), "ratio")
	m.set("util.nvme.cq", ratio(largest(d, "attr.queue.cq_busy_ns"), elapsedNs), "ratio")
	m.set("util.fabric.link", ratio(total(d, "attr.link.busy_ns"), elapsedNs), "ratio")
}

// heapSampler records the largest live heap seen while it runs.
type heapSampler struct {
	quit chan struct{}
	peak chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				h.peak <- float64(peak)
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.quit)
	return <-h.peak
}
