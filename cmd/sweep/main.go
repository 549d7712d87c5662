// Command sweep runs the simulator's report modes: per-IO traces,
// telemetry dumps, fault, volume and QoS scenarios, bottleneck
// attribution, the causal what-if matrix, and the virtual-time baseline
// that -benchcmp gates. The paper's experiments (E1–E12) live in
// cmd/experiments; the simulator's wall-clock cost is measured by
// bench/run.sh.
//
// Usage:
//
//	sweep -baseline [-ios N] [-out BENCH_sim.json] [-digest PATH]
//	sweep -trace out.json [-scenario ours-remote] [-qd 4] [-op read|write] [-ios N]
//	sweep -telemetry out.json [-hosts N] [-qd D] [-ios N] [-interval NS]
//	sweep -faults [-seed N] [-hosts N] [-qd D] [-ios N] [-out FAULTS_sim.json]
//	sweep -volume [-seed N] [-workers N] [-qd D] [-ios N] [-out VOLUME_sim.json]
//	sweep -qos [-out QOS_sim.json] [-trace out.json]
//	sweep -serve 127.0.0.1:9120 [-linger] [-telemetry out.json]
//	sweep -bottleneck [-op read|write] [-qd D] [-ios N] [-out report.txt]
//	sweep -whatif [-qd D] [-ios N] [-out report.txt] [-maxerr PCT]
//	sweep -benchcmp [-tolerance F] old.json new.json
//
// The -baseline mode writes BENCH_sim.json: the event count and virtual
// duration of each Figure 9 scenario at QD1 and QD8, per-scenario stage
// breakdowns with bottleneck attribution, the what-if sensitivity
// matrix and the QoS rate search. Every field but generated_unix and
// cpus_online is a virtual-time fact. With -digest PATH it also writes
// those facts as a small text file that is byte-identical at any
// GOMAXPROCS, which CI compares across core counts.
//
// The -bottleneck mode runs every scenario traced, folds each IO's
// causal hops into per-resource blamed nanoseconds (service vs
// queueing, reconciling exactly with end-to-end latency), merges the
// measured occupancy utilizations, and prints one ranked bottleneck
// table per scenario. The report contains only virtual-time facts: the
// same invocation is byte-identical at any GOMAXPROCS, which CI
// verifies.
//
// The -whatif mode is the causal profiler: for every calibrated latency
// knob x scale factor x scenario it predicts the end-to-end delta from
// the baseline run's blame attribution, then EXECUTES the counterfactual
// (the same deterministic run with only that knob scaled) and reports
// predicted vs actual side by side with the prediction error, ranked by
// measured leverage. The report is byte-identical at any GOMAXPROCS; the
// exit code is nonzero if any service-time-only cell's prediction error
// exceeds the documented bound (-maxerr overrides it).
//
// The -benchcmp mode compares two BENCH_sim.json files on virtual-time
// facts (event counts, virtual durations, top bottlenecks, top levers,
// sensitivity actuals, QoS capacity) within -tolerance, exiting nonzero
// on regression.
//
// The -trace mode runs one scenario with per-IO tracing on and writes a
// Chrome trace-event JSON file (loadable at ui.perfetto.dev), plus a
// per-stage latency-breakdown table on stdout. The file is a pure
// function of the scenario and seed: the same invocation produces
// byte-identical output.
//
// The -telemetry mode runs the multihost fairness scenario (N clients
// sharing the single-function controller, plus one local-baseline host
// on the stock driver) with the virtual-time sampling pipeline attached
// and writes the pipeline's deterministic JSON dump. Add -serve to
// expose live /metrics (Prometheus text), /telemetry.json and /healthz
// while the run executes; -linger keeps serving afterwards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/whatif"
)

func main() {
	var (
		op        = flag.String("op", "read", "operation: read or write")
		ios       = flag.Int("ios", 400, "measured I/Os per run (per worker for -volume, default 150 there)")
		baseline  = flag.Bool("baseline", false, "run every scenario and write the virtual-time baseline JSON that -benchcmp gates")
		out       = flag.String("out", "BENCH_sim.json", "output path for -baseline; -faults, -volume and -qos default to FAULTS_sim.json, VOLUME_sim.json and QOS_sim.json, and -bottleneck and -whatif write a file only when it is set")
		traceOut  = flag.String("trace", "", "run one traced scenario and write Chrome trace-event JSON to this path")
		scenario  = flag.String("scenario", "ours-remote", "scenario for -trace")
		qd        = flag.Int("qd", 4, "queue depth for -trace")
		telOut    = flag.String("telemetry", "", "run the multihost fairness scenario with virtual-time sampling and write deterministic telemetry JSON to this path")
		faults    = flag.Bool("faults", false, "run the fault/recovery scenario (host crash, manager restart, fabric noise) and write a deterministic JSON report")
		volumeM   = flag.Bool("volume", false, "run the nexus-volume path-death scenario (mirrored writes over two controllers, link outage, reservation fence, integrity sweep) and write a deterministic JSON report")
		qosM      = flag.Bool("qos", false, "search the max sustainable open-loop arrival rate per QoS scenario, with and without WRR+admission control, and write a deterministic JSON report (combine with -trace for a Chrome trace with qos counter lanes)")
		workers   = flag.Int("workers", 4, "writer processes for -volume")
		seed      = flag.Int64("seed", 7, "scenario seed for -faults (drives workload and fault plan)")
		hosts     = flag.Int("hosts", 4, "client hosts for -telemetry")
		interval  = flag.Int64("interval", 100_000, "telemetry sampling interval in virtual ns")
		serve     = flag.String("serve", "", "serve live /metrics, /telemetry.json and /healthz on this address during -telemetry (e.g. 127.0.0.1:9120)")
		linger    = flag.Bool("linger", false, "with -serve, keep serving after the run completes until interrupted")
		digest    = flag.String("digest", "", "with -baseline, also write a deterministic virtual-time digest file to this path (byte-identical at any GOMAXPROCS)")
		bottleck  = flag.Bool("bottleneck", false, "run every scenario traced and print ranked per-resource bottleneck attribution (deterministic; -out writes the report text)")
		whatifM   = flag.Bool("whatif", false, "execute the counterfactual sensitivity matrix (every knob x factor x scenario) and print predicted-vs-actual deltas ranked by leverage (deterministic; -out writes the report text)")
		maxErr    = flag.Float64("maxerr", whatif.ServiceOnlyErrorBoundPct, "with -whatif, fail (exit 1) if a service-only cell's |prediction error| exceeds this percentage")
		benchcmp  = flag.Bool("benchcmp", false, "compare two BENCH_sim.json files (args: old.json new.json) on virtual-time facts; exit 1 on regression")
		tolerance = flag.Float64("tolerance", 0.05, "with -benchcmp, relative tolerance for numeric comparisons (0.05 = 5%)")
	)
	flag.Parse()
	if *ios < 1 {
		fmt.Fprintf(os.Stderr, "sweep: -ios must be at least 1 (got %d)\n", *ios)
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// outOr is -out when given on the command line, else the mode's own
	// default, so no mode overwrites another's file by accident.
	outOr := func(def string) string {
		if set["out"] {
			return *out
		}
		return def
	}
	fop := fio.RandRead
	if *op == "write" {
		fop = fio.RandWrite
	}
	switch {
	case *qosM:
		runQoS(outOr("QOS_sim.json"), *traceOut)
	case *traceOut != "":
		runTrace(*scenario, fop, *op, *qd, *ios, *traceOut)
	case *bottleck:
		runBottleneck(fop, *op, *qd, *ios, outOr(""))
	case *whatifM:
		runWhatif(*qd, *ios, outOr(""), *maxErr)
	case *benchcmp:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-benchcmp needs exactly two arguments: old.json new.json"))
		}
		runBenchcmp(flag.Arg(0), flag.Arg(1), *tolerance)
	case *faults:
		runFaults(*seed, *hosts, *qd, *ios, *interval, outOr("FAULTS_sim.json"))
	case *volumeM:
		vios := *ios
		if !set["ios"] {
			vios = 150 // the volume scenario's per-worker budget
		}
		runVolume(*seed, *workers, *qd, vios, *interval, outOr("VOLUME_sim.json"))
	case *telOut != "" || *serve != "":
		runTelemetry(*telOut, *hosts, *qd, *ios, *interval, *serve, *linger)
	case *baseline:
		runBaseline(fop, *ios, *interval, *out, *digest)
	default:
		fmt.Fprintln(os.Stderr, "sweep: choose a mode (-baseline, -trace, -telemetry, -faults, -volume, -qos, -bottleneck, -whatif or -benchcmp)")
		flag.Usage()
		os.Exit(2)
	}
}

// runTelemetry executes the multihost fairness scenario with the
// virtual-time sampling pipeline attached, optionally serving the live
// introspection endpoints during the run, and writes the pipeline's
// deterministic JSON dump. The file contains only virtual-time state:
// the same invocation produces byte-identical output, which CI checks.
func runTelemetry(out string, hosts, qd, ios int, intervalNs int64, serveAddr string, linger bool) {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: intervalNs})
	if serveAddr != "" {
		srv, err := telemetry.Serve(serveAddr, pipe)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics /telemetry.json /healthz on http://%s\n", srv.Addr())
	}
	res, err := cluster.RunMultiHost(cluster.MultiHostConfig{
		Hosts: hosts, QueueDepth: qd, IOsPerHost: ios, Seed: 7, Op: fio.RandRW,
		Registry: reg, Pipeline: pipe, LocalBaseline: true,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d hosts + local baseline: %d IOs in %.2f virtual ms (%.0f IOPS)\n\n",
		hosts, res.TotalIOs, float64(res.ElapsedNs)/1e6, res.AggIOPS())
	fmt.Print(res.Fairness.Table())
	if out != "" {
		data, err := pipe.MarshalJSON()
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s (%d samples, %d series)\n", out, pipe.Samples(), len(pipe.Series()))
	}
	if linger && serveAddr != "" {
		fmt.Fprintln(os.Stderr, "lingering; ctrl-C to exit")
		select {}
	}
}

// runTrace executes one scenario with tracing enabled and writes the
// Chrome trace-event file, validating it and printing the per-stage
// latency breakdown. Deterministic: no wall-clock data enters the file.
func runTrace(scenario string, op fio.Op, opName string, qd, ios int, out string) {
	s := cluster.Scenario(scenario)
	known := false
	for _, k := range cluster.Scenarios() {
		if k == s {
			known = true
		}
	}
	if !known {
		fatal(fmt.Errorf("-trace: unknown scenario %q", scenario))
	}
	tr := trace.New()
	spec := fio.JobSpec{
		Name: "trace", Op: op, QueueDepth: qd,
		MaxIOs: ios, WarmupIOs: 0, RangeBlocks: 1 << 16, Seed: 7,
	}
	res, st, err := cluster.RunJobStats(s, cluster.ScenarioConfig{Tracer: tr}, spec)
	if err != nil {
		fatal(err)
	}
	spans := tr.Spans()
	meta := map[string]string{
		"scenario":    string(s),
		"op":          opName,
		"queue_depth": fmt.Sprint(qd),
		"ios":         fmt.Sprint(res.IOs),
		"events":      fmt.Sprint(st.Events),
		"virtual_ns":  fmt.Sprint(int64(st.VirtualNs)),
	}
	f, err := os.Create(out)
	if err != nil {
		fatal(err)
	}
	// Counter tracks (per-queue and controller inflight) render as
	// Perfetto counter lanes alongside the span rows.
	if err := trace.WriteChromeWith(f, spans, meta, attr.CounterTracks(spans)); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		fatal(err)
	}
	events, err := trace.ValidateChrome(data)
	if err != nil {
		fatal(err)
	}
	bd := trace.ComputeBreakdown(spans)
	fmt.Printf("%s qd=%d: %d spans, %d trace events -> %s\n\n", s, qd, bd.Spans, events, out)
	fmt.Print(bd.Table())
	sum, e2e := bd.ReconcileNs()
	if sum != e2e {
		fatal(fmt.Errorf("stage sum %d ns != end-to-end %d ns", sum, e2e))
	}
	fmt.Printf("\nreconciled: stage sum == end-to-end == %d ns\n", e2e)
}

// benchRun is one scenario run in BENCH_sim.json.
type benchRun struct {
	Scenario   string `json:"scenario"`
	Op         string `json:"op"`
	QueueDepth int    `json:"queue_depth"`
	IOs        int    `json:"ios"`
	Events     uint64 `json:"events"`
	VirtualNs  int64  `json:"virtual_ns"`
}

// benchSchemaVersion stamps BENCH_sim.json so downstream tooling can
// detect layout changes. Bump when fields are added, removed or change
// meaning. v3: per-stage p50/p95/p999 in breakdowns, labeled metric
// rows, telemetry sampling-interval config echo. v4: per-run "cores",
// top-level "cpus_online", and the "scaling" curve over the sharded
// parallel kernel. v5: the deprecated top-level "gomaxprocs" (ambient
// GOMAXPROCS, superseded by per-run "cores") is removed, and each
// breakdown carries its ranked "bottlenecks" rows and "top_bottleneck"
// from the attribution engine. v6: the "sensitivity" section — one
// executed counterfactual matrix per scenario with per-cell
// predicted_ns/actual_ns/error_pct and the ranked "top_lever". v7: the
// "qos" section — per (scenario, qos-mode) max sustainable open-loop
// arrival rate before SLO violation, with the evaluated ladder points.
// v8: the "scaling" curve and the "sharded-scale" sensitivity entry are
// removed along with the parallel kernel they measured. v9: the per-run
// wall-clock fields "wall_ns", "events_per_sec", "ns_per_io" and
// "cores" are removed; bench/ measures wall time.
const benchSchemaVersion = 9

// sweepConfig echoes the scenario configuration a report was produced
// with, so a BENCH_sim.json is self-describing.
type sweepConfig struct {
	Op          string   `json:"op"`
	IOs         int      `json:"ios"`
	QueueDepths []int    `json:"queue_depths"`
	WarmupIOs   int      `json:"warmup_ios"`
	RangeBlocks int      `json:"range_blocks"`
	Seed        int64    `json:"seed"`
	Scenarios   []string `json:"scenarios"`
	// TelemetryIntervalNs echoes the virtual-time sampling interval the
	// telemetry pipeline would use (-interval), so consumers of the
	// metric rows know the cadence they were produced under.
	TelemetryIntervalNs int64 `json:"telemetry_interval_ns"`
}

// scenarioBreakdown is one scenario's per-stage latency decomposition
// and metrics snapshot from a short traced run.
type scenarioBreakdown struct {
	Scenario   string              `json:"scenario"`
	QueueDepth int                 `json:"queue_depth"`
	Breakdown  trace.Breakdown     `json:"breakdown"`
	Metrics    []trace.MetricValue `json:"metrics"`
	// TopBottleneck and Bottlenecks are the ranked per-resource blame
	// attribution of the same traced run (v5).
	TopBottleneck string     `json:"top_bottleneck"`
	Bottlenecks   []attr.Row `json:"bottlenecks"`
}

type benchReport struct {
	SchemaVersion int   `json:"schema_version"`
	GeneratedUnix int64 `json:"generated_unix"`
	// CPUsOnline is runtime.NumCPU() — the physical parallelism actually
	// available.
	CPUsOnline int                 `json:"cpus_online"`
	Config     sweepConfig         `json:"config"`
	Runs       []benchRun          `json:"runs"`
	Breakdowns []scenarioBreakdown `json:"breakdowns"`
	// Sensitivity is the executed counterfactual matrix per scenario (v6):
	// every knob x factor run for real, with the blame-predicted delta and
	// its error alongside, and the measured top lever.
	Sensitivity []sensitivityEntry `json:"sensitivity"`
	// QoS is the max-sustainable-rate search per scenario and mode (v7) —
	// the same entries `sweep -qos` writes standalone.
	QoS []qosEntry `json:"qos"`
}

// sensitivityEntry is one scenario's sensitivity matrix in the report.
type sensitivityEntry = *whatif.Report

// runBaseline runs every scenario at QD1 and QD8 and writes the JSON
// report (plus, optionally, the deterministic digest file CI
// byte-compares across core counts).
func runBaseline(op fio.Op, ios int, telemetryIntervalNs int64, out, digestOut string) {
	opName := "read"
	if op == fio.RandWrite {
		opName = "write"
	}
	var names []string
	for _, s := range cluster.Scenarios() {
		names = append(names, string(s))
	}
	rep := benchReport{
		SchemaVersion: benchSchemaVersion,
		GeneratedUnix: time.Now().Unix(),
		CPUsOnline:    runtime.NumCPU(),
		Config: sweepConfig{
			Op: opName, IOs: ios, QueueDepths: []int{1, 8},
			WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
			Scenarios:           names,
			TelemetryIntervalNs: telemetryIntervalNs,
		},
	}
	for _, s := range cluster.Scenarios() {
		for _, qd := range []int{1, 8} {
			_, st, err := cluster.RunJobStats(s, cluster.ScenarioConfig{}, fio.JobSpec{
				Name: "baseline", Op: op, QueueDepth: qd,
				MaxIOs: ios, WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
			})
			if err != nil {
				fatal(err)
			}
			run := benchRun{
				Scenario:   string(s),
				Op:         opName,
				QueueDepth: qd,
				IOs:        ios,
				Events:     st.Events,
				VirtualNs:  st.VirtualNs,
			}
			rep.Runs = append(rep.Runs, run)
			fmt.Printf("%-14s qd=%d  %9d events  %12d virtual ns\n",
				s, qd, run.Events, run.VirtualNs)
		}
	}
	// A short traced run per scenario yields the latency-breakdown table
	// and a cluster metrics snapshot; virtual-time results are unaffected
	// by tracing, so these describe the same system as the runs above.
	bdIOs := ios
	if bdIOs > 200 {
		bdIOs = 200
	}
	for _, s := range cluster.Scenarios() {
		bd, err := tracedBreakdown(s, op, 8, bdIOs)
		if err != nil {
			fatal(err)
		}
		rep.Breakdowns = append(rep.Breakdowns, bd)
	}
	// The executed sensitivity matrix (v6). Read-only workload at the
	// whatif engine's standard sizes; every cell is a real run.
	rep.Sensitivity = runWhatifMatrix(4, bdIOs)
	for _, se := range rep.Sensitivity {
		fmt.Printf("whatif %-14s baseline %8.1f ns/IO  top lever %s\n",
			se.Scenario, se.BaselineNs, se.TopLever)
	}
	// The QoS rate search (v7): max sustainable open-loop arrival rate
	// per scenario, with and without WRR+admission control.
	rep.QoS = qosSearch(false)
	for _, e := range rep.QoS {
		fmt.Printf("qos %-17s %-6s max sustainable %4d%% = %8.0f IOPS\n",
			e.Scenario, qosModeName(e.QoS), e.MaxSustainPct, e.MaxSustainIOPS)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", out)
	if digestOut != "" {
		if err := os.WriteFile(digestOut, []byte(digestText(&rep)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", digestOut)
	}
}

// digestText renders the virtual-time facts of a report — and nothing
// wall-clock dependent — as a stable text file. Two sweeps of the same
// binary and flags produce byte-identical digests regardless of
// GOMAXPROCS or machine speed; CI compares the files across core counts.
func digestText(rep *benchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %d\n", rep.SchemaVersion)
	for _, r := range rep.Runs {
		fmt.Fprintf(&b, "run %s op=%s qd=%d ios=%d events=%d virtual_ns=%d\n",
			r.Scenario, r.Op, r.QueueDepth, r.IOs, r.Events, r.VirtualNs)
	}
	for _, bd := range rep.Breakdowns {
		sum, e2e := bd.Breakdown.ReconcileNs()
		fmt.Fprintf(&b, "breakdown %s qd=%d stage_sum_ns=%d e2e_ns=%d\n",
			bd.Scenario, bd.QueueDepth, sum, e2e)
		fmt.Fprintf(&b, "bottleneck %s qd=%d top=%s", bd.Scenario, bd.QueueDepth, bd.TopBottleneck)
		for _, row := range bd.Bottlenecks {
			fmt.Fprintf(&b, " %s=%.1f", row.Resource, row.BlamedNsIO)
		}
		fmt.Fprintf(&b, "\n")
	}
	for _, se := range rep.Sensitivity {
		fmt.Fprintf(&b, "whatif %s baseline_ns=%.1f top_lever=%s\n",
			se.Scenario, se.BaselineNs, se.TopLever)
		for _, c := range se.Cells {
			fmt.Fprintf(&b, "whatif-cell %s %s x%.2f predicted_ns=%.1f actual_ns=%.1f err_pct=%.2f\n",
				se.Scenario, c.Knob, c.Factor, c.PredictedNs, c.ActualNs, c.ErrorPct)
		}
	}
	for _, e := range rep.QoS {
		fmt.Fprintf(&b, "qos %s mode=%s max_pct=%d max_iops=%.0f digest=%s\n",
			e.Scenario, qosModeName(e.QoS), e.MaxSustainPct, e.MaxSustainIOPS, e.ArrivalDigest)
		for _, pt := range e.Points {
			fmt.Fprintf(&b, "qos-point %s mode=%s pct=%d offered=%.0f slo_met=%v viol=%d windows=%d sheds=%d\n",
				e.Scenario, qosModeName(e.QoS), pt.RateScalePct, pt.OfferedIOPS,
				pt.SLOMet, pt.Violations, pt.Windows, pt.ClientSheds)
		}
	}
	return b.String()
}

// tracedBreakdown runs scenario s once with tracing and a wired metrics
// registry, returning its stage decomposition, metrics snapshot and
// ranked bottleneck attribution.
func tracedBreakdown(s cluster.Scenario, op fio.Op, qd, ios int) (scenarioBreakdown, error) {
	tr := trace.New()
	reg := trace.NewRegistry()
	spec := fio.JobSpec{
		Name: "breakdown", Op: op, QueueDepth: qd,
		MaxIOs: ios, WarmupIOs: 0, RangeBlocks: 1 << 16, Seed: 7,
	}
	var utils map[string]float64
	err := cluster.RunWorkload(s, cluster.ScenarioConfig{Tracer: tr}, func(p *sim.Proc, env *cluster.Env) error {
		env.WireMetrics(reg)
		uw := env.StartUtilWindow()
		if _, err := fio.Run(p, env.Queue, spec); err != nil {
			return err
		}
		utils = env.ResourceUtils(uw)
		return nil
	})
	if err != nil {
		return scenarioBreakdown{}, err
	}
	bs := attr.NewBlameSet()
	bs.AddSpans(tr.Spans())
	if bs.ResidualNs != 0 {
		return scenarioBreakdown{}, fmt.Errorf("%s: blame residual %d ns != 0", s, bs.ResidualNs)
	}
	rep := attr.BuildReport(string(s), bs, utils)
	return scenarioBreakdown{
		Scenario:      string(s),
		QueueDepth:    qd,
		Breakdown:     trace.ComputeBreakdown(tr.Spans()),
		Metrics:       reg.Snapshot(),
		TopBottleneck: rep.Top(),
		Bottlenecks:   rep.Rows,
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
