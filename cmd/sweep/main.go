// Command sweep runs the simulator's report modes: per-IO traces,
// telemetry dumps, fault, volume and QoS scenarios, bottleneck
// attribution, the causal what-if matrix, and the virtual-time baseline
// BENCH_sim.json. The paper's experiments (E1–E14) live in
// cmd/experiments; the simulator's wall-clock cost is measured by
// bench/run.sh.
//
// Usage:
//
//	sweep -baseline [-ios N] [-out BENCH_sim.json]
//	sweep -trace out.json [-scenario ours-remote] [-qd 4] [-op read|write] [-ios N]
//	sweep -telemetry out.json [-hosts N] [-qd D] [-ios N] [-interval NS]
//	sweep -faults [-seed N] [-hosts N] [-qd D] [-ios N] [-out FAULTS_sim.json]
//	sweep -volume [-seed N] [-workers N] [-qd D] [-ios N] [-out VOLUME_sim.json]
//	sweep -qos [-out QOS_sim.json] [-trace out.json]
//	sweep -serve 127.0.0.1:9120 [-linger] [-telemetry out.json]
//	sweep -bottleneck [-op read|write] [-qd D] [-ios N] [-out report.txt]
//	sweep -whatif [-qd D] [-ios N] [-out report.txt]
//
// Every file a mode writes holds virtual-time facts only, so the same
// invocation writes the same bytes on any machine and at any
// GOMAXPROCS. TestGolden runs each mode at fixed flags and pins the file
// it writes (BENCH_sim.json in the repository root, the rest under
// testdata/), failing on any byte that moves. After a change that means
// to move the model, regenerate them with
//
//	GOMAXPROCS=1 go test ./cmd/sweep ./cmd/experiments -run Golden -update
//
// The -baseline mode writes BENCH_sim.json: the event count and virtual
// duration of each Figure 9 scenario at QD1 and QD8, and per-scenario
// stage breakdowns with bottleneck attribution.
//
// The -bottleneck mode runs every scenario traced, folds each IO's
// causal hops into per-resource blamed nanoseconds (service vs
// queueing, reconciling exactly with end-to-end latency), merges the
// measured occupancy utilizations, and prints one ranked bottleneck
// table per scenario. It fails on any nonzero blame residual.
//
// The -whatif mode is the causal profiler: for every calibrated latency
// knob x scale factor x scenario it predicts the end-to-end delta from
// the baseline run's blame attribution, then EXECUTES the counterfactual
// (the same deterministic run with only that knob scaled) and reports
// predicted vs actual side by side with the prediction error, ranked by
// measured leverage. It fails if any service-time-only cell's
// prediction error exceeds whatif.ServiceOnlyErrorBoundPct.
//
// The -trace mode runs one scenario with per-IO tracing on and writes a
// Chrome trace-event JSON file (loadable at ui.perfetto.dev), plus a
// per-stage latency-breakdown table on stdout. It fails if the file
// breaks the trace-event schema or the stages do not sum to end-to-end
// latency.
//
// The -telemetry mode runs the multihost fairness scenario (N clients
// sharing the single-function controller, plus one local-baseline host
// on the stock driver) with the virtual-time sampling pipeline attached
// and writes the pipeline's deterministic JSON dump. Add -serve to
// expose live /metrics (Prometheus text), /telemetry.json and /healthz
// while the run executes; -linger keeps serving afterwards.
//
// The -faults, -volume and -qos modes run the fault/recovery, nexus
// path-death and open-loop QoS scenarios and write JSON reports; -volume
// fails on a lost write or an unfenced stale writer, and -qos -trace
// checks its Chrome file against the trace-event schema as -trace does.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/fio"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// errUsage marks a bad command line, on which main exits 2 as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and runs the chosen mode, printing its report to
// stdout. Every check a mode makes fails it with an error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	var (
		op       = fs.String("op", "read", "operation: read or write")
		ios      = fs.Int("ios", 400, "measured I/Os per run (per worker for -volume, default 150 there)")
		baseline = fs.Bool("baseline", false, "run every scenario and write the virtual-time baseline JSON")
		out      = fs.String("out", "BENCH_sim.json", "output path for -baseline; -faults, -volume and -qos default to FAULTS_sim.json, VOLUME_sim.json and QOS_sim.json, and -bottleneck and -whatif write a file only when it is set")
		traceOut = fs.String("trace", "", "run one traced scenario and write Chrome trace-event JSON to this path")
		scenario = fs.String("scenario", "ours-remote", "scenario for -trace")
		qd       = fs.Int("qd", 4, "queue depth for -trace")
		telOut   = fs.String("telemetry", "", "run the multihost fairness scenario with virtual-time sampling and write deterministic telemetry JSON to this path")
		faults   = fs.Bool("faults", false, "run the fault/recovery scenario (host crash, manager restart, fabric noise) and write a deterministic JSON report")
		volumeM  = fs.Bool("volume", false, "run the nexus-volume path-death scenario (mirrored writes over two controllers, link outage, reservation fence, integrity sweep) and write a deterministic JSON report")
		qosM     = fs.Bool("qos", false, "search the max sustainable open-loop arrival rate per QoS scenario, with and without WRR+admission control, and write a deterministic JSON report (combine with -trace for a Chrome trace with qos counter lanes)")
		workers  = fs.Int("workers", 4, "writer processes for -volume")
		seed     = fs.Int64("seed", 7, "scenario seed for -faults (drives workload and fault plan)")
		hosts    = fs.Int("hosts", 4, "client hosts for -telemetry")
		interval = fs.Int64("interval", 100_000, "telemetry sampling interval in virtual ns")
		serve    = fs.String("serve", "", "serve live /metrics, /telemetry.json and /healthz on this address during -telemetry (e.g. 127.0.0.1:9120)")
		linger   = fs.Bool("linger", false, "with -serve, keep serving after the run completes until interrupted")
		bottleck = fs.Bool("bottleneck", false, "run every scenario traced and print ranked per-resource bottleneck attribution (deterministic; -out writes the report text)")
		whatifM  = fs.Bool("whatif", false, "execute the counterfactual sensitivity matrix (every knob x factor x scenario) and print predicted-vs-actual deltas ranked by leverage (deterministic; -out writes the report text)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2 before Parse returns
	if *ios < 1 {
		return fmt.Errorf("%w: -ios must be at least 1 (got %d)", errUsage, *ios)
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
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
		return runQoS(stdout, outOr("QOS_sim.json"), *traceOut)
	case *traceOut != "":
		return runTrace(stdout, *scenario, fop, *op, *qd, *ios, *traceOut)
	case *bottleck:
		return runBottleneck(stdout, fop, *op, *qd, *ios, outOr(""))
	case *whatifM:
		return runWhatif(stdout, *qd, *ios, outOr(""))
	case *faults:
		return runFaults(stdout, *seed, *hosts, *qd, *ios, *interval, outOr("FAULTS_sim.json"))
	case *volumeM:
		vios := *ios
		if !set["ios"] {
			vios = 150 // the volume scenario's per-worker budget
		}
		return runVolume(stdout, *seed, *workers, *qd, vios, *interval, outOr("VOLUME_sim.json"))
	case *telOut != "" || *serve != "":
		return runTelemetry(stdout, *telOut, *hosts, *qd, *ios, *interval, *serve, *linger)
	case *baseline:
		return runBaseline(stdout, fop, *ios, *interval, *out)
	}
	fs.Usage()
	return fmt.Errorf("%w: choose a mode (-baseline, -trace, -telemetry, -faults, -volume, -qos, -bottleneck or -whatif)", errUsage)
}

// runTelemetry executes the multihost fairness scenario with the
// virtual-time sampling pipeline attached, optionally serving the live
// introspection endpoints during the run, and writes the pipeline's
// deterministic JSON dump. The file holds only virtual-time state.
func runTelemetry(w io.Writer, out string, hosts, qd, ios int, intervalNs int64, serveAddr string, linger bool) error {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: intervalNs})
	if serveAddr != "" {
		srv, err := telemetry.Serve(serveAddr, pipe)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "serving /metrics /telemetry.json /healthz on http://%s\n", srv.Addr())
	}
	res, err := cluster.RunMultiHost(cluster.MultiHostConfig{
		Hosts: hosts, QueueDepth: qd, IOsPerHost: ios, Seed: 7, Op: fio.RandRW,
		Registry: reg, Pipeline: pipe, LocalBaseline: true,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d hosts + local baseline: %d IOs in %.2f virtual ms (%.0f IOPS)\n\n",
		hosts, res.TotalIOs, float64(res.ElapsedNs)/1e6, res.AggIOPS())
	fmt.Fprint(w, res.Fairness.Table())
	if out != "" {
		data, err := pipe.MarshalJSON()
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s (%d samples, %d series)\n", out, pipe.Samples(), len(pipe.Series()))
	}
	if linger && serveAddr != "" {
		fmt.Fprintln(os.Stderr, "lingering; ctrl-C to exit")
		select {}
	}
	return nil
}

// runTrace executes one scenario with tracing enabled and writes the
// Chrome trace-event file, validating it and printing the per-stage
// latency breakdown. Deterministic: no wall-clock data enters the file.
func runTrace(w io.Writer, scenario string, op fio.Op, opName string, qd, ios int, out string) error {
	s := cluster.Scenario(scenario)
	known := false
	for _, k := range cluster.Scenarios() {
		if k == s {
			known = true
		}
	}
	if !known {
		return fmt.Errorf("-trace: unknown scenario %q", scenario)
	}
	tr := trace.New()
	spec := fio.JobSpec{
		Name: "trace", Op: op, QueueDepth: qd,
		MaxIOs: ios, WarmupIOs: 0, RangeBlocks: 1 << 16, Seed: 7,
	}
	res, st, err := cluster.RunJobStats(s, cluster.ScenarioConfig{Tracer: tr}, spec)
	if err != nil {
		return err
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
	// Counter tracks (per-queue and controller inflight) render as
	// Perfetto counter lanes alongside the span rows.
	events, err := writeChrome(out, spans, meta, attr.CounterTracks(spans))
	if err != nil {
		return err
	}
	bd := trace.ComputeBreakdown(spans)
	fmt.Fprintf(w, "%s qd=%d: %d spans, %d trace events -> %s\n\n", s, qd, bd.Spans, events, out)
	fmt.Fprint(w, bd.Table())
	sum, e2e := bd.ReconcileNs()
	if sum != e2e {
		return fmt.Errorf("stage sum %d ns != end-to-end %d ns", sum, e2e)
	}
	fmt.Fprintf(w, "\nreconciled: stage sum == end-to-end == %d ns\n", e2e)
	return nil
}

// writeChrome writes spans and counter tracks to path as a Chrome
// trace-event file, then validates the file against the trace-event
// schema and returns its event count.
func writeChrome(path string, spans []*trace.Span, meta map[string]string, tracks []trace.CounterTrack) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := trace.WriteChromeWith(f, spans, meta, tracks); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return trace.ValidateChrome(data)
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
// "cores" are removed; bench/ measures wall time. v10: the
// "sensitivity" and "qos" sections, which the -whatif and -qos reports
// hold, and the machine-dependent "generated_unix" and "cpus_online"
// are removed.
const benchSchemaVersion = 10

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
	SchemaVersion int                 `json:"schema_version"`
	Config        sweepConfig         `json:"config"`
	Runs          []benchRun          `json:"runs"`
	Breakdowns    []scenarioBreakdown `json:"breakdowns"`
}

// runBaseline runs every scenario at QD1 and QD8 and writes the JSON
// report.
func runBaseline(w io.Writer, op fio.Op, ios int, telemetryIntervalNs int64, out string) error {
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
				return err
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
			fmt.Fprintf(w, "%-14s qd=%d  %9d events  %12d virtual ns\n",
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
			return err
		}
		rep.Breakdowns = append(rep.Breakdowns, bd)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", out)
	return nil
}

// tracedBreakdown runs scenario s once with tracing and a wired metrics
// registry, returning its stage decomposition, metrics snapshot and
// ranked bottleneck attribution.
func tracedBreakdown(s cluster.Scenario, op fio.Op, qd, ios int) (scenarioBreakdown, error) {
	reg := trace.NewRegistry()
	spans, rep, err := tracedReport(s, fio.JobSpec{
		Name: "breakdown", Op: op, QueueDepth: qd,
		MaxIOs: ios, WarmupIOs: 0, RangeBlocks: 1 << 16, Seed: 7,
	}, reg)
	if err != nil {
		return scenarioBreakdown{}, err
	}
	return scenarioBreakdown{
		Scenario:      string(s),
		QueueDepth:    qd,
		Breakdown:     trace.ComputeBreakdown(spans),
		Metrics:       reg.Snapshot(),
		TopBottleneck: rep.Top(),
		Bottlenecks:   rep.Rows,
	}, nil
}
