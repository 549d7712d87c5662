package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// wireMetricsGoldenNames pins the registry's full-name list after
// wiring an ours-remote run: the stable identity surface the exposition
// endpoints (Prometheus, telemetry JSON, BENCH_sim.json) golden against.
// A refactor that renames, drops or reorders metrics must show up here.
var wireMetricsGoldenNames = []string{
	"sim.events_executed",
	"sim.events_scheduled",
	"sim.events_run_queued",
	"sim.pool_misses",
	"sim.inline_sleeps",
	"sim.ticks",
	`pcie.posted_writes{host="0"}`,
	`pcie.mmio_writes{host="0"}`,
	`pcie.reads{host="0"}`,
	`pcie.bytes_written{host="0"}`,
	`pcie.bytes_read{host="0"}`,
	`pcie.crossings{host="0"}`,
	`ntb.translations{host="0"}`,
	`ntb.windows_programmed{host="0"}`,
	`ntb.windows_live{host="0"}`,
	`attr.link.tlps{host="0"}`,
	`attr.link.bytes{host="0"}`,
	`attr.link.busy_ns{host="0"}`,
	`attr.ntb.windows_level{host="0"}`,
	`attr.ntb.windows_busy_ns{host="0"}`,
	`pcie.posted_writes{host="1"}`,
	`pcie.mmio_writes{host="1"}`,
	`pcie.reads{host="1"}`,
	`pcie.bytes_written{host="1"}`,
	`pcie.bytes_read{host="1"}`,
	`pcie.crossings{host="1"}`,
	`ntb.translations{host="1"}`,
	`ntb.windows_programmed{host="1"}`,
	`ntb.windows_live{host="1"}`,
	`attr.link.tlps{host="1"}`,
	`attr.link.bytes{host="1"}`,
	`attr.link.busy_ns{host="1"}`,
	`attr.ntb.windows_level{host="1"}`,
	`attr.ntb.windows_busy_ns{host="1"}`,
	"nvme.ctrl.read_cmds",
	"nvme.ctrl.write_cmds",
	"nvme.ctrl.flush_cmds",
	"nvme.ctrl.admin_cmds",
	"nvme.ctrl.error_cmds",
	"nvme.ctrl.fetches",
	"nvme.ctrl.completions",
	"nvme.ctrl.interrupts",
	"nvme.ctrl.sq_doorbell_writes",
	"nvme.ctrl.cq_doorbell_writes",
	"attr.ctrl.busy_ns",
	"attr.ctrl.inflight",
	"attr.ctrl.max_inflight",
	"attr.ctrl.admin_busy_ns",
	"attr.ctrl.admin_svcs",
	"nvme.arb.urgent_fetched",
	"nvme.arb.high_fetched",
	"nvme.arb.medium_fetched",
	"nvme.arb.low_fetched",
	"nvme.arb.wrr_rounds",
	`nvme.queue.fetched{host="1",qid="1"}`,
	`nvme.queue.read_cmds{host="1",qid="1"}`,
	`nvme.queue.write_cmds{host="1",qid="1"}`,
	`nvme.queue.completions{host="1",qid="1"}`,
	`nvme.queue.sq_doorbells{host="1",qid="1"}`,
	`attr.queue.sq_level{host="1",qid="1"}`,
	`attr.queue.sq_max_level{host="1",qid="1"}`,
	`attr.queue.sq_busy_ns{host="1",qid="1"}`,
	`attr.queue.sq_integral_ns{host="1",qid="1"}`,
	`attr.queue.sq_residence_ns{host="1",qid="1"}`,
	`attr.queue.cq_busy_ns{host="1",qid="1"}`,
	`core.client.reads{host="1"}`,
	`core.client.writes{host="1"}`,
	`core.client.polls{host="1"}`,
	`core.client.bounce_bytes{host="1"}`,
	`core.client.sq_doorbells{host="1"}`,
	`core.client.sq_doorbells_saved{host="1"}`,
	`core.client.cq_doorbells{host="1"}`,
	`core.client.cq_rings_saved{host="1"}`,
	`core.client.inflight{host="1"}`,
	`attr.client.slots_level{host="1"}`,
	`attr.client.slots_max_level{host="1"}`,
	`attr.client.slots_busy_ns{host="1"}`,
	`host.ios_completed{host="1"}`,
	`host.latency{host="1"}`,
}

// mayBeZero lists gauges legitimately zero after an ours-remote RandRW
// polling run: no pipeline is attached (ticks), fio issues no flushes,
// nothing errors, completion is by polling (no interrupts), and all
// I/Os have drained (inflight and the attr.* end-of-run levels). The
// attr.queue.sq_* time accumulators are zero because the uncontended
// arbitration loop claims each SQE in the same virtual instant its
// doorbell lands — SQ residency only becomes nonzero when the
// controller's inflight cap or round-robin actually delays a claim.
// The nvme.arb.* class counters attribute fetches by declared queue
// priority in both arbitration modes; the scenario's queues are all
// default (medium) class and the controller runs round-robin, so only
// medium_fetched moves and wrr_rounds stays zero.
var mayBeZero = map[string]bool{
	"sim.ticks":                                    true,
	"nvme.arb.urgent_fetched":                      true,
	"nvme.arb.high_fetched":                        true,
	"nvme.arb.low_fetched":                         true,
	"nvme.arb.wrr_rounds":                          true,
	"nvme.ctrl.flush_cmds":                         true,
	"nvme.ctrl.error_cmds":                         true,
	"nvme.ctrl.interrupts":                         true,
	"attr.ctrl.inflight":                           true,
	`core.client.inflight{host="1"}`:               true,
	`attr.ntb.windows_level{host="0"}`:             true,
	`attr.ntb.windows_level{host="1"}`:             true,
	`attr.queue.sq_level{host="1",qid="1"}`:        true,
	`attr.queue.sq_busy_ns{host="1",qid="1"}`:      true,
	`attr.queue.sq_integral_ns{host="1",qid="1"}`:  true,
	`attr.queue.sq_residence_ns{host="1",qid="1"}`: true,
	`attr.client.slots_level{host="1"}`:            true,
}

// TestWireMetricsCoverage: after a multihost-capable scenario run,
// every wired gauge observed real activity (exposition endpoints can't
// silently lose a layer), and the name list matches the golden exactly.
func TestWireMetricsCoverage(t *testing.T) {
	reg := trace.NewRegistry()
	err := RunWorkload(OursRemote, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
		env.WireMetrics(reg)
		_, err := fio.Run(p, env.Queue, fio.JobSpec{
			Name: "cover", Op: fio.RandRW, QueueDepth: 8,
			MaxIOs: 150, RangeBlocks: 1 << 14, Seed: 42,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var names []string
	for _, mv := range snap {
		names = append(names, mv.FullName())
	}
	if len(names) != len(wireMetricsGoldenNames) {
		t.Errorf("registered %d metrics, golden has %d", len(names), len(wireMetricsGoldenNames))
	}
	for i, want := range wireMetricsGoldenNames {
		if i >= len(names) {
			t.Errorf("missing metric %q", want)
			continue
		}
		if names[i] != want {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want)
		}
	}
	for _, mv := range snap {
		if mv.Kind != "gauge" {
			continue
		}
		if mv.Value == 0 && !mayBeZero[mv.FullName()] {
			t.Errorf("gauge %s is zero after a full run", mv.FullName())
		}
	}
}

// TestMultiHostLocalBaseline: with LocalBaseline set, an extra host
// runs the stock driver on a private controller — its hostdriver.queue
// series join the shared-device hosts' in the same registry, so a live
// endpoint exposes every layer (pcie, ntb, nvme, hostdriver) per-host.
func TestMultiHostLocalBaseline(t *testing.T) {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 50_000})
	res, err := RunMultiHost(MultiHostConfig{
		Hosts: 2, QueueDepth: 4, IOsPerHost: 100, Seed: 5, Op: fio.RandRW,
		Registry: reg, Pipeline: pipe, LocalBaseline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerHost) != 3 {
		t.Fatalf("per-host results = %d, want 3 (2 clients + baseline)", len(res.PerHost))
	}
	base := res.PerHost[2]
	if base.Host != 3 || base.Err != nil || base.Res.IOs != 100 {
		t.Fatalf("baseline run = %+v %v", base, base.Err)
	}
	var sb strings.Builder
	pipe.WriteProm(&sb)
	text := sb.String()
	for _, want := range []string{
		`pcie_posted_writes{host="1"} `,
		`ntb_translations{host="2"} `,
		`nvme_queue_completions{host="3",qid="1"} 100`,
		`hostdriver_queue_completed{host="3",qid="1"} 100`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// The baseline host participates in fairness attribution too, with
	// block-layer latency standing in for the missing client-side hook,
	// so the p99 spread contrasts local against shared-device hosts.
	f := res.Fairness
	if f == nil || len(f.Hosts) != 3 {
		t.Fatalf("fairness hosts = %+v, want 3", f)
	}
	if bh := f.Hosts[2]; bh.Host != "3" || bh.P99Ns <= 0 || bh.MeanNs <= 0 {
		t.Errorf("baseline fairness row = %+v, want host 3 with latency data", bh)
	}
	if f.P99SpreadNs <= 0 {
		t.Errorf("p99 spread = %g, want > 0 (local baseline is faster than shared hosts)", f.P99SpreadNs)
	}
}

// TestSamplerDoesNotPerturbTiming: attaching the telemetry pipeline
// (registry wiring + virtual-time sampling ticker) must leave the
// simulated I/O timing bit-identical — the sampler only reads state and
// never sleeps, yields or schedules kernel items.
func TestSamplerDoesNotPerturbTiming(t *testing.T) {
	run := func(sampled bool) *MultiHostResult {
		cfg := MultiHostConfig{
			Hosts: 3, QueueDepth: 4, IOsPerHost: 120, Seed: 7, Op: fio.RandRW,
		}
		if sampled {
			cfg.Registry = trace.NewRegistry()
			// A prime-ish interval that lands between event times.
			cfg.Pipeline = telemetry.NewPipeline(cfg.Registry, telemetry.Config{IntervalNs: 9973})
		}
		res, err := RunMultiHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	if off.ElapsedNs != on.ElapsedNs {
		t.Errorf("elapsed differs: unsampled=%d sampled=%d", off.ElapsedNs, on.ElapsedNs)
	}
	if off.TotalIOs != on.TotalIOs {
		t.Errorf("total IOs differ: %d vs %d", off.TotalIOs, on.TotalIOs)
	}
	for i := range off.PerHost {
		a, b := off.PerHost[i], on.PerHost[i]
		if a.Err != nil || b.Err != nil {
			t.Fatalf("host %d errors: %v / %v", a.Host, a.Err, b.Err)
		}
		if a.Res.IOs != b.Res.IOs {
			t.Errorf("host %d IOs differ: %d vs %d", a.Host, a.Res.IOs, b.Res.IOs)
		}
		if x, y := a.Res.ReadLat.Sum(), b.Res.ReadLat.Sum(); x != y {
			t.Errorf("host %d read latency sums differ: %v vs %v", a.Host, x, y)
		}
		if x, y := a.Res.WriteLat.Sum(), b.Res.WriteLat.Sum(); x != y {
			t.Errorf("host %d write latency sums differ: %v vs %v", a.Host, x, y)
		}
	}
}

// TestMultiHostFairness: a symmetric multihost run yields a fairness
// report with near-1 Jain index, shares summing to one, per-host
// latency series with interval percentiles, and per-queue attribution
// series for each host's queue pair.
func TestMultiHostFairness(t *testing.T) {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 50_000})
	res, err := RunMultiHost(MultiHostConfig{
		Hosts: 4, QueueDepth: 4, IOsPerHost: 150, Seed: 3, Op: fio.RandRW,
		Registry: reg, Pipeline: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIOs != 4*150 {
		t.Fatalf("total IOs = %d, want 600", res.TotalIOs)
	}
	f := res.Fairness
	if f == nil || len(f.Hosts) != 4 {
		t.Fatalf("fairness = %+v, want 4 hosts", f)
	}
	var shareSum float64
	for _, h := range f.Hosts {
		if h.IOs != 150 {
			t.Errorf("host %s IOs = %g, want 150", h.Host, h.IOs)
		}
		if h.P99Ns <= 0 || h.MeanNs <= 0 {
			t.Errorf("host %s latency stats empty: %+v", h.Host, h)
		}
		shareSum += h.Share
	}
	if math.Abs(shareSum-1) > 1e-9 {
		t.Errorf("shares sum to %g", shareSum)
	}
	if f.JainIndex < 0.999 {
		t.Errorf("jain = %g for a symmetric run, want ~1", f.JainIndex)
	}

	// Per-queue attribution: each host owns a distinct controller queue.
	qids := map[string]bool{}
	for _, s := range pipe.Series() {
		if s.Name != "nvme.queue.completions" {
			continue
		}
		var host, qid string
		for _, l := range s.Labels {
			switch l.Key {
			case "host":
				host = l.Value
			case "qid":
				qid = l.Value
			}
		}
		if host == "" || qid == "" || qids[qid] {
			t.Errorf("bad or duplicate queue attribution: host=%q qid=%q", host, qid)
		}
		qids[qid] = true
		if last, ok := s.Last(); !ok || last.V != 150 {
			t.Errorf("queue %s completions last = %+v, want 150", qid, last)
		}
	}
	if len(qids) != 4 {
		t.Errorf("saw %d attributed queues, want 4", len(qids))
	}

	// The pipeline sampled on virtual time: several sweeps, and the
	// per-host latency series carries interval percentiles.
	if pipe.Samples() < 5 {
		t.Errorf("only %d samples", pipe.Samples())
	}
	sawLatency := false
	for _, s := range pipe.Series() {
		if s.Name != telemetry.MetricHostLatency {
			continue
		}
		for _, pt := range s.Points() {
			if pt.N > 0 && pt.P99 >= pt.P50 && pt.P50 > 0 {
				sawLatency = true
			}
		}
	}
	if !sawLatency {
		t.Error("no host.latency interval percentiles sampled")
	}

	// And the Prometheus rendering carries a per-host series per layer.
	var sb strings.Builder
	pipe.WriteProm(&sb)
	text := sb.String()
	for _, want := range []string{
		`pcie_posted_writes{host="2"} `,
		`ntb_translations{host="3"} `,
		`nvme_queue_completions{host="1",qid=`,
		`host_latency{host="4",quantile="0.99"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}
