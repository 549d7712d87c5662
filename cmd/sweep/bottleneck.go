package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// runBottleneck produces the ranked bottleneck-attribution report: each
// Figure 9 scenario traced end to end and blamed per resource, and the
// 4-host sharing scenario. Every number is a virtual-time fact and
// every float uses a fixed format, so the report is byte-identical at
// any GOMAXPROCS. A nonzero blame residual on any span fails the
// report: attribution that does not reconcile exactly with end-to-end
// latency must never be published.
func runBottleneck(w io.Writer, op fio.Op, opName string, qd, ios int, out string) error {
	var b strings.Builder

	for _, s := range cluster.Scenarios() {
		_, rep, err := tracedReport(s, fio.JobSpec{
			Name: "bottleneck", Op: op, QueueDepth: qd,
			MaxIOs: ios, WarmupIOs: 0, RangeBlocks: 1 << 16, Seed: 7,
		}, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "== %s (op=%s qd=%d ios=%d) ==\n%s\n", s, opName, qd, ios, rep.Table())
	}

	// The paper's sharing scenario: 4 clients on one single-function
	// controller, mixed read/write so both directions attribute.
	mhIOs := ios
	if mhIOs > 200 {
		mhIOs = 200
	}
	tr := trace.New()
	res, err := cluster.RunMultiHost(cluster.MultiHostConfig{
		Hosts: 4, QueueDepth: qd, IOsPerHost: mhIOs, Seed: 7,
		Op: fio.RandRW, Tracer: tr,
	})
	if err != nil {
		return err
	}
	rep, err := blameReport("multihost-4", tr.Spans(), res.Utils)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "== multihost-4 (op=randrw qd=%d ios=%d per host) ==\n%s\n", qd, mhIOs, rep.Table())

	fmt.Fprint(w, b.String())
	if out != "" {
		if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", out)
	}
	return nil
}

// tracedReport runs one fio job on scenario s with every IO traced and
// returns the spans with their ranked blame report, whose utilizations
// cover the job alone. A non-nil reg also receives the scenario's
// metrics.
func tracedReport(s cluster.Scenario, spec fio.JobSpec, reg *trace.Registry) ([]*trace.Span, attr.Report, error) {
	tr := trace.New()
	var utils map[string]float64
	err := cluster.RunWorkload(s, cluster.ScenarioConfig{Tracer: tr}, func(p *sim.Proc, env *cluster.Env) error {
		if reg != nil {
			env.WireMetrics(reg)
		}
		uw := env.StartUtilWindow()
		if _, err := fio.Run(p, env.Queue, spec); err != nil {
			return err
		}
		utils = env.ResourceUtils(uw)
		return nil
	})
	if err != nil {
		return nil, attr.Report{}, err
	}
	spans := tr.Spans()
	rep, err := blameReport(string(s), spans, utils)
	return spans, rep, err
}

// blameReport folds spans into a reconciled attribution report,
// failing on any nonzero residual.
func blameReport(scenario string, spans []*trace.Span, utils map[string]float64) (attr.Report, error) {
	bs, err := attr.Fold(spans)
	if err != nil {
		return attr.Report{}, fmt.Errorf("%s: %w", scenario, err)
	}
	return attr.BuildReport(scenario, bs, utils), nil
}
