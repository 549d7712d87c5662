package main

import (
	"fmt"
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
// any GOMAXPROCS — CI compares the bytes across core counts. A nonzero
// blame residual on any span aborts the report: attribution that does
// not reconcile exactly with end-to-end latency must never be published.
func runBottleneck(op fio.Op, opName string, qd, ios int, out string) {
	var b strings.Builder

	for _, s := range cluster.Scenarios() {
		tr := trace.New()
		var utils map[string]float64
		spec := fio.JobSpec{
			Name: "bottleneck", Op: op, QueueDepth: qd,
			MaxIOs: ios, WarmupIOs: 0, RangeBlocks: 1 << 16, Seed: 7,
		}
		err := cluster.RunWorkload(s, cluster.ScenarioConfig{Tracer: tr}, func(p *sim.Proc, env *cluster.Env) error {
			uw := env.StartUtilWindow()
			if _, err := fio.Run(p, env.Queue, spec); err != nil {
				return err
			}
			utils = env.ResourceUtils(uw)
			return nil
		})
		if err != nil {
			fatal(err)
		}
		rep := blameReport(string(s), tr.Spans(), utils)
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
		fatal(err)
	}
	rep := blameReport("multihost-4", tr.Spans(), res.Utils)
	fmt.Fprintf(&b, "== multihost-4 (op=randrw qd=%d ios=%d per host) ==\n%s\n", qd, mhIOs, rep.Table())

	fmt.Print(b.String())
	if out != "" {
		if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", out)
	}
}

// blameReport folds spans into a reconciled attribution report,
// aborting on any nonzero residual.
func blameReport(scenario string, spans []*trace.Span, utils map[string]float64) attr.Report {
	bs := attr.NewBlameSet()
	for _, s := range spans {
		if resid := bs.AddSpan(s); resid != 0 {
			fatal(fmt.Errorf("%s: span qid=%d cid=%d seq=%d blame residual %d ns != 0",
				scenario, s.QID, s.CID, s.Seq, resid))
		}
	}
	if bs.Spans == 0 {
		fatal(fmt.Errorf("%s: no spans traced", scenario))
	}
	return attr.BuildReport(scenario, bs, utils)
}
