package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// runBenchcmp compares two BENCH_sim.json files and exits nonzero when
// the new one regresses the old beyond tol (a relative fraction, e.g.
// 0.05 = 5%). Only virtual-time facts gate: event counts, virtual
// durations, ranked bottlenecks, sensitivity actuals, top levers and
// QoS capacity — the quantities that are byte-stable for a given
// binary. The host-environment fields (generated_unix, cpus_online)
// never fail the comparison. Runs are matched by
// (scenario, op, queue depth, ios); entries present on only one side
// are reported (missing on the new side is a regression, new-only
// entries are fine — schemas grow).
func runBenchcmp(oldPath, newPath string, tol float64) {
	oldRep := readBench(oldPath)
	newRep := readBench(newPath)
	regressions, infos := compareBench(oldRep, newRep, newPath, tol)
	fmt.Printf("benchcmp %s -> %s (tolerance %.1f%%)\n", oldPath, newPath, tol*100)
	for _, m := range infos {
		fmt.Printf("  info: %s\n", m)
	}
	if len(regressions) == 0 {
		fmt.Println("  OK: no virtual-time regressions")
		return
	}
	for _, m := range regressions {
		fmt.Printf("  REGRESSION: %s\n", m)
	}
	fmt.Fprintf(os.Stderr, "sweep: benchcmp found %d regression(s)\n", len(regressions))
	os.Exit(1)
}

// compareBench is the gate itself, separated from file I/O and process
// exit so the host-environment-exclusion contract is unit-testable: two
// reports that differ only in generated_unix and cpus_online must
// produce zero regressions.
func compareBench(oldRep, newRep *benchReport, newPath string, tol float64) (regressions, infos []string) {
	reg := func(format string, args ...interface{}) {
		regressions = append(regressions, fmt.Sprintf(format, args...))
	}
	info := func(format string, args ...interface{}) {
		infos = append(infos, fmt.Sprintf(format, args...))
	}
	if oldRep.SchemaVersion != newRep.SchemaVersion {
		info("schema %d -> %d", oldRep.SchemaVersion, newRep.SchemaVersion)
	}

	// drifted reports whether new is outside tol of old (relative).
	drifted := func(oldV, newV float64) bool {
		if oldV == newV {
			return false
		}
		base := math.Abs(oldV)
		if base == 0 {
			return true
		}
		return math.Abs(newV-oldV)/base > tol
	}

	runKey := func(r benchRun) string {
		return fmt.Sprintf("%s op=%s qd=%d ios=%d", r.Scenario, r.Op, r.QueueDepth, r.IOs)
	}
	newRuns := make(map[string]benchRun)
	for _, r := range newRep.Runs {
		newRuns[runKey(r)] = r
	}
	for _, o := range oldRep.Runs {
		k := runKey(o)
		n, ok := newRuns[k]
		if !ok {
			reg("run %s: missing from %s", k, newPath)
			continue
		}
		if drifted(float64(o.VirtualNs), float64(n.VirtualNs)) {
			reg("run %s: virtual_ns %d -> %d (%+.2f%%)",
				k, o.VirtualNs, n.VirtualNs, relPct(float64(o.VirtualNs), float64(n.VirtualNs)))
		}
		if drifted(float64(o.Events), float64(n.Events)) {
			reg("run %s: events %d -> %d (%+.2f%%)",
				k, o.Events, n.Events, relPct(float64(o.Events), float64(n.Events)))
		}
	}

	bdKey := func(b scenarioBreakdown) string {
		return fmt.Sprintf("%s qd=%d", b.Scenario, b.QueueDepth)
	}
	newBDs := make(map[string]scenarioBreakdown)
	for _, b := range newRep.Breakdowns {
		newBDs[bdKey(b)] = b
	}
	for _, o := range oldRep.Breakdowns {
		k := bdKey(o)
		n, ok := newBDs[k]
		if !ok {
			reg("breakdown %s: missing from %s", k, newPath)
			continue
		}
		if o.TopBottleneck != n.TopBottleneck {
			reg("breakdown %s: top_bottleneck %s -> %s", k, o.TopBottleneck, n.TopBottleneck)
		}
		oSum, oE2E := o.Breakdown.ReconcileNs()
		nSum, nE2E := n.Breakdown.ReconcileNs()
		if drifted(float64(oE2E), float64(nE2E)) {
			reg("breakdown %s: e2e_ns %d -> %d (%+.2f%%)",
				k, oE2E, nE2E, relPct(float64(oE2E), float64(nE2E)))
		}
		if drifted(float64(oSum), float64(nSum)) {
			reg("breakdown %s: stage_sum_ns %d -> %d (%+.2f%%)",
				k, oSum, nSum, relPct(float64(oSum), float64(nSum)))
		}
	}

	newSens := make(map[string]sensitivityEntry)
	for _, s := range newRep.Sensitivity {
		newSens[s.Scenario] = s
	}
	for _, o := range oldRep.Sensitivity {
		n, ok := newSens[o.Scenario]
		if !ok {
			reg("sensitivity %s: missing from %s", o.Scenario, newPath)
			continue
		}
		if o.TopLever != n.TopLever {
			reg("sensitivity %s: top_lever %s -> %s", o.Scenario, o.TopLever, n.TopLever)
		}
		if drifted(o.BaselineNs, n.BaselineNs) {
			reg("sensitivity %s: baseline_ns %.1f -> %.1f (%+.2f%%)",
				o.Scenario, o.BaselineNs, n.BaselineNs, relPct(o.BaselineNs, n.BaselineNs))
		}
		cellKey := func(knob string, f float64) string { return fmt.Sprintf("%s x%.2f", knob, f) }
		newCells := make(map[string]float64)
		for _, c := range n.Cells {
			newCells[cellKey(c.Knob, c.Factor)] = c.ActualNs
		}
		for _, c := range o.Cells {
			k := cellKey(c.Knob, c.Factor)
			actual, ok := newCells[k]
			if !ok {
				reg("sensitivity %s %s: missing from %s", o.Scenario, k, newPath)
				continue
			}
			if drifted(c.ActualNs, actual) {
				reg("sensitivity %s %s: actual_ns %.1f -> %.1f (%+.2f%%)",
					o.Scenario, k, c.ActualNs, actual, relPct(c.ActualNs, actual))
			}
		}
	}

	qosKey := func(e qosEntry) string {
		return fmt.Sprintf("%s mode=%s", e.Scenario, qosModeName(e.QoS))
	}
	newQoS := make(map[string]qosEntry)
	for _, e := range newRep.QoS {
		newQoS[qosKey(e)] = e
	}
	for _, o := range oldRep.QoS {
		k := qosKey(o)
		n, ok := newQoS[k]
		if !ok {
			reg("qos %s: missing from %s", k, newPath)
			continue
		}
		// The headline fact: a drop in max sustainable rate is a QoS
		// regression; an increase is an improvement worth noting.
		if n.MaxSustainPct < o.MaxSustainPct {
			reg("qos %s: max_sustainable_pct %d -> %d", k, o.MaxSustainPct, n.MaxSustainPct)
		} else if n.MaxSustainPct > o.MaxSustainPct {
			info("qos %s: max_sustainable_pct %d -> %d (improved)", k, o.MaxSustainPct, n.MaxSustainPct)
		}
		if drifted(o.MaxSustainIOPS, n.MaxSustainIOPS) {
			reg("qos %s: max_sustainable_iops %.0f -> %.0f (%+.2f%%)",
				k, o.MaxSustainIOPS, n.MaxSustainIOPS, relPct(o.MaxSustainIOPS, n.MaxSustainIOPS))
		}
	}

	return regressions, infos
}

func relPct(oldV, newV float64) float64 {
	if oldV == 0 {
		return math.Inf(1)
	}
	return (newV - oldV) / math.Abs(oldV) * 100
}

func readBench(path string) *benchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return &rep
}
