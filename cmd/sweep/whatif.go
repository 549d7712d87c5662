package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/whatif"
)

// runWhatifMatrix executes the counterfactual sensitivity matrix over
// the standard scenario set. ios bounds the traced-run size; the
// sharing scenario scales its per-host budget down so one matrix (3
// scenarios x 9 knobs x 4 factors, every cell an executed run) stays a
// few seconds of wall clock.
func runWhatifMatrix(qd, ios int) ([]*whatif.Report, error) {
	n := ios
	if n > 120 {
		n = 120
	}
	if n < 1 {
		n = 1
	}
	mh := n / 2
	if mh < 1 {
		mh = 1
	}
	var reports []*whatif.Report
	for _, s := range []cluster.Scenario{cluster.OursLocal, cluster.OursRemote} {
		rep, err := whatif.RunScenario(s, qd, n)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	rep, err := whatif.RunMultiHost(4, qd, mh)
	if err != nil {
		return nil, err
	}
	return append(reports, rep), nil
}

// whatifText renders the full matrix as one deterministic text report:
// virtual-time facts only, byte-identical at any GOMAXPROCS.
func whatifText(reports []*whatif.Report) string {
	var b strings.Builder
	b.WriteString("== causal what-if sensitivity matrix ==\n")
	b.WriteString("every cell is an executed counterfactual run; predicted is the\n")
	b.WriteString("blame-based forecast from the baseline run alone.\n\n")
	for _, rep := range reports {
		b.WriteString(rep.Table())
		b.WriteString("\n")
	}
	b.WriteString("top levers (largest measured gain at 0.5x):\n")
	for _, rep := range reports {
		fmt.Fprintf(&b, "  %-16s %s\n", rep.Scenario, rep.TopLever)
	}
	var worst float64
	for _, rep := range reports {
		if e := rep.MaxServiceOnlyErrorPct(); e > worst {
			worst = e
		}
	}
	fmt.Fprintf(&b, "worst service-only prediction error: %.2f%% (bound %.0f%%)\n",
		worst, whatif.ServiceOnlyErrorBoundPct)
	return b.String()
}

// runWhatif is the -whatif mode: execute the matrix, print (and
// optionally write) the ranked report, and fail if any service-only
// cell's prediction error exceeds the bound, so a calibration change
// that breaks the causal model fails loudly instead of silently
// publishing wrong sensitivities.
func runWhatif(w io.Writer, qd, ios int, out string) error {
	reports, err := runWhatifMatrix(qd, ios)
	if err != nil {
		return err
	}
	text := whatifText(reports)
	fmt.Fprint(w, text)
	if out != "" {
		if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", out)
	}
	for _, rep := range reports {
		if e := rep.MaxServiceOnlyErrorPct(); e > whatif.ServiceOnlyErrorBoundPct {
			return fmt.Errorf("whatif %s: service-only prediction error %.2f%% exceeds bound %.2f%%",
				rep.Scenario, e, whatif.ServiceOnlyErrorBoundPct)
		}
	}
	return nil
}
