package whatif

import (
	"strings"
	"testing"

	"repro/internal/cluster"
)

// TestScenarioMatrixExecutesEveryCell runs a small matrix on ours-remote
// and checks the structural contract: every knob x factor cell executed
// (actuals present, not just predictions), errors computed, top lever
// ranked, service-only errors inside the documented bound.
func TestScenarioMatrixExecutesEveryCell(t *testing.T) {
	rep, err := RunScenario(cluster.OursRemote, 4, 60)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(cluster.OverlayKnobs()) * len(Factors())
	if len(rep.Cells) != wantCells {
		t.Fatalf("cells = %d, want %d", len(rep.Cells), wantCells)
	}
	if rep.Spans != 60 {
		t.Fatalf("spans = %d, want 60", rep.Spans)
	}
	if rep.BaselineNs <= 0 {
		t.Fatalf("baseline = %v, want > 0", rep.BaselineNs)
	}
	if rep.TopLever == "" {
		t.Fatal("top lever empty")
	}
	if rep.BaselineBringupNs <= 0 {
		t.Fatalf("bring-up = %d, want > 0", rep.BaselineBringupNs)
	}
	seen := make(map[string]int)
	for _, c := range rep.Cells {
		seen[c.Knob]++
		if c.ActualNs <= 0 {
			t.Fatalf("%s x%.2f: counterfactual not executed (actual %v)", c.Knob, c.Factor, c.ActualNs)
		}
		if c.PredictedNs <= 0 {
			t.Fatalf("%s x%.2f: no prediction", c.Knob, c.Factor)
		}
		if c.ServiceOnly != ServiceOnly(c.Knob) {
			t.Fatalf("%s: service-only flag mismatch", c.Knob)
		}
	}
	for _, k := range cluster.OverlayKnobs() {
		if seen[k] != len(Factors()) {
			t.Fatalf("knob %s: %d cells, want %d", k, seen[k], len(Factors()))
		}
	}
	if e := rep.MaxServiceOnlyErrorPct(); e > ServiceOnlyErrorBoundPct {
		t.Fatalf("service-only error %.2f%% exceeds bound %.0f%%", e, ServiceOnlyErrorBoundPct)
	}
	// The medium dominates this calibration's critical path; a 0.5x
	// medium must beat the baseline and rank as the top lever.
	if rep.TopLever != cluster.KnobMedium {
		t.Fatalf("top lever = %s, want %s", rep.TopLever, cluster.KnobMedium)
	}
}

// TestCounterfactualsActuallyChangeOutcomes guards against an overlay
// that silently fails to reach the executed model: a halved medium must
// measurably beat the baseline of the concurrent sharing scenario.
func TestCounterfactualsActuallyChangeOutcomes(t *testing.T) {
	rep, err := RunMultiHost(2, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	var medium, admin *Cell
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Factor != 0.5 {
			continue
		}
		switch c.Knob {
		case cluster.KnobMedium:
			medium = c
		case cluster.KnobAdmin:
			admin = c
		}
	}
	if medium == nil || admin == nil {
		t.Fatal("missing 0.5x cells")
	}
	if medium.ActualNs >= rep.BaselineNs {
		t.Fatalf("medium x0.5 actual %.1f did not improve on baseline %.1f", medium.ActualNs, rep.BaselineNs)
	}
	// admin.service has no steady-state surface at all.
	if admin.ActualNs != rep.BaselineNs {
		t.Fatalf("admin x0.5 actual %.1f, want baseline %.1f", admin.ActualNs, rep.BaselineNs)
	}
}

// TestMultiHostMatrix runs the sharing scenario small and checks spans
// cover every client's I/Os and the service-only bound holds there too.
func TestMultiHostMatrix(t *testing.T) {
	rep, err := RunMultiHost(2, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 60 {
		t.Fatalf("spans = %d, want 60 (2 hosts x 30)", rep.Spans)
	}
	if e := rep.MaxServiceOnlyErrorPct(); e > ServiceOnlyErrorBoundPct {
		t.Fatalf("service-only error %.2f%% exceeds bound %.0f%%", e, ServiceOnlyErrorBoundPct)
	}
	if !strings.Contains(rep.Table(), "multihost-2") {
		t.Fatalf("table missing scenario name:\n%s", rep.Table())
	}
}

// TestServiceOnlySet pins the documented service-only knob set.
func TestServiceOnlySet(t *testing.T) {
	want := map[string]bool{
		cluster.KnobCtrlDecode:   true,
		cluster.KnobCtrlCpl:      true,
		cluster.KnobHostSubmit:   true,
		cluster.KnobHostComplete: true,
	}
	for _, k := range cluster.OverlayKnobs() {
		if ServiceOnly(k) != want[k] {
			t.Errorf("ServiceOnly(%s) = %v, want %v", k, ServiceOnly(k), want[k])
		}
	}
}
