package telemetry

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestCounterLanes: sampled series become prefix-filtered Chrome counter
// tracks that survive the exporter's schema validation.
func TestCounterLanes(t *testing.T) {
	reg := trace.NewRegistry()
	k := sim.NewKernel()
	var frac float64 = 1.0
	reg.GaugeFunc("qos.min_admit_frac", func() float64 { return frac }, trace.L("class", "noisy"))
	var issued, writes uint64
	reg.GaugeFunc("arrival.issued", func() float64 { return float64(issued) }, trace.L("class", "noisy"))
	reg.GaugeFunc("pcie.writes", func() float64 { return float64(writes) }) // must be filtered out

	p := NewPipeline(reg, Config{IntervalNs: 100, Capacity: 64})
	p.Attach(k)
	k.Spawn("load", func(pr *sim.Proc) {
		for i := 0; i < 4; i++ {
			pr.Sleep(100)
			issued++
			frac *= 0.5
		}
	})
	k.RunAll()

	lanes := p.CounterLanes(1000, "qos.", "arrival.")
	if len(lanes) != 2 {
		t.Fatalf("lanes = %d, want 2 (qos + arrival, pcie filtered)", len(lanes))
	}
	if lanes[0].Name != `qos.min_admit_frac{class="noisy"}` || lanes[1].Name != `arrival.issued{class="noisy"}` {
		t.Errorf("lane names = %q, %q", lanes[0].Name, lanes[1].Name)
	}
	for _, ln := range lanes {
		if ln.PID != 1000 || len(ln.Points) == 0 {
			t.Errorf("lane %s: pid=%d points=%d", ln.Name, ln.PID, len(ln.Points))
		}
	}

	var buf bytes.Buffer
	if err := trace.WriteChromeWith(&buf, nil, nil, lanes); err != nil {
		t.Fatal(err)
	}
	n, err := trace.ValidateChrome(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no counter events exported")
	}

	if all := p.CounterLanes(7); len(all) != 3 {
		t.Errorf("unfiltered lanes = %d, want 3", len(all))
	}
}
