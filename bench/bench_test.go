package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

// quickPlan runs every phase of the benchmark at a small fraction of its
// size, so that all four workloads finish in seconds.
func quickPlan() plan {
	return plan{
		minReps: 2, setupReps: 1, pairs: 1, pingpongs: 1000,
		profileHz: 1000, minSamples: 1, maxProfileReps: 1,
		ladderNs: 2_000_000, size: 0.01,
	}
}

func quick(t *testing.T, w workload, seed int64, traced bool) *measurement {
	t.Helper()
	m, err := measure(w, seed, quickPlan(), traced)
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	if !m.Correct || len(m.problems) > 0 || m.Failed != 0 || m.Attempted < 1 {
		t.Fatalf("%s seed %d traced=%v: correct=%v attempted=%d failed=%d problems %q",
			w.name, seed, traced, m.Correct, m.Attempted, m.Failed, m.problems)
	}
	return m
}

// emitsExactly checks that m reports exactly the metrics listed, each
// with its unit.
func emitsExactly(t *testing.T, what string, m *measurement, want []specMetric) {
	t.Helper()
	for _, sm := range want {
		got, ok := m.Metrics[sm.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, sm.Name)
		case got.Unit != sm.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, sm.Name, got.Unit, sm.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", what, sm.Name, got.Value)
		}
	}
	if len(m.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json lists %d", what, len(m.Metrics), len(want))
	}
}

func virtualMetrics(m *measurement) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m.Metrics {
		if strings.HasPrefix(k, "v_") {
			out[k] = v.Value
		}
	}
	return out
}

// TestQuickRunOfEveryWorkload runs all four workloads at quick scale, in
// both modes, and checks them against BENCHMARK.json.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	start := time.Now()
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, sp.Workloads[i].Name, w.name)
		}
		a := quick(t, w, 7, false)
		emitsExactly(t, w.name+" trace 0", a, sp.EndToEnd)
		for _, sm := range sp.EndToEnd {
			if a.Metrics[sm.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, sm.Name, a.Metrics[sm.Name].Value)
			}
		}
		l := quick(t, w, 7, true)
		emitsExactly(t, w.name+" trace 1", l, sp.PerLayer)
		sum := 0.0
		for _, layer := range layers {
			sum += l.Metrics["wall_us_per_io."+layer].Value
		}
		if want := l.Metrics["wall_us_per_io"].Value; math.Abs(sum-want) > 1e-9*want {
			t.Errorf("%s: the layers add up to %v us per IO, wall_us_per_io is %v", w.name, sum, want)
		}

		va, vb, vc := virtualMetrics(a), virtualMetrics(quick(t, w, 7, false)), virtualMetrics(quick(t, w, 11, false))
		changed := false
		for k, x := range va {
			if vb[k] != x {
				t.Errorf("%s: %s is %v and %v in two runs at seed 7", w.name, k, x, vb[k])
			}
			changed = changed || vc[k] != x
		}
		if !changed {
			t.Errorf("%s: virtual metrics %v do not change with the seed", w.name, va)
		}
	}
	t.Logf("quick runs took %v", time.Since(start))
}

// TestInterpolatedPercentile fills a registry histogram with consecutive
// integers, whose exact percentiles are known, across buckets 16 to 512
// wide.
func TestInterpolatedPercentile(t *testing.T) {
	h := trace.NewRegistry().Histogram("host.latency").Hist()
	const n = 20_000
	for v := 0; v < n; v++ {
		h.AddNs(int64(1000 + v))
	}
	for _, p := range []float64{50, 99, 99.9} {
		exact := 1000 + math.Ceil(p/100*n) - 1
		if got := interpolatedPercentile(h, p); math.Abs(got-exact) > 1 {
			t.Errorf("p%v: interpolated %v, exact %v (bucket midpoint %v)", p, got, exact, h.Percentile(p))
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		// statistics.quantiles(range(1, 11), n=4)
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		// statistics.quantiles([1, 2], n=4)
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	tens := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"identical runs tie", tens, tens, false, 0.1, same},
		{"nine wins and one tie is better", tens, []float64{9, 9, 9, 9, 9, 9, 9, 9, 9, 10}, false, 0.1, better},
		{"eight wins and two ties is not", tens, []float64{9, 9, 9, 9, 9, 9, 9, 9, 10, 10}, false, 0.1, same},
		{"slower beyond the bound", tens, []float64{13, 13, 12, 13, 13, 12, 13, 13, 13, 12}, false, 0.1, worse},
		{"slower within the bound", tens, []float64{10.5, 10.4, 10.5, 10.6, 10.5, 10.5, 10.4, 10.5, 10.6, 10.5}, false, 0.1, same},
		{"higher is better: a drop is worse", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, true, 0.1, worse},
		{"higher is better: a rise is better", []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, true, 0.1, better},
		{"spread wider than the bound", []float64{5, 10, 15, 20}, []float64{6, 11, 14, 19}, false, 0.1, unresolved},
		{"wide spread but every run better", []float64{10, 11, 30, 31}, []float64{9, 9.5, 9.6, 9.7}, false, 0.1, same},
		{"exact metrics: any worsening beyond a zero bound", []float64{5, 5}, []float64{5.001, 5.001}, false, 0, worse},
	} {
		if got := compareRuns(tc.a, tc.b, tc.higher, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
