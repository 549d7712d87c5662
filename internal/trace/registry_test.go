package trace

import (
	"fmt"
	"sync"
	"testing"
)

// TestLabeledMetrics: labels distinguish instances of the same base
// name, render deterministically, and survive the snapshot.
func TestLabeledMetrics(t *testing.T) {
	r := NewRegistry()
	for host := 0; host < 3; host++ {
		host := host
		r.GaugeFunc("pcie.writes", func() float64 { return float64(host * 10) }, L("host", host))
	}
	fetched := 42
	r.GaugeFunc("nvme.queue.fetched", func() float64 { return float64(fetched) }, L("host", 1), L("qid", 7))
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	if got := snap[1].FullName(); got != `pcie.writes{host="1"}` {
		t.Errorf("full name = %q", got)
	}
	if snap[1].Value != 10 {
		t.Errorf("labeled gauge value = %v, want 10", snap[1].Value)
	}
	if got := snap[3].FullName(); got != `nvme.queue.fetched{host="1",qid="7"}` {
		t.Errorf("two-label full name = %q", got)
	}
	if snap[3].Value != 42 {
		t.Errorf("two-label gauge = %v, want 42", snap[3].Value)
	}
	// Same name+labels replaces the callback, not adds an instrument.
	r.GaugeFunc("nvme.queue.fetched", func() float64 { return float64(fetched + 1) }, L("host", 1), L("qid", 7))
	snap = r.Snapshot()
	if len(snap) != 4 {
		t.Errorf("re-registration grew registry to %d", len(snap))
	}
	if snap[3].Value != 43 {
		t.Errorf("re-registered gauge = %v, want 43 from the new callback", snap[3].Value)
	}
}

// TestHistogramPercentileFields: snapshots carry the full quantile set.
func TestHistogramPercentileFields(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := int64(1); i <= 10000; i++ {
		h.Hist().AddNs(i)
	}
	mv := r.Snapshot()[0]
	checks := []struct {
		name  string
		got   float64
		exact float64
	}{
		{"p50", mv.P50, 5000}, {"p95", mv.P95, 9500},
		{"p99", mv.P99, 9900}, {"p999", mv.P999, 9990},
	}
	for _, c := range checks {
		if rel := (c.got - c.exact) / c.exact; rel > 0.04 || rel < -0.04 {
			t.Errorf("%s = %v, exact %v", c.name, c.got, c.exact)
		}
	}
	if h.Hist() == nil {
		t.Error("Hist() accessor returned nil for a histogram metric")
	}
}

// TestRegistryConcurrentRegistration: the registry lock makes
// registration and snapshotting of registry-owned state safe across
// goroutines (run under -race in CI). Gauge callbacks here close over
// goroutine-local values only — the contract for live observation of
// *layer* counters remains "sim loop only".
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				v := float64(i)
				r.GaugeFunc(fmt.Sprintf("g%d.m%d", g, i), func() float64 { return v })
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if n := len(r.Snapshot()); n != 800 {
		t.Errorf("len = %d, want 800", n)
	}
}
