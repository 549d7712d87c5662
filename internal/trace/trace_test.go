package trace

import (
	"bytes"
	"strings"
	"testing"
)

// TestNilTracerSafe: every method must be a no-op on a nil tracer — the
// disabled fast path instrumented code relies on.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Begin(1, 1, 0x02, 100)
	tr.Hop(1, 1, StageSubmit, 100, 200)
	tr.HopNote(1, 1, StageNTBCross, 100, 200, 2)
	tr.End(1, 1, 300)
	tr.Drop(1, 1)
	tr.Reset()
	if tr.Spans() != nil {
		t.Error("nil tracer returned spans")
	}
	if tr.OpenSpans() != 0 {
		t.Error("nil tracer has open spans")
	}
}

// TestSpanLifecycle covers the retroactive keying the instrumentation
// depends on: device-side hops arrive before the client calls Begin.
func TestSpanLifecycle(t *testing.T) {
	tr := New()
	// Device-side hop first (client does not know its CID yet).
	tr.Hop(1, 7, StageMedium, 150, 250)
	if tr.OpenSpans() != 1 {
		t.Fatalf("open spans = %d, want 1", tr.OpenSpans())
	}
	// Client closes the books retroactively.
	tr.Begin(1, 7, 0x02, 100)
	tr.Hop(1, 7, StageSubmit, 100, 150)
	tr.Hop(1, 7, StageDevice, 150, 280)
	tr.End(1, 7, 300)
	if tr.OpenSpans() != 0 {
		t.Fatalf("open spans after End = %d, want 0", tr.OpenSpans())
	}
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.QID != 1 || s.CID != 7 || s.Op != 0x02 || s.Start != 100 || s.End != 300 {
		t.Errorf("span = %+v", s)
	}
	if s.Duration() != 200 {
		t.Errorf("duration = %d, want 200", s.Duration())
	}
	// Hops sorted by start: submit(100) before medium(150)/device(150).
	if s.Hops[0].Stage != StageSubmit {
		t.Errorf("first hop = %v, want submit", s.Hops[0].Stage)
	}
}

// TestDropDiscards: dropped spans never export, and Ended spans survive
// unrelated drops.
func TestDropDiscards(t *testing.T) {
	tr := New()
	tr.Begin(1, 1, 0x01, 0)
	tr.End(1, 1, 10)
	tr.Begin(1, 2, 0x01, 5)
	tr.Drop(1, 2)
	if got := len(tr.Spans()); got != 1 {
		t.Errorf("spans = %d, want 1", got)
	}
	if tr.OpenSpans() != 0 {
		t.Errorf("open spans = %d, want 0", tr.OpenSpans())
	}
}

func synthSpans() []*Span {
	tr := New()
	for cid := uint16(1); cid <= 3; cid++ {
		base := int64(cid) * 1000
		tr.Begin(1, cid, 0x02, base)
		tr.Hop(1, cid, StageSubmit, base, base+100)
		tr.Hop(1, cid, StageDevice, base+100, base+700)
		tr.Hop(1, cid, StageMedium, base+200, base+600) // sub-stage, excluded
		tr.Hop(1, cid, StageReap, base+700, base+750)
		// 50 ns unattributed -> "other"
		tr.End(1, cid, base+800)
	}
	return tr.Spans()
}

// TestBreakdownReconciliation: partition stages plus the synthetic
// "other" remainder sum exactly to end-to-end; sub-stages are excluded.
func TestBreakdownReconciliation(t *testing.T) {
	b := ComputeBreakdown(synthSpans())
	if b.Spans != 3 {
		t.Fatalf("spans = %d, want 3", b.Spans)
	}
	sum, e2e := b.ReconcileNs()
	if sum != e2e {
		t.Errorf("stage sum %d != end-to-end %d", sum, e2e)
	}
	if e2e != 3*800 {
		t.Errorf("end-to-end total = %d, want 2400", e2e)
	}
	var sawOther, sawMedium bool
	for _, st := range b.Stages {
		if st.Stage == "other" {
			sawOther = true
			if st.TotalNs != 3*50 {
				t.Errorf("other total = %d, want 150", st.TotalNs)
			}
		}
		if st.Stage == "medium" {
			t.Error("sub-stage leaked into reconciling partition")
		}
	}
	for _, st := range b.SubStages {
		if st.Stage == "medium" {
			sawMedium = true
		}
	}
	if !sawOther || !sawMedium {
		t.Errorf("sawOther=%v sawMedium=%v", sawOther, sawMedium)
	}
	if !strings.Contains(b.Table(), "= stage sum") {
		t.Error("table missing reconciliation row")
	}
}

// TestWriteChromeDeterministic: same spans -> byte-identical output that
// passes schema validation.
func TestWriteChromeDeterministic(t *testing.T) {
	meta := map[string]string{"scenario": "test", "seed": "7"}
	var a, b bytes.Buffer
	if err := WriteChrome(&a, synthSpans(), meta); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b, synthSpans(), meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical exports differ")
	}
	n, err := ValidateChrome(a.Bytes())
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	// 3 spans x (1 op + 4 hops) + 1 process metadata event.
	if n != 16 {
		t.Errorf("events = %d, want 16", n)
	}
}

func TestValidateChromeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"no traceEvents": `{"displayTimeUnit":"ns"}`,
		"unnamed event":  `{"traceEvents":[{"ph":"X","ts":1,"dur":1,"pid":1,"tid":1}]}`,
		"bad phase":      `{"traceEvents":[{"name":"x","ph":"Z","ts":1,"pid":1,"tid":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1,"pid":1,"tid":1}]}`,
		"X without dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":1,"pid":1,"tid":1}]}`,
		"negative dur":   `{"traceEvents":[{"name":"x","ph":"X","ts":1,"dur":-2,"pid":1,"tid":1}]}`,
	}
	for name, data := range cases {
		if _, err := ValidateChrome([]byte(data)); err == nil {
			t.Errorf("%s: accepted invalid trace", name)
		}
	}
	if _, err := ValidateChrome([]byte(`{"traceEvents":[]}`)); err != nil {
		t.Errorf("empty traceEvents should validate: %v", err)
	}
}

// TestRegistry: insertion order is preserved, kinds snapshot correctly.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	var count uint64 = 3
	r.GaugeFunc("b.count", func() float64 { return float64(count) })
	v := 7.0
	r.GaugeFunc("a.gauge", func() float64 { return v })
	h := r.Histogram("c.lat")
	for i := int64(1); i <= 100; i++ {
		h.Hist().AddNs(i * 1000)
	}
	if n := len(r.Snapshot()); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	v, count = 9, 4 // gauges read at snapshot time
	snap := r.Snapshot()
	if snap[0].Name != "b.count" || snap[1].Name != "a.gauge" || snap[2].Name != "c.lat" {
		t.Errorf("order not preserved: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[0].Value != 4 || snap[0].Kind != "gauge" {
		t.Errorf("count gauge = %+v", snap[0])
	}
	if snap[1].Value != 9 || snap[1].Kind != "gauge" {
		t.Errorf("gauge = %+v", snap[1])
	}
	if snap[2].Count != 100 || snap[2].Max != 100000 || snap[2].P99 < 90000 || snap[2].Kind != "histogram" {
		t.Errorf("histogram = %+v", snap[2])
	}
	// Re-registering a name returns the same metric, not a duplicate.
	if r.Histogram("c.lat") != h {
		t.Error("re-registered histogram is a new metric")
	}
	if n := len(r.Snapshot()); n != 3 {
		t.Errorf("duplicate registration grew registry to %d", n)
	}
}
