package trace

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/stats"
)

// MetricKind distinguishes registry entries.
type MetricKind uint8

const (
	// KindGauge is a point-in-time value read from a callback at snapshot
	// time — the way a layer exposes its plain counter fields without
	// depending on the registry.
	KindGauge MetricKind = iota
	// KindHistogram is a bounded streaming distribution (PowHistogram).
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Label is one metric dimension (e.g. host="3", qid="7"). Labels make
// the same metric attributable to the host or queue that caused it —
// the per-host view the telemetry pipeline and fairness layer build on.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key string, value any) Label {
	return Label{Key: key, Value: fmt.Sprint(value)}
}

// renderLabels formats a label set as {k="v",k2="v2"}, empty for none.
// Labels render in the order given at registration (callers pass them in
// a fixed order, keeping output deterministic).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

// Metric is one registered instrument. A histogram is recorded into
// without a lock, so only from the simulation loop (see Registry's
// concurrency contract).
type Metric struct {
	name   string // base name, no labels
	labels []Label
	kind   MetricKind
	fn     func() float64
	hist   *stats.PowHistogram
}

// Hist exposes the underlying histogram (nil for non-histogram metrics),
// so layers can record into it directly and samplers can open interval
// windows over it.
func (m *Metric) Hist() *stats.PowHistogram { return m.hist }

// Kind reports the metric's kind.
func (m *Metric) Kind() MetricKind { return m.kind }

// Name returns the base name without labels.
func (m *Metric) Name() string { return m.name }

// Labels returns the label set given at registration (not a copy; do
// not mutate).
func (m *Metric) Labels() []Label { return m.labels }

// Gauge evaluates a gauge's callback (zero if unset or not a gauge).
// Subject to the same concurrency contract as Snapshot.
func (m *Metric) Gauge() float64 {
	if m.fn != nil {
		return m.fn()
	}
	return 0
}

// MetricValue is a snapshot row, JSON-serialisable for BENCH_sim.json
// and the telemetry endpoints.
type MetricValue struct {
	Name   string  `json:"name"` // base name without labels
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
	Count  uint64  `json:"count,omitempty"`
	P50    float64 `json:"p50,omitempty"`
	P95    float64 `json:"p95,omitempty"`
	P99    float64 `json:"p99,omitempty"`
	P999   float64 `json:"p999,omitempty"`
	Max    float64 `json:"max,omitempty"`
}

// FullName renders the metric identity including labels, e.g.
// `pcie.posted_writes{host="0"}`.
func (v MetricValue) FullName() string { return v.Name + renderLabels(v.Labels) }

// Registry is an insertion-ordered collection of named metrics. It is the
// process-wide wiring point: layers keep plain uint64 counter fields on
// their own structs (zero-dependency, zero-overhead), and the cluster
// registers gauge callbacks that read them at snapshot time.
//
// Registration order is preserved in Snapshot so output is deterministic.
//
// Concurrency contract: registration and observation (histogram
// records, gauge callback reads, Snapshot) must happen on the simulation
// loop — either before Run, from a simulated process, or from a sim.Ticker
// callback — where the kernel's one-process-at-a-time guarantee
// serializes them. The registry's own bookkeeping (order, items) is
// additionally guarded by a mutex, so tools that snapshot after the run
// from another goroutine are safe; but a live HTTP server must NOT call
// Snapshot concurrently with a run (gauge callbacks would race layer
// counters) — it reads the telemetry pipeline's sampled copies instead,
// which are taken under the pipeline lock from a ticker. The -race CI
// run enforces this posture end to end.
type Registry struct {
	mu    sync.Mutex
	order []string
	items map[string]*Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]*Metric)}
}

// register get-or-creates a metric under the lock; configure (may be
// nil) runs on the metric while the lock is still held, so gauge
// callbacks and histogram backing never race Snapshot.
func (r *Registry) register(name string, kind MetricKind, labels []Label, configure func(*Metric)) *Metric {
	key := name + renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.items[key]
	if !ok {
		m = &Metric{name: name, labels: labels, kind: kind}
		r.items[key] = m
		r.order = append(r.order, key)
	}
	if configure != nil {
		configure(m)
	}
	return m
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot
// time. Optional labels add per-host/per-queue dimensions.
// Re-registering the same name+labels replaces its callback.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	r.register(name, KindGauge, labels, func(m *Metric) { m.fn = fn })
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string, labels ...Label) *Metric {
	return r.register(name, KindHistogram, labels, func(m *Metric) {
		if m.hist == nil {
			m.hist = stats.NewPowHistogram(5)
		}
	})
}

// Each calls fn for every metric in registration order, under the
// registry lock. The telemetry sampler uses it to walk instruments
// without copying.
func (r *Registry) Each(fn func(key string, m *Metric)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range r.order {
		fn(key, r.items[key])
	}
}

// Snapshot reads every metric in registration order. See the concurrency
// contract on Registry for when this may be called.
func (r *Registry) Snapshot() []MetricValue {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricValue, 0, len(r.order))
	for _, key := range r.order {
		out = append(out, r.items[key].read())
	}
	return out
}

// read produces the snapshot row for one metric.
func (m *Metric) read() MetricValue {
	mv := MetricValue{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
	switch m.kind {
	case KindGauge:
		if m.fn != nil {
			mv.Value = m.fn()
		}
	case KindHistogram:
		mv.Count = m.hist.Count()
		mv.Value = m.hist.Mean()
		mv.P50 = m.hist.Percentile(50)
		mv.P95 = m.hist.Percentile(95)
		mv.P99 = m.hist.Percentile(99)
		mv.P999 = m.hist.Percentile(99.9)
		mv.Max = float64(m.hist.Max())
	}
	return mv
}
