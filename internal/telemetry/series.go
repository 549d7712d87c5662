// Package telemetry turns the trace.Registry's point-in-time metrics
// into virtual-time series. A Pipeline attaches to the simulation
// kernel as a weak repeating timer (sim.Ticker) and, every sampling
// interval of *virtual* time, snapshots every registered metric into a
// fixed-capacity ring buffer: gauges record their value and the change
// since the previous sample, histograms their interval (not cumulative)
// p50/p95/p99/p999 via stats.HistWindow.
//
// Because the sampler runs on virtual time inside the kernel loop, it
// adds no wall-clock dependence and does not perturb simulated I/O
// timing: runs with and without telemetry are virtual-time identical,
// and same-seed runs produce byte-identical telemetry JSON.
//
// On top of the raw series sits a fairness layer (per-host share of the
// device, Jain's fairness index, tail-latency spread — see fairness.go)
// and two exposition surfaces: a live net/http server (/metrics in
// Prometheus text format, /telemetry.json, /healthz — see server.go)
// and a deterministic offline JSON dump for CI.
package telemetry

import "repro/internal/trace"

// Point is one sample of one metric at virtual time T (ns). Which
// fields are populated depends on the series kind:
//
//   - gauge:     V (callback value), D (change since previous sample —
//     for a gauge over a monotone count this is the interval delta)
//   - histogram: N (interval observations), V (interval mean),
//     P50/P95/P99/P999 (interval quantiles, ns)
type Point struct {
	T    int64   `json:"t"`
	V    float64 `json:"v"`
	D    float64 `json:"d,omitempty"`
	N    uint64  `json:"n,omitempty"`
	P50  float64 `json:"p50,omitempty"`
	P95  float64 `json:"p95,omitempty"`
	P99  float64 `json:"p99,omitempty"`
	P999 float64 `json:"p999,omitempty"`
}

// Series is a fixed-capacity ring buffer of Points for one metric.
// When full, appending overwrites the oldest point and bumps Dropped —
// recent history wins, total memory stays bounded no matter how long
// the run.
type Series struct {
	Name    string        `json:"name"` // base metric name, no labels
	Labels  []trace.Label `json:"labels,omitempty"`
	Kind    string        `json:"kind"`
	Dropped uint64        `json:"dropped,omitempty"` // points evicted by the ring

	pts   []Point // ring storage, len == cap once allocated
	start int     // index of oldest point
	n     int     // live points
}

func newSeries(name string, labels []trace.Label, kind string, capacity int) *Series {
	return &Series{
		Name:   name,
		Labels: labels,
		Kind:   kind,
		pts:    make([]Point, capacity),
	}
}

// FullName renders the series identity including labels, matching
// trace.MetricValue.FullName.
func (s *Series) FullName() string {
	return trace.MetricValue{Name: s.Name, Labels: s.Labels}.FullName()
}

// Len returns the number of live points.
func (s *Series) Len() int { return s.n }

// Append adds a point, evicting the oldest when the ring is full.
func (s *Series) Append(p Point) {
	if s.n < len(s.pts) {
		s.pts[(s.start+s.n)%len(s.pts)] = p
		s.n++
		return
	}
	s.pts[s.start] = p
	s.start = (s.start + 1) % len(s.pts)
	s.Dropped++
}

// At returns the i-th live point, oldest first.
func (s *Series) At(i int) Point { return s.pts[(s.start+i)%len(s.pts)] }

// Last returns the most recent point, if any.
func (s *Series) Last() (Point, bool) {
	if s.n == 0 {
		return Point{}, false
	}
	return s.At(s.n - 1), true
}

// Points copies the live points out in chronological order.
func (s *Series) Points() []Point {
	out := make([]Point, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.At(i)
	}
	return out
}
