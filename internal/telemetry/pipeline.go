package telemetry

import (
	"encoding/json"
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config tunes the sampling pipeline.
type Config struct {
	// IntervalNs is the sampling period in virtual nanoseconds
	// (default 100 µs).
	IntervalNs int64
	// Capacity is the per-series ring size (default 4096 points).
	Capacity int
}

// DefaultConfig returns the default sampling parameters.
func DefaultConfig() Config {
	return Config{IntervalNs: 100_000, Capacity: 4096}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.IntervalNs <= 0 {
		c.IntervalNs = d.IntervalNs
	}
	if c.Capacity <= 0 {
		c.Capacity = d.Capacity
	}
	return c
}

// Pipeline samples a trace.Registry into per-metric Series on a
// virtual-time cadence.
//
// Locking model: Sample runs on the simulation loop (from a sim.Ticker
// callback, or called explicitly before/after Run). It is the only code
// that touches the registry's instruments — gauge callbacks and
// histogram windows are evaluated there, under the kernel's
// one-process-at-a-time guarantee. Everything Sample writes (the series
// rings, sample counters) is guarded by mu, and the HTTP handlers read
// only that sampled state under mu — never the registry — so a live
// scrape during a run is race-free by construction.
type Pipeline struct {
	mu  sync.Mutex
	cfg Config
	reg *trace.Registry

	series []*Series          // registration order
	byKey  map[string]*Series // full name -> series
	wins   map[string]*stats.HistWindow
	prevG  map[string]float64 // gauges: previous value (for deltas)
	// Cumulative histogram totals since the pipeline started sampling,
	// for Prometheus summary _count/_sum.
	histCount map[string]uint64
	histSum   map[string]float64

	ticker  *sim.Ticker
	samples uint64
	lastT   int64
}

// NewPipeline wires a pipeline to a registry. Call Attach to sample on
// a kernel's virtual clock, or Sample directly for one-shot snapshots.
func NewPipeline(reg *trace.Registry, cfg Config) *Pipeline {
	return &Pipeline{
		cfg:       cfg.withDefaults(),
		reg:       reg,
		byKey:     make(map[string]*Series),
		wins:      make(map[string]*stats.HistWindow),
		prevG:     make(map[string]float64),
		histCount: make(map[string]uint64),
		histSum:   make(map[string]float64),
	}
}

// Config returns the effective (defaulted) configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Attach arms a weak repeating timer on k that calls Sample every
// IntervalNs of virtual time. The ticker never keeps the simulation
// alive and never perturbs event timing (see sim.Ticker).
func (p *Pipeline) Attach(k *sim.Kernel) {
	if p.ticker != nil {
		p.ticker.Stop()
	}
	p.ticker = k.NewTicker(p.cfg.IntervalNs, func(now sim.Time) { p.Sample(now) })
}

// Sample takes one snapshot of every registered metric at virtual time
// now. It must run on the simulation loop (ticker callback, or outside
// Run) per the registry's concurrency contract; series mutation happens
// under the pipeline lock so concurrent HTTP reads are safe.
func (p *Pipeline) Sample(now sim.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.samples++
	p.lastT = now
	qs := [4]float64{50, 95, 99, 99.9}
	var out [4]float64
	p.reg.Each(func(key string, m *trace.Metric) {
		s := p.byKey[key]
		if s == nil {
			s = newSeries(m.Name(), m.Labels(), m.Kind().String(), p.cfg.Capacity)
			p.byKey[key] = s
			p.series = append(p.series, s)
		}
		pt := Point{T: now}
		switch m.Kind() {
		case trace.KindGauge:
			pt.V = m.Gauge()
			pt.D = pt.V - p.prevG[key]
			p.prevG[key] = pt.V
		case trace.KindHistogram:
			w := p.wins[key]
			if w == nil {
				// From-zero so observations made before this histogram's
				// first sample land in its first interval.
				w = stats.NewHistWindowFromZero(m.Hist())
				p.wins[key] = w
			}
			count, sum := w.Advance(qs[:], out[:])
			pt.N = count
			if count > 0 {
				pt.V = sum / float64(count)
			}
			p.histCount[key] += count
			p.histSum[key] += sum
			pt.P50, pt.P95, pt.P99, pt.P999 = out[0], out[1], out[2], out[3]
		}
		s.Append(pt)
	})
}

// Samples returns how many sampling sweeps have run.
func (p *Pipeline) Samples() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.samples
}

// Series returns the live series slice in registration order. The
// returned slice is a copy, but the *Series point into pipeline-owned
// rings: callers off the sim loop must hold no reference across a
// Sample, so prefer Dump/WriteProm/Fairness, which copy under the lock.
func (p *Pipeline) Series() []*Series {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*Series, len(p.series))
	copy(out, p.series)
	return out
}

// Dump is the JSON document served at /telemetry.json and written by
// offline -telemetry mode. It contains only virtual-time state — no
// wall clock, no hostnames — so same-seed runs produce byte-identical
// output.
type Dump struct {
	Schema     string          `json:"schema"`
	IntervalNs int64           `json:"interval_ns"`
	Capacity   int             `json:"capacity"`
	Samples    uint64          `json:"samples"`
	LastTNs    int64           `json:"last_t_ns"`
	Fairness   *FairnessReport `json:"fairness,omitempty"`
	Series     []SeriesDump    `json:"series"`
}

// SeriesDump is one series with its points materialised.
type SeriesDump struct {
	Name    string        `json:"name"`
	Labels  []trace.Label `json:"labels,omitempty"`
	Kind    string        `json:"kind"`
	Dropped uint64        `json:"dropped,omitempty"`
	Points  []Point       `json:"points"`
}

// DumpSchema identifies the telemetry JSON document version.
const DumpSchema = "telemetry/v1"

// Snapshot materialises the full pipeline state as a Dump.
func (p *Pipeline) Snapshot() Dump {
	p.mu.Lock()
	defer p.mu.Unlock()
	d := Dump{
		Schema:     DumpSchema,
		IntervalNs: p.cfg.IntervalNs,
		Capacity:   p.cfg.Capacity,
		Samples:    p.samples,
		LastTNs:    p.lastT,
		Series:     make([]SeriesDump, 0, len(p.series)),
	}
	if f := p.fairnessLocked(0); len(f.Hosts) > 0 {
		d.Fairness = &f
	}
	for _, s := range p.series {
		d.Series = append(d.Series, SeriesDump{
			Name: s.Name, Labels: s.Labels, Kind: s.Kind,
			Dropped: s.Dropped, Points: s.Points(),
		})
	}
	return d
}

// MarshalJSON renders the Snapshot as deterministic indented JSON.
func (p *Pipeline) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(p.Snapshot(), "", " ")
}
