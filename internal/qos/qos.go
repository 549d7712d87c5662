// Package qos tracks per-tenant service-level objectives over the
// shared device and throttles tenants that blow their tail-latency
// budget.
//
// The feedback loop closes entirely at the client side, mirroring the
// paper's single-function constraint: a commodity NVMe controller
// offers WRR arbitration between queues but no per-tenant policing, so
// any finer-grained QoS must happen before commands reach the shared
// submission queues. The Controller therefore sits between the arrival
// engine and the core client:
//
//	arrival.Engine → Controller.Admit (shed?) → core.Client → device
//	        ↑                                        │
//	        └──────── Controller.Observe ←───────────┘ (per-IO latency)
//
// Every windowNs of virtual time a tracker window closes: the interval
// p99/p99.9 (from stats.HistWindow over the tenant's running power
// histogram) is compared against the tenant's SLO. ViolateAfter
// consecutive bad windows trip AIMD throttling — the tenant's admit
// fraction is multiplicatively decreased, shedding a deterministic
// subset of its arrivals — and recoverAfter consecutive clean windows
// walk it back up additively. Admission decisions use a counted-ratio
// pacer rather than a random draw, keeping the whole control loop
// byte-reproducible for a fixed seed.
package qos

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// SLO is a tenant's tail-latency budget in virtual nanoseconds. A zero
// field is unchecked.
type SLO struct {
	P99Ns  int64
	P999Ns int64
}

// TenantConfig names a tenant and sets its objective. Tenants with a
// zero SLO are tracked but never throttled (best-effort class).
type TenantConfig struct {
	Name string
	SLO  SLO
	// Exempt tenants are tracked — windows, violations, percentiles —
	// but never throttled. This is the latency-critical class: when its
	// tail blows up, the cause is interference, and shedding the victim
	// would only hand its capacity to the aggressor. Only tenants
	// willing to trade throughput for the cluster's health (bulk,
	// best-effort) leave Exempt unset.
	Exempt bool
}

// The control loop's fixed settings.
const (
	// windowNs is the SLO evaluation window.
	windowNs = sim.Millisecond
	// recoverAfter is how many consecutive clean windows ease the
	// throttle one step.
	recoverAfter = 2
	// minAdmit floors the admit fraction so a throttled tenant keeps a
	// trickle of probes flowing — without them its windows go empty and
	// the loop could never observe recovery.
	minAdmit = 0.05
)

// Params tunes the control loop. Zero fields take documented defaults.
type Params struct {
	// ViolateAfter is how many consecutive violating windows trip
	// throttling (default 2 — one bad window is noise, two is a trend).
	ViolateAfter int
	// Decrease is the multiplicative backoff applied to the admit
	// fraction on a trip (default 0.5).
	Decrease float64
	// Increase is the additive recovery step (default 0.1).
	Increase float64
}

func (p Params) withDefaults() Params {
	if p.ViolateAfter <= 0 {
		p.ViolateAfter = 2
	}
	if p.Decrease <= 0 || p.Decrease >= 1 {
		p.Decrease = 0.5
	}
	if p.Increase <= 0 {
		p.Increase = 0.1
	}
	return p
}

// tenant is the per-tenant control state.
type tenant struct {
	cfg  TenantConfig
	hist *stats.PowHistogram // lifetime latency histogram
	win  *stats.HistWindow   // interval view for windowed quantiles

	admitFrac float64
	seen      uint64 // arrivals observed this window
	admitted  uint64 // arrivals admitted this window

	badStreak   int
	cleanStreak int

	// Rolled-up counters for reporting and gauges.
	windows      uint64 // windows with at least one completion
	violations   uint64 // windows that violated the SLO
	throttleOps  uint64 // AIMD decrease events
	shedDecided  uint64 // Admit calls answered false
	lastP99Ns    float64
	lastP999Ns   float64
	lastWinCount uint64
}

// TenantSnapshot is a point-in-time view of one tenant's QoS state.
type TenantSnapshot struct {
	Name         string
	AdmitFrac    float64
	Windows      uint64
	Violations   uint64
	Throttles    uint64
	Sheds        uint64
	LastP99Ns    float64
	LastP999Ns   float64
	TotalCount   uint64
	TotalP99Ns   float64
	TotalP999Ns  float64
	TotalMeanNs  float64
	Violating    bool // currently in a violating streak
	Throttled    bool // admit fraction below 1
	SLOP99Ns     int64
	SLOP999Ns    int64
	LastWinCount uint64
}

// Controller runs the SLO tracking and admission loop for one client's
// tenant population. Not internally locked: the simulation kernel
// serialises all callers.
type Controller struct {
	params  Params
	tenants []*tenant
	ticker  *sim.Ticker
	qbuf    [2]float64
}

// NewController builds a controller for the given tenants and starts
// its evaluation ticker on k.
func NewController(k *sim.Kernel, params Params, tenants []TenantConfig) *Controller {
	c := &Controller{params: params.withDefaults()}
	for _, tc := range tenants {
		h := stats.NewPowHistogram(4)
		c.tenants = append(c.tenants, &tenant{
			cfg:       tc,
			hist:      h,
			win:       stats.NewHistWindow(h),
			admitFrac: 1.0,
		})
	}
	c.ticker = k.NewTicker(windowNs, func(now sim.Time) { c.tick() })
	return c
}

// Stop halts the evaluation ticker.
func (c *Controller) Stop() { c.ticker.Stop() }

// Admit is the client-side gate (wired as core.Client's AdmitFunc): it
// decides deterministically whether tenant i's next arrival may
// proceed. Pacing is a counted ratio — admit while the running
// admitted/seen ratio stays at or below the admit fraction — so equal
// histories always yield equal decisions.
func (c *Controller) Admit(i int, now int64) bool {
	t := c.tenants[i]
	t.seen++
	if t.admitFrac >= 1.0 {
		t.admitted++
		return true
	}
	if float64(t.admitted+1) <= t.admitFrac*float64(t.seen) {
		t.admitted++
		return true
	}
	t.shedDecided++
	return false
}

// Observe records one completed request's latency for tenant i. Wire it
// to the arrival engine's OnComplete; errors (shed, faults) should not
// be observed — only served requests define the service-level tail.
func (c *Controller) Observe(i int, latNs int64) {
	c.tenants[i].hist.AddNs(latNs)
}

// tick closes the evaluation window for every tenant.
func (c *Controller) tick() {
	for _, t := range c.tenants {
		qs := []float64{99, 99.9}
		count, _ := t.win.Advance(qs, c.qbuf[:])
		t.lastWinCount = count
		if count == 0 {
			// No completions: an idle tenant is trivially clean; a
			// fully-shed one is kept alive by the minAdmit trickle.
			t.seen, t.admitted = 0, 0
			continue
		}
		t.windows++
		t.lastP99Ns, t.lastP999Ns = c.qbuf[0], c.qbuf[1]
		violated := false
		if s := t.cfg.SLO; s.P99Ns > 0 && t.lastP99Ns > float64(s.P99Ns) {
			violated = true
		} else if s.P999Ns > 0 && t.lastP999Ns > float64(s.P999Ns) {
			violated = true
		}
		if violated {
			t.violations++
			t.badStreak++
			t.cleanStreak = 0
			if !t.cfg.Exempt && t.badStreak >= c.params.ViolateAfter {
				t.admitFrac *= c.params.Decrease
				if t.admitFrac < minAdmit {
					t.admitFrac = minAdmit
				}
				t.throttleOps++
				t.badStreak = 0
			}
		} else {
			t.cleanStreak++
			t.badStreak = 0
			if t.cleanStreak >= recoverAfter && t.admitFrac < 1.0 {
				t.admitFrac += c.params.Increase
				if t.admitFrac > 1.0 {
					t.admitFrac = 1.0
				}
				t.cleanStreak = 0
			}
		}
		// Fresh pacing ratio each window so the gate tracks the current
		// fraction instead of a stale lifetime average.
		t.seen, t.admitted = 0, 0
	}
}

// Snapshot returns tenant i's current state.
func (c *Controller) Snapshot(i int) TenantSnapshot {
	t := c.tenants[i]
	return TenantSnapshot{
		Name:         t.cfg.Name,
		AdmitFrac:    t.admitFrac,
		Windows:      t.windows,
		Violations:   t.violations,
		Throttles:    t.throttleOps,
		Sheds:        t.shedDecided,
		LastP99Ns:    t.lastP99Ns,
		LastP999Ns:   t.lastP999Ns,
		TotalCount:   t.hist.Count(),
		TotalP99Ns:   t.hist.Percentile(99),
		TotalP999Ns:  t.hist.Percentile(99.9),
		TotalMeanNs:  t.hist.Mean(),
		Violating:    t.badStreak > 0,
		Throttled:    t.admitFrac < 1.0,
		SLOP99Ns:     t.cfg.SLO.P99Ns,
		SLOP999Ns:    t.cfg.SLO.P999Ns,
		LastWinCount: t.lastWinCount,
	}
}

// Tenants returns the tenant count.
func (c *Controller) Tenants() int { return len(c.tenants) }

// TotalViolations sums SLO-violating windows across tenants.
func (c *Controller) TotalViolations() uint64 {
	var n uint64
	for _, t := range c.tenants {
		n += t.violations
	}
	return n
}

// TotalThrottles sums AIMD decrease events across tenants.
func (c *Controller) TotalThrottles() uint64 {
	var n uint64
	for _, t := range c.tenants {
		n += t.throttleOps
	}
	return n
}

// TotalSheds sums refused admissions across tenants.
func (c *Controller) TotalSheds() uint64 {
	var n uint64
	for _, t := range c.tenants {
		n += t.shedDecided
	}
	return n
}

// MinAdmitFrac returns the lowest admit fraction across tenants — 1.0
// means nobody is throttled.
func (c *Controller) MinAdmitFrac() float64 {
	min := 1.0
	for _, t := range c.tenants {
		if t.admitFrac < min {
			min = t.admitFrac
		}
	}
	return min
}

func (s TenantSnapshot) String() string {
	return fmt.Sprintf("%s admit=%.2f windows=%d viol=%d p99=%.0fns p99.9=%.0fns",
		s.Name, s.AdmitFrac, s.Windows, s.Violations, s.TotalP99Ns, s.TotalP999Ns)
}
