// Package arrival generates open-loop request streams for large tenant
// populations multiplexed onto shared queue pairs.
//
// Closed-loop load (a fixed worker pool that waits for each completion
// before issuing the next request) understates tail latency under
// contention: when the device slows down, a closed loop slows its own
// offered rate and the queue never builds. The paper's QoS question —
// what happens to a latency-sensitive tenant when a noisy neighbour
// overdrives the shared controller — only shows up under open-loop
// arrivals, where requests keep coming at the configured rate whether or
// not earlier ones finished.
//
// One Engine drives all tenants bound to one core client from a single
// simulation process: a binary heap of per-tenant next-arrival times is
// popped in virtual-time order, each arrival is dispatched to a
// fire-and-forget worker process, and the tenant's next arrival is
// sampled from its own splitmix64-seeded stream. Because generation is
// single-process and every random draw comes from a per-tenant counter
// RNG, the arrival stream for a fixed seed is byte-reproducible — the
// Engine folds every arrival into an FNV-1a digest so tests can assert
// identity across GOMAXPROCS settings.
//
// Two arrival processes cover the workload taxonomy used in the
// evaluation:
//
//   - Poisson: memoryless arrivals at a constant mean rate.
//   - MMPP: a two-state Markov-modulated process (exponential on/off
//     dwell times) that emits Poisson arrivals only while "on" — the
//     classic bursty-tenant model.
//
// Every request is requestBlocks long.
package arrival

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind selects a tenant's arrival process.
type Kind int

const (
	// Poisson arrivals at a constant RateHz.
	Poisson Kind = iota
	// MMPP is a two-state on/off Markov-modulated Poisson process:
	// arrivals at RateHz while on, silence while off, with
	// exponentially distributed dwell times OnMeanNs / OffMeanNs.
	MMPP
)

// requestBlocks is the length of every request in blocks.
const requestBlocks = 1

func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case MMPP:
		return "mmpp"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// TenantSpec describes one tenant's traffic.
type TenantSpec struct {
	Name   string
	Kind   Kind
	RateHz float64 // mean arrival rate (on-state rate for MMPP)

	// MMPP dwell times (ignored for Poisson).
	OnMeanNs  int64
	OffMeanNs int64

	ReadFrac float64 // fraction of requests that are reads (0 = all writes)

	// MaxOutstanding bounds the tenant's in-flight requests. An arrival
	// that would exceed it is dropped (counted, never submitted): an
	// open-loop source does not block, it overflows. 0 means unbounded.
	MaxOutstanding int
}

// TenantStats counts one tenant's stream outcomes. Issued + Dropped is
// the total arrival count; Completed + Shed + Failed converges to Issued
// once in-flight requests drain.
type TenantStats struct {
	Issued    uint64 // submitted to the client
	Dropped   uint64 // overflowed MaxOutstanding, never submitted
	Completed uint64 // submitted and finished without error
	Shed      uint64 // refused by admission control (Config.Shed matched)
	Failed    uint64 // submitted and finished with any other error
}

// SubmitFunc performs one tenant request. It runs on a dedicated worker
// process and may block for the full service time.
type SubmitFunc func(p *sim.Proc, tenant int, read bool, lba uint64, nblk int) error

// Config assembles an Engine.
type Config struct {
	Seed    uint64
	Tenants []TenantSpec
	// SpanBlocks is the LBA range [0, SpanBlocks) requests are drawn
	// from uniformly.
	SpanBlocks uint64
	Submit     SubmitFunc
	// OnComplete, when set, observes every submitted request's outcome
	// (latency in virtual ns, error or nil) — the QoS tracker's feed.
	OnComplete func(tenant int, latNs int64, err error)
	// Shed, when set, classifies completion errors matching it
	// (errors.Is) as admission sheds rather than failures.
	Shed error
	// HorizonNs stops generation this long after Run starts (0 = run
	// until Stop). In-flight requests still drain afterwards.
	HorizonNs int64
}

type tenantState struct {
	spec        TenantSpec
	rng         uint64
	next        sim.Time // next arrival
	outstanding int
	// MMPP phase tracking: end of the current on-phase.
	phaseEnd sim.Time
	stats    TenantStats
}

// Engine multiplexes the configured tenants into one deterministic
// arrival stream. Drive it with kernel.Spawn(name, engine.Run).
type Engine struct {
	cfg     Config
	tenants []*tenantState
	heap    []int // tenant indices ordered by (next arrival, index)
	stopped bool
	started sim.Time
	digest  uint64
	seq     uint64
}

// New validates cfg and builds an Engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Tenants) == 0 {
		return nil, errors.New("arrival: no tenants")
	}
	if cfg.Submit == nil {
		return nil, errors.New("arrival: Submit is required")
	}
	if cfg.SpanBlocks == 0 {
		return nil, errors.New("arrival: SpanBlocks is required")
	}
	e := &Engine{cfg: cfg, digest: fnvOffset}
	for i := range cfg.Tenants {
		s := cfg.Tenants[i]
		if s.RateHz <= 0 {
			return nil, fmt.Errorf("arrival: tenant %d (%s): RateHz must be positive", i, s.Name)
		}
		if s.Kind == MMPP && (s.OnMeanNs <= 0 || s.OffMeanNs <= 0) {
			return nil, fmt.Errorf("arrival: tenant %d (%s): MMPP needs positive On/OffMeanNs", i, s.Name)
		}
		// Golden-ratio gamma spaces per-tenant streams so tenant i's
		// draws never alias tenant j's regardless of draw counts.
		e.tenants = append(e.tenants, &tenantState{
			spec: s,
			rng:  cfg.Seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15,
		})
	}
	return e, nil
}

// Run is the generator process body: it pops arrivals in virtual-time
// order, fires each on a worker process, and reschedules the tenant.
func (e *Engine) Run(p *sim.Proc) {
	e.started = p.Now()
	for i, t := range e.tenants {
		if t.spec.Kind == MMPP {
			t.phaseEnd = e.started + t.expNs(float64(t.spec.OnMeanNs))
		}
		t.next = e.nextArrival(t, e.started)
		e.push(i)
	}
	for !e.stopped && len(e.heap) > 0 {
		i := e.pop()
		t := e.tenants[i]
		at := t.next
		if e.cfg.HorizonNs > 0 && at >= e.started+e.cfg.HorizonNs {
			return // heap order: every remaining arrival is later still
		}
		if at > p.Now() {
			p.Sleep(at - p.Now())
		}
		if e.stopped {
			return
		}
		e.fire(p, i, t)
		t.next = e.nextArrival(t, at)
		e.push(i)
	}
}

// Stop halts generation at the next scheduling point. In-flight
// requests drain normally.
func (e *Engine) Stop() { e.stopped = true }

// fire dispatches one arrival for tenant i.
func (e *Engine) fire(p *sim.Proc, i int, t *tenantState) {
	read := t.u01() < t.spec.ReadFrac
	lba := splitmix(&t.rng) % (e.cfg.SpanBlocks - requestBlocks + 1)
	e.mix(uint64(i), uint64(t.next), lba, requestBlocks, boolWord(read))
	if t.spec.MaxOutstanding > 0 && t.outstanding >= t.spec.MaxOutstanding {
		t.stats.Dropped++
		return
	}
	t.stats.Issued++
	t.outstanding++
	e.seq++
	name := fmt.Sprintf("arrival/t%d-%d", i, e.seq)
	p.Kernel().Spawn(name, func(wp *sim.Proc) {
		start := wp.Now()
		err := e.cfg.Submit(wp, i, read, lba, requestBlocks)
		t.outstanding--
		switch {
		case err == nil:
			t.stats.Completed++
		case e.cfg.Shed != nil && errors.Is(err, e.cfg.Shed):
			t.stats.Shed++
		default:
			t.stats.Failed++
		}
		if e.cfg.OnComplete != nil {
			e.cfg.OnComplete(i, wp.Now()-start, err)
		}
	})
}

// nextArrival samples tenant t's next arrival strictly after `at`.
func (e *Engine) nextArrival(t *tenantState, at sim.Time) sim.Time {
	meanGap := 1e9 / t.spec.RateHz
	switch t.spec.Kind {
	case MMPP:
		// The Poisson clock only runs while the tenant is on: walk the
		// sampled gap across on-phases, skipping off dwells entirely.
		remaining := t.expNs(meanGap)
		cur := at
		for {
			if cur+remaining <= t.phaseEnd {
				return cur + remaining
			}
			remaining -= t.phaseEnd - cur
			if remaining < 1 {
				remaining = 1
			}
			cur = t.phaseEnd + t.expNs(float64(t.spec.OffMeanNs))
			t.phaseEnd = cur + t.expNs(float64(t.spec.OnMeanNs))
		}
	default: // Poisson
		return at + t.expNs(meanGap)
	}
}

// Stats returns tenant i's counters.
func (e *Engine) Stats(i int) TenantStats { return e.tenants[i].stats }

// Outstanding returns tenant i's current in-flight count.
func (e *Engine) Outstanding(i int) int { return e.tenants[i].outstanding }

// Totals sums counters across all tenants.
func (e *Engine) Totals() TenantStats {
	var out TenantStats
	for _, t := range e.tenants {
		out.Issued += t.stats.Issued
		out.Dropped += t.stats.Dropped
		out.Completed += t.stats.Completed
		out.Shed += t.stats.Shed
		out.Failed += t.stats.Failed
	}
	return out
}

// Digest returns the FNV-1a fold of every arrival generated so far
// (tenant, time, LBA, length, direction). Two runs with the same seed
// and tenant set produce the same digest bit-for-bit, independent of
// GOMAXPROCS — the generator is one simulation process and all
// randomness is per-tenant counter-based.
func (e *Engine) Digest() uint64 { return e.digest }

// Fleet replicates spec n times with indexed names — the shorthand for
// "hundreds of identical tenants".
func Fleet(n int, spec TenantSpec) []TenantSpec {
	out := make([]TenantSpec, n)
	for i := range out {
		out[i] = spec
		out[i].Name = fmt.Sprintf("%s-%d", spec.Name, i)
	}
	return out
}

// --- deterministic randomness ---

// splitmix advances a splitmix64 state and returns the next value.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u01 draws uniform [0,1) with 53 bits of mantissa.
func (t *tenantState) u01() float64 {
	return float64(splitmix(&t.rng)>>11) / (1 << 53)
}

// expNs draws an exponential with the given mean, floored at 1 ns so
// virtual time always advances.
func (t *tenantState) expNs(meanNs float64) sim.Time {
	u := t.u01()
	g := -math.Log(1-u) * meanNs
	n := sim.Time(g)
	if n < 1 {
		n = 1
	}
	return n
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func (e *Engine) mix(words ...uint64) {
	h := e.digest
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			h ^= w >> s & 0xFF
			h *= fnvPrime
		}
	}
	e.digest = h
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// --- binary min-heap of tenant indices, keyed (next, index) ---

func (e *Engine) less(a, b int) bool {
	ta, tb := e.tenants[a], e.tenants[b]
	if ta.next != tb.next {
		return ta.next < tb.next
	}
	return a < b
}

func (e *Engine) push(i int) {
	e.heap = append(e.heap, i)
	c := len(e.heap) - 1
	for c > 0 {
		parent := (c - 1) / 2
		if !e.less(e.heap[c], e.heap[parent]) {
			break
		}
		e.heap[c], e.heap[parent] = e.heap[parent], e.heap[c]
		c = parent
	}
}

func (e *Engine) pop() int {
	top := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap = e.heap[:last]
	c := 0
	for {
		l, r := 2*c+1, 2*c+2
		min := c
		if l < len(e.heap) && e.less(e.heap[l], e.heap[min]) {
			min = l
		}
		if r < len(e.heap) && e.less(e.heap[r], e.heap[min]) {
			min = r
		}
		if min == c {
			break
		}
		e.heap[c], e.heap[min] = e.heap[min], e.heap[c]
		c = min
	}
	return top
}
