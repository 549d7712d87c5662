// Package sim implements a deterministic discrete-event simulation kernel
// with coroutine-style processes.
//
// The kernel maintains a virtual clock in nanoseconds and an event heap
// ordered by (time, sequence). Simulated actors — CPU threads, device
// controllers, NIC engines — are written as ordinary blocking Go functions
// running in goroutines, but the kernel guarantees that exactly one process
// executes at a time and that wakeups are delivered in a deterministic
// order. This gives SimPy-style ergonomics (Sleep, Wait, Signal) with
// bit-reproducible runs.
//
// Hot-path design (see DESIGN.md "Performance"): scheduled items are
// pooled with generation counters (zero allocations per schedule in the
// steady state), same-timestamp items scheduled during dispatch bypass the
// heap through a FIFO run queue, and a process that sleeps to a wakeup
// that would be the next item anyway advances the clock inline without
// yielding to the kernel goroutine at all — no channel handoffs.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual simulation time in nanoseconds.
type Time = int64

// Duration is a span of virtual time in nanoseconds.
type Duration = int64

// Common durations, mirroring time package granularity.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// item index states outside the heap.
const (
	idxDetached = -1 // not scheduled (free, executing, or canceled)
	idxRunQueue = -2 // queued in the same-timestamp run queue
)

// item is a scheduled entry: either a callback (fn) or a process wakeup
// (proc). Items are pooled; gen increments on every release so a stale
// handle to a reused item can neither cancel it nor observe it.
type item struct {
	t    Time
	seq  uint64
	fn   func() // callback: runs inline in the kernel loop; must not block
	proc *Proc  // wakeup: resume this process...
	wake uint64 // ...only if it is still blocked in the same yield epoch
	idx  int
	gen  uint64
}

// timer is a cancelable handle to a scheduled item. The generation pin
// makes cancellation of an already-fired (and possibly reused) item a
// safe no-op.
type timer struct {
	it  *item
	gen uint64
}

// eventHeap is a binary min-heap of items ordered by (time, sequence).
// Hand-rolled (no container/heap) to avoid interface boxing on the
// simulator's hottest data structure.
type eventHeap []*item

func (h eventHeap) before(a, b *item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h[i], h[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

// down sifts the element at i toward the leaves; it reports whether the
// element moved.
func (h eventHeap) down(i int) bool {
	start := i
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && h.before(h[r], h[l]) {
			j = r
		}
		if !h.before(h[j], h[i]) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > start
}

func (h *eventHeap) push(it *item) {
	it.idx = len(*h)
	*h = append(*h, it)
	h.up(it.idx)
}

// popMin removes and returns the earliest item. It clears the item's idx
// itself — callers must not be trusted to, or a stale index could corrupt
// a later cancel.
func (h *eventHeap) popMin() *item {
	old := *h
	it := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[0].idx = 0
	old[n] = nil
	*h = old[:n]
	if n > 1 {
		(*h).down(0)
	}
	it.idx = idxDetached
	return it
}

// removeAt removes the item at heap index i (for cancellation), clearing
// its idx.
func (h *eventHeap) removeAt(i int) *item {
	old := *h
	n := len(old) - 1
	it := old[i]
	if i != n {
		old[i] = old[n]
		old[i].idx = i
	}
	old[n] = nil
	*h = old[:n]
	if i < n {
		if !(*h).down(i) {
			(*h).up(i)
		}
	}
	it.idx = idxDetached
	return it
}

// Kernel is a discrete-event simulation executor. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now  Time
	seq  uint64
	heap eventHeap
	// runq holds items scheduled for the current timestamp while the
	// kernel is dispatching that timestamp: they never touch the heap.
	// rqh is the drain cursor.
	runq []*item
	rqh  int
	// pool is the item free list; released items keep their backing
	// storage so steady-state scheduling allocates nothing.
	pool        []*item
	ack         chan struct{} // a running process signals the kernel here when it yields or exits
	stopping    bool
	dispatching bool // inside Run (or Shutdown) dispatch
	limit       Time // Run's current limit, valid while dispatching
	nprocs      int
	executed    uint64
	parked      waiterSet
	// tickers are weak repeating timers driven by the Run loop (telemetry
	// samplers). nextTick caches the earliest pending tick so the hot path
	// pays one comparison; MaxTime when no ticker is armed.
	tickers  []*Ticker
	nextTick Time
	// Observability counters (plain increments on the hot path; read via
	// Stats). They never affect scheduling.
	scheduled    uint64
	runQueued    uint64
	poolMisses   uint64
	inlineSleeps uint64
	ticks        uint64
}

// KernelStats is a snapshot of the kernel's scheduler-work counters. All
// fields are monotonic totals since NewKernel.
type KernelStats struct {
	Executed     uint64 // items dispatched by Run (incl. inline sleeps)
	Scheduled    uint64 // items enqueued (heap + run queue)
	RunQueued    uint64 // same-timestamp items that bypassed the heap
	PoolMisses   uint64 // item allocations because the pool was empty
	InlineSleeps uint64 // Sleep fast-path clock advances (no item at all)
	Ticks        uint64 // ticker firings (not counted in Executed)
}

// Stats returns the kernel's scheduler-work counters.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Executed:     k.executed,
		Scheduled:    k.scheduled,
		RunQueued:    k.runQueued,
		PoolMisses:   k.poolMisses,
		InlineSleeps: k.inlineSleeps,
		Ticks:        k.ticks,
	}
}

// NewKernel returns a kernel with the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{ack: make(chan struct{}), nextTick: MaxTime}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Executed reports the number of events processed by Run so far: heap and
// run-queue items plus fast-path sleeps that stand in for a heap item.
// Useful for detecting runaway simulations in tests and for wall-clock
// events/sec metrics. Shutdown's drain does not count.
func (k *Kernel) Executed() uint64 { return k.executed }

// get takes an item from the pool, or allocates one.
func (k *Kernel) get() *item {
	if n := len(k.pool) - 1; n >= 0 {
		it := k.pool[n]
		k.pool[n] = nil
		k.pool = k.pool[:n]
		return it
	}
	k.poolMisses++
	return &item{idx: idxDetached}
}

// put releases an item back to the pool, bumping its generation so stale
// timer handles cannot touch the reused item.
func (k *Kernel) put(it *item) {
	it.gen++
	it.fn = nil
	it.proc = nil
	it.idx = idxDetached
	k.pool = append(k.pool, it)
}

// newItem allocates and enqueues an item for time t. Same-timestamp items
// created while the kernel dispatches that timestamp go to the run queue
// (FIFO, already in seq order) instead of the heap.
func (k *Kernel) newItem(t Time) *item {
	if t < k.now {
		panic(fmt.Sprintf("sim: schedule in the past: %d < %d", t, k.now))
	}
	k.seq++
	k.scheduled++
	it := k.get()
	it.t = t
	it.seq = k.seq
	if k.dispatching && t == k.now {
		it.idx = idxRunQueue
		k.runQueued++
		k.runq = append(k.runq, it)
	} else {
		k.heap.push(it)
	}
	return it
}

// schedule enqueues fn to run at time t. Items scheduled for the same time
// run in scheduling order.
func (k *Kernel) schedule(t Time, fn func()) timer {
	it := k.newItem(t)
	it.fn = fn
	return timer{it: it, gen: it.gen}
}

// scheduleProc enqueues a wakeup for p at time t, pinned to p's current
// yield epoch: if p has been resumed by something else before this item
// fires (e.g. an event trigger racing a timeout timer at the same
// timestamp), the stale wakeup is discarded instead of resuming p out of
// turn.
func (k *Kernel) scheduleProc(t Time, p *Proc) timer {
	it := k.newItem(t)
	it.proc = p
	it.wake = p.epoch
	return timer{it: it, gen: it.gen}
}

// cancel removes a scheduled item if it is still pending and the handle
// is current.
func (k *Kernel) cancel(tm timer) {
	it := tm.it
	if it == nil || it.gen != tm.gen {
		return // already fired (and possibly reused): no-op
	}
	switch {
	case it.idx >= 0:
		k.heap.removeAt(it.idx)
		k.put(it)
	case it.idx == idxRunQueue:
		// Neutralize in place; the drain loop releases it.
		it.fn = nil
		it.proc = nil
	}
}

// After schedules fn to run after delay d of virtual time. fn runs inline in
// the kernel loop and must not block; use Spawn for blocking logic.
func (k *Kernel) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, fn)
}

// Ticker is a weak repeating timer: fn fires at every multiple of the
// interval, but only while other simulation work remains, so a ticker
// never keeps RunAll alive on its own. This is the sampling primitive
// for virtual-time telemetry: a sampler observes the system at a fixed
// virtual cadence without scheduling kernel items, which means it cannot
// perturb event ordering, Executed counts, or I/O timing.
//
// Ordering: a tick due at time T fires before any scheduled item at T,
// so a sample at T sees the state strictly before T's events run. fn
// runs inline on the kernel goroutine and must not block; it may read
// simulation state freely.
type Ticker struct {
	k        *Kernel
	interval Duration
	next     Time
	fn       func(now Time)
	stopped  bool
}

// NewTicker arms a ticker firing fn every interval of virtual time,
// starting at now+interval. Panics if interval is not positive.
func (k *Kernel) NewTicker(interval Duration, fn func(now Time)) *Ticker {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: ticker interval must be positive, got %d", interval))
	}
	tk := &Ticker{k: k, interval: interval, next: k.now + interval, fn: fn}
	k.tickers = append(k.tickers, tk)
	k.refreshNextTick()
	return tk
}

// Stop disarms the ticker. Safe to call more than once.
func (tk *Ticker) Stop() {
	if tk.stopped {
		return
	}
	tk.stopped = true
	tk.k.refreshNextTick()
}

// refreshNextTick recomputes the earliest pending tick, compacting out
// stopped tickers.
func (k *Kernel) refreshNextTick() {
	k.nextTick = MaxTime
	live := k.tickers[:0]
	for _, tk := range k.tickers {
		if tk.stopped {
			continue
		}
		live = append(live, tk)
		if tk.next < k.nextTick {
			k.nextTick = tk.next
		}
	}
	for i := len(live); i < len(k.tickers); i++ {
		k.tickers[i] = nil
	}
	k.tickers = live
}

// fireTickers advances the clock to the earliest pending tick and fires
// every ticker due at that instant, in arming order.
func (k *Kernel) fireTickers() {
	t := k.nextTick
	k.now = t
	for _, tk := range k.tickers {
		if !tk.stopped && tk.next == t {
			tk.next = t + tk.interval
			k.ticks++
			tk.fn(t)
		}
	}
	k.refreshNextTick()
}

// Stopped is the panic value used to unwind processes when the kernel shuts
// down. Process functions must not recover it.
type Stopped struct{}

func (Stopped) Error() string { return "sim: kernel stopped" }

// Proc is a simulated process. A Proc may only call its blocking methods
// (Sleep, Wait, ...) from the goroutine running its body.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	// epoch counts completed yields; a wakeup item targets the epoch it
	// was scheduled in, making stale wakeups self-discarding.
	epoch  uint64
	dead   bool
	exitEv *Event
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process runs under.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Spawn creates a process executing fn. The process starts at the current
// virtual time, after already-scheduled items for that time.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), exitEv: NewEvent(k)}
	k.nprocs++
	k.schedule(k.now, func() {
		go p.run(fn)
		<-k.ack
	})
	return p
}

// SpawnAt is like Spawn but delays process start by d.
func (k *Kernel) SpawnAt(d Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, resume: make(chan struct{}), exitEv: NewEvent(k)}
	k.nprocs++
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, func() {
		go p.run(fn)
		<-k.ack
	})
	return p
}

func (p *Proc) run(fn func(p *Proc)) {
	defer func() {
		p.dead = true
		p.k.nprocs--
		if r := recover(); r != nil {
			if _, ok := r.(Stopped); ok {
				// Unwound by kernel shutdown: hand control back quietly.
				p.k.ack <- struct{}{}
				return
			}
			panic(r)
		}
		p.exitEv.Trigger(nil)
		p.k.ack <- struct{}{}
	}()
	fn(p)
}

// yield hands control back to the kernel and blocks until resumed.
func (p *Proc) yield() {
	p.k.ack <- struct{}{}
	<-p.resume
	p.epoch++
	if p.k.stopping {
		panic(Stopped{})
	}
}

// wakeAt schedules this process to resume at time t.
func (p *Proc) wakeAt(t Time) timer {
	return p.k.scheduleProc(t, p)
}

// Sleep blocks the process for d of virtual time. Negative durations are
// treated as zero (the process still lets same-time items run first).
//
// Fast path: when the wakeup would be the very next item the kernel
// dispatches anyway — nothing in the run queue, nothing in the heap before
// t, t within Run's limit — the process advances the clock inline and
// keeps running. No item, no heap operations, no goroutine handoffs; the
// observable schedule is identical.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	k := p.k
	t := k.now + d
	if k.dispatching && !k.stopping && t <= k.limit && t < k.nextTick &&
		k.rqh >= len(k.runq) && (len(k.heap) == 0 || k.heap[0].t > t) {
		k.now = t
		k.executed++
		k.inlineSleeps++
		return
	}
	p.wakeAt(t)
	p.yield()
}

// Exited returns an event triggered when the process function returns.
func (p *Proc) Exited() *Event { return p.exitEv }

// next removes and returns the earliest pending item, merging the heap
// and the run queue by (time, seq). Run-queue items always carry the
// current timestamp; heap items at the same timestamp but a smaller seq
// (scheduled before dispatch reached this timestamp) still win.
func (k *Kernel) next() *item {
	if k.rqh < len(k.runq) {
		it := k.runq[k.rqh]
		if len(k.heap) > 0 && k.heap.before(k.heap[0], it) {
			return k.heap.popMin()
		}
		k.runq[k.rqh] = nil
		k.rqh++
		if k.rqh == len(k.runq) {
			k.runq = k.runq[:0]
			k.rqh = 0
		}
		return it
	}
	return k.heap.popMin()
}

// dispatch executes one item and releases it to the pool.
func (k *Kernel) dispatch(it *item) {
	switch {
	case it.proc != nil:
		p := it.proc
		if !p.dead && p.epoch == it.wake {
			p.resume <- struct{}{}
			<-k.ack
		}
	case it.fn != nil:
		it.fn()
	}
	k.put(it)
}

// Run executes scheduled items until none remain or until the clock
// would pass limit. It returns the virtual time at which execution stopped.
// Use MaxTime to run to completion.
func (k *Kernel) Run(limit Time) Time {
	k.dispatching = true
	k.limit = limit
	defer func() { k.dispatching = false }()
	for {
		var tnext Time
		if k.rqh < len(k.runq) {
			tnext = k.now
		} else if len(k.heap) > 0 {
			tnext = k.heap[0].t
		} else {
			break
		}
		if tnext > limit {
			k.now = limit
			return k.now
		}
		// Weak-timer semantics: ticks fire only when simulation work
		// remains at or after the tick time within the limit.
		if k.nextTick <= tnext {
			k.fireTickers()
			continue
		}
		it := k.next()
		k.now = it.t
		k.executed++
		k.dispatch(it)
	}
	return k.now
}

// RunAll runs the simulation until no scheduled items remain.
func (k *Kernel) RunAll() Time { return k.Run(MaxTime) }

// Shutdown unwinds all blocked processes so their goroutines exit. Pending
// timers for dead processes are discarded. Call after Run when the kernel
// will no longer be used (e.g. between benchmark iterations) to avoid
// leaking goroutines. Shutdown's drain does not count toward Executed —
// only items genuinely run by Run do.
func (k *Kernel) Shutdown() {
	k.stopping = true
	// Resuming a blocked process makes it panic with Stopped{} in yield.
	// Blocked processes are exactly those with live goroutines waiting on
	// p.resume. We cannot enumerate them from here, so shutdown works by
	// the cooperation of wakeups: drain pending items (timers resume and
	// immediately unwind), then unwind waiters parked on events. Unwinding
	// defers may schedule again (e.g. trigger an exit event), so loop
	// until nothing is left.
	for {
		progress := false
		k.dispatching = true
		k.limit = k.now
		for k.rqh < len(k.runq) || len(k.heap) > 0 {
			k.dispatch(k.next())
			progress = true
		}
		k.dispatching = false
		for _, w := range k.collectWaiters() {
			if !w.dead {
				w.resume <- struct{}{}
				<-k.ack
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// waiterSet tracks processes parked on events so Shutdown can unwind them.
// Events register and deregister their waiters here.
type waiterSet map[*Proc]struct{}

// parked processes indexed on the kernel.
func (k *Kernel) collectWaiters() []*Proc {
	out := make([]*Proc, 0, len(k.parked))
	for p := range k.parked {
		out = append(out, p)
	}
	// Deterministic order is unnecessary during shutdown, but keep it
	// stable for debuggability: order by name then pointer identity is
	// not available; shutdown order does not affect simulation results.
	return out
}

// park/unpark bookkeeping used by Event.
func (k *Kernel) park(p *Proc) {
	if k.parked == nil {
		k.parked = make(waiterSet)
	}
	k.parked[p] = struct{}{}
}

func (k *Kernel) unpark(p *Proc) {
	delete(k.parked, p)
}
