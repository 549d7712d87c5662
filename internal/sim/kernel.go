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
// The dispatch loop runs on whichever goroutine holds it: Run's caller
// until the first process wakes, then each process as it blocks.
// Callbacks and ticks run inline on that goroutine. When the next item
// wakes another process, the loop passes to it with one channel send
// (direct handoff); when it wakes the blocking process itself, that
// process keeps running with no goroutine switch. Run's caller gets the
// loop back once no item is left within the limit. So a panicking
// callback panics on whichever goroutine holds the loop, just as a
// panicking process panics on its own.
//
// A goroutine that runs processes is a runner, and it outlives them. When
// a process's body returns, its runner parks itself on the kernel's idle
// list, passes the dispatch loop on and waits on its own start channel. A
// process's first wakeup runs it on a parked runner; only when none is
// parked does the kernel start a goroutine. So a simulation that starts a
// short process per operation (a controller command, an arrival, a
// received message) starts goroutines only up to its peak concurrency.
// Shutdown ends the runners of the processes it unwinds and then releases
// the parked ones. A kernel dropped without Shutdown leaks its parked
// runners, as it leaks its blocked processes.
//
// Hot-path design (see DESIGN.md "Performance"): scheduled items are
// pooled with generation counters (zero allocations per schedule in the
// steady state), same-timestamp items scheduled during dispatch bypass the
// heap through a FIFO run queue, a process that sleeps to a wakeup
// that would be the next item anyway advances the clock inline without
// running the dispatch loop at all, and a wakeup of a process in Pop or
// Acquire that would find nothing to take puts it back on its waiter list
// without a goroutine switch (checked wakeups).
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
	fn   func() // callback: runs inline in the dispatch loop; must not block
	proc *Proc  // wakeup: resume (or start) this process...
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
	pool []*item
	// ack hands the dispatch loop back to the goroutine waiting in Run
	// or Shutdown.
	ack         chan struct{}
	stopping    bool
	dispatching bool // inside Run (or Shutdown) dispatch
	limit       Time // Run's current limit, valid while dispatching
	executed    uint64
	// procs holds every process spawned and not yet exited, so Shutdown
	// can unwind them; Proc.slot is each one's index.
	procs []*Proc
	// idle holds the runners parked between processes, most recent last.
	idle []*runner
	// tickers are weak repeating timers driven by the dispatch loop
	// (telemetry samplers). nextTick caches the earliest pending tick so
	// the hot path pays one comparison; MaxTime when no ticker is armed.
	tickers  []*Ticker
	nextTick Time
	// Observability counters (plain increments on the hot path; read via
	// Stats). They never affect scheduling.
	scheduled    uint64
	runQueued    uint64
	poolMisses   uint64
	inlineSleeps uint64
	ticks        uint64
	// handoffs counts goroutine handoffs of the dispatch loop
	// (KernelStats.Handoffs), and goStarts the runner goroutines started.
	// Tests pin both; no registry reads either, so no report gains a
	// series.
	handoffs uint64
	goStarts uint64
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
	Handoffs     uint64 // dispatch-loop passes from one goroutine to another
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
		Handoffs:     k.handoffs,
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
// the dispatch loop and must not block; use Spawn for blocking logic.
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
// runs inline in the dispatch loop and must not block; it may read
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
	k    *Kernel
	name string
	// r is the runner executing the body, from the first wakeup on.
	r *runner
	// epoch counts completed yields; a wakeup item targets the epoch it
	// was scheduled in, making stale wakeups self-discarding.
	epoch uint64
	dead  bool
	// until is the signal p blocks on in a checked wait (Pop, Acquire),
	// nil otherwise.
	until *Signal
	// exitEv is created by the first call to Exited.
	exitEv *Event
	// body is the process function until its runner starts it; nil
	// afterwards.
	body func(p *Proc)
	slot int // index in Kernel.procs while alive
}

// runner is a goroutine that runs processes one after another. A process
// blocked in yield waits on resume; a parked runner waits on start, which
// holds one entry so handing a runner a process never blocks, even when
// the runner hands it to itself.
type runner struct {
	start  chan *Proc
	resume chan struct{}
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
	return k.SpawnAt(0, name, fn)
}

// SpawnAt is like Spawn but delays process start by d. The start is the
// process's first wakeup; a runner takes the process up then.
func (k *Kernel) SpawnAt(d Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, body: fn, slot: len(k.procs)}
	k.procs = append(k.procs, p)
	if d < 0 {
		d = 0
	}
	k.scheduleProc(k.now+d, p)
	return p
}

// loop is the body of a runner goroutine: it runs p, then each process
// handed to it while parked, until one is unwound by Shutdown or Shutdown
// releases the parked runner with nil.
func (r *runner) loop(p *Proc) {
	for p != nil && r.run(p) {
		p = <-r.start
	}
}

// run executes p's body on r and then passes the dispatch loop on, to
// the next process or back to Run's caller. When the body returned, r
// parks on the idle list first and run reports true, so r waits for its
// next process. It reports false when Shutdown unwound p, which ends r.
// A body that calls runtime.Goexit (t.FailNow does) ends r too: run
// never returns, and r must not park.
func (r *runner) run(p *Proc) (returned bool) {
	defer func() {
		k := p.k
		p.dead = true
		last := k.procs[len(k.procs)-1]
		k.procs[p.slot], last.slot = last, p.slot
		k.procs[len(k.procs)-1] = nil
		k.procs = k.procs[:len(k.procs)-1]
		if rec := recover(); rec != nil {
			if _, ok := rec.(Stopped); ok {
				// Unwound by kernel shutdown: hand control back quietly.
				k.handoff(nil)
				return
			}
			panic(rec)
		}
		if p.exitEv != nil {
			p.exitEv.Trigger(nil)
		}
		if returned {
			k.idle = append(k.idle, r)
		}
		k.handoff(k.step())
	}()
	fn := p.body
	p.body = nil
	fn(p)
	return true
}

// yield blocks p until its next wakeup. p's runner runs the dispatch
// loop; unless that loop resumes p itself, p hands the loop on and waits
// on its runner's resume channel for it to come back.
func (p *Proc) yield() {
	k := p.k
	if next := k.step(); next != p {
		resume := p.r.resume
		k.handoff(next)
		<-resume
	}
	p.epoch++
	if k.stopping {
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
// The first call creates it, already triggered if the process is dead.
func (p *Proc) Exited() *Event {
	if p.exitEv == nil {
		p.exitEv = &Event{k: p.k, triggered: p.dead}
	}
	return p.exitEv
}

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

// take pops the earliest item and releases it to the pool before acting
// on it: a callback runs inline; a wakeup returns its process, unless the
// process has exited or was already resumed in the item's epoch (nil).
// A wakeup of a process in a checked wait whose condition is false
// returns nil too: take queues the process on its signal again, where it
// would have queued itself after finding nothing, with no goroutine
// switch. During Shutdown every wakeup resumes its process, to unwind it.
func (k *Kernel) take() *Proc {
	it := k.next()
	p, fn := it.proc, it.fn
	if p != nil && (p.dead || p.epoch != it.wake) {
		p = nil
	}
	k.put(it)
	if fn != nil {
		fn()
	}
	if p != nil && p.until != nil && !k.stopping && !p.until.ready() {
		p.until.waiters = append(p.until.waiters, p)
		return nil
	}
	return p
}

// step runs the dispatch loop on the calling goroutine until an item wakes
// a process, and returns that process. It returns nil when no item is left
// within Run's limit, and during Shutdown, which drives its own drain.
func (k *Kernel) step() *Proc {
	for !k.stopping {
		var tnext Time
		if k.rqh < len(k.runq) {
			tnext = k.now
		} else if len(k.heap) > 0 {
			tnext = k.heap[0].t
		} else {
			break
		}
		if tnext > k.limit {
			k.now = k.limit
			break
		}
		// Weak-timer semantics: ticks fire only when simulation work
		// remains at or after the tick time within the limit.
		if k.nextTick <= tnext {
			k.fireTickers()
			continue
		}
		k.now = tnext
		k.executed++
		if p := k.take(); p != nil {
			return p
		}
	}
	return nil
}

// handoff passes the dispatch loop to p, or back to the goroutine waiting
// in Run or Shutdown when p is nil. On p's first wakeup it hands p to the
// most recently parked runner, and starts a runner goroutine only when
// none is parked. The caller must not touch kernel state afterwards: the
// receiver owns it.
func (k *Kernel) handoff(p *Proc) {
	k.handoffs++
	switch {
	case p == nil:
		k.ack <- struct{}{}
	case p.r != nil:
		p.r.resume <- struct{}{}
	default:
		n := len(k.idle) - 1
		if n < 0 {
			k.goStarts++
			p.r = &runner{start: make(chan *Proc, 1), resume: make(chan struct{})}
			go p.r.loop(p)
			return
		}
		p.r = k.idle[n]
		k.idle[n] = nil
		k.idle = k.idle[:n]
		p.r.start <- p
	}
}

// Run executes scheduled items until none remain or until the clock
// would pass limit. It returns the virtual time at which execution stopped.
// Use MaxTime to run to completion. The calling goroutine runs the
// dispatch loop until a process wakes, then waits for the loop to end.
func (k *Kernel) Run(limit Time) Time {
	k.dispatching = true
	k.limit = limit
	defer func() { k.dispatching = false }()
	if p := k.step(); p != nil {
		k.handoff(p)
		<-k.ack
	}
	return k.now
}

// RunAll runs the simulation until no scheduled items remain.
func (k *Kernel) RunAll() Time { return k.Run(MaxTime) }

// Shutdown unwinds all blocked processes, which ends their runners, and
// then releases the parked runners. Pending timers for dead processes are
// discarded. Call after Run when the kernel will no longer be used (e.g.
// between benchmark iterations) to avoid leaking goroutines. Shutdown's
// drain does not count toward Executed — only items genuinely run by Run
// do.
func (k *Kernel) Shutdown() {
	k.stopping = true
	// Resuming a blocked process makes it panic with Stopped{} in yield,
	// unwind, and hand control back on k.ack. First drain pending items:
	// callbacks run, wakeups resume their process (an unstarted one starts
	// and unwinds at its first block). Then resume every process still
	// alive. Unwinding defers may schedule again, so loop until nothing is
	// left.
	for {
		progress := false
		k.dispatching = true
		k.limit = k.now
		for k.rqh < len(k.runq) || len(k.heap) > 0 {
			if p := k.take(); p != nil {
				k.handoff(p)
				<-k.ack
			}
			progress = true
		}
		k.dispatching = false
		for len(k.procs) > 0 {
			k.handoff(k.procs[len(k.procs)-1])
			<-k.ack
			progress = true
		}
		if !progress {
			break
		}
	}
	for _, r := range k.idle {
		r.start <- nil
	}
	k.idle = nil
}
