package sim

// Event is a one-shot occurrence processes can wait on. Once triggered it
// stays triggered; subsequent Wait calls return immediately with the stored
// payload. Events are not safe for use outside the simulation loop.
type Event struct {
	k         *Kernel
	triggered bool
	payload   any
	waiters   []*Proc
	// first backs waiters for the common single waiter, so waiting on a
	// fresh event allocates nothing.
	first [1]*Proc
}

// NewEvent creates an untriggered event on k.
func NewEvent(k *Kernel) *Event {
	return &Event{k: k}
}

// Trigger fires the event with payload v, scheduling all current waiters to
// resume at the current virtual time in the order they began waiting.
// Triggering an already-triggered event is a no-op.
func (e *Event) Trigger(v any) {
	if e.triggered {
		return
	}
	e.triggered = true
	e.payload = v
	for _, p := range e.waiters {
		e.k.scheduleProc(e.k.now, p)
	}
	clear(e.waiters)
	e.waiters = nil
}

// addWaiter queues p on e, in the inline slot when it is the first.
func (e *Event) addWaiter(p *Proc) {
	if e.waiters == nil {
		e.waiters = e.first[:0]
	}
	e.waiters = append(e.waiters, p)
}

// WaitAll blocks until every event has triggered.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, e := range evs {
		p.Wait(e)
	}
}

// Wait blocks the process until the event triggers and returns the payload.
func (p *Proc) Wait(e *Event) any {
	if e.triggered {
		return e.payload
	}
	e.addWaiter(p)
	p.yield()
	if !e.triggered {
		// A resume without a trigger means another goroutine called this
		// proc's blocking methods (illegal concurrent use): fail loudly
		// instead of returning a nil payload that corrupts the caller.
		panic("sim: spurious wake of " + p.name + " in Wait")
	}
	return e.payload
}

// WaitTimeout blocks until the event triggers or d elapses. It returns the
// payload and true on trigger, or nil and false on timeout.
//
// If the trigger and the timeout land on the same virtual timestamp, the
// one dispatched first wins; the loser's wakeup is discarded by the
// process-epoch guard rather than spuriously resuming the process later.
func (p *Proc) WaitTimeout(e *Event, d Duration) (any, bool) {
	if e.triggered {
		return e.payload, true
	}
	if d <= 0 {
		return nil, false
	}
	tm := p.wakeAt(p.k.now + d)
	e.addWaiter(p)
	p.yield()
	if e.triggered {
		p.k.cancel(tm)
		return e.payload, true
	}
	// Timed out: remove ourselves from the waiter list.
	for i, w := range e.waiters {
		if w == p {
			e.waiters = append(e.waiters[:i], e.waiters[i+1:]...)
			break
		}
	}
	return nil, false
}

// Signal is a reusable wakeup: Set resumes every process currently waiting,
// then resets. Waits that begin after a Set block until the next Set. This
// models edge-triggered notifications such as doorbell writes.
type Signal struct {
	k       *Kernel
	waiters []*Proc
	sets    uint64
	// ready is the condition a checked wait on the signal waits for; nil
	// on a plain signal.
	ready func() bool
}

// NewSignal creates a signal on k.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Sets returns how many times Set has been called; useful as a cheap
// sequence check in polling loops.
func (s *Signal) Sets() uint64 { return s.sets }

// Set wakes all processes currently blocked in WaitSignal.
func (s *Signal) Set() {
	s.sets++
	ws := s.waiters
	for _, p := range ws {
		s.k.scheduleProc(s.k.now, p)
	}
	// Set runs atomically (no process executes mid-loop), so the backing
	// array can be reused for the next round of waiters.
	clear(ws)
	s.waiters = ws[:0]
}

// WaitSignal blocks until the next Set.
func (p *Proc) WaitSignal(s *Signal) {
	s.waiters = append(s.waiters, p)
	p.yield()
}

// waitReady is WaitSignal checked against s.ready: the kernel resumes p
// only for a Set whose wakeup finds s.ready true, and leaves p waiting on
// s for the others. p must have no other wakeup pending, such as a
// timeout, because a wakeup skipped this way does not end p's yield
// epoch.
func (p *Proc) waitReady(s *Signal) {
	p.until = s
	p.WaitSignal(s)
	p.until = nil
}

// WaitSignalTimeout blocks until the next Set or until d elapses, returning
// true if woken by Set.
func (p *Proc) WaitSignalTimeout(s *Signal, d Duration) bool {
	if d <= 0 {
		return false
	}
	before := s.sets
	tm := p.wakeAt(p.k.now + d)
	s.waiters = append(s.waiters, p)
	p.yield()
	if s.sets != before {
		p.k.cancel(tm)
		return true
	}
	for i, w := range s.waiters {
		if w == p {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			break
		}
	}
	return false
}
