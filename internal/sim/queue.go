package sim

// Queue is an unbounded FIFO connecting simulated processes. Push never
// blocks; Pop blocks the calling process until an element is available.
// It is the simulation analogue of a Go channel.
//
// Push wakes every blocked consumer, in the order they blocked, and the
// first to run takes the element. The wakeups are checked: a consumer
// resumes only if the queue is non-empty when its wakeup is dispatched;
// otherwise the kernel queues it to wait again, where it would have queued
// itself, with no goroutine switch. Consumers are thus served in
// wake-all's order. Waking only the longest waiter would change it: a
// consumer woken for an element the pusher took back would queue again
// behind the others.
type Queue struct {
	k *Kernel
	// items[head:] are queued; popping advances head, so the backing
	// array is reused instead of regrown.
	items []any
	head  int
	sig   *Signal
}

// NewQueue creates an empty queue on k.
func NewQueue(k *Kernel) *Queue {
	q := &Queue{k: k, sig: NewSignal(k)}
	q.sig.ready = func() bool { return q.head < len(q.items) }
	return q
}

// Len returns the number of queued elements.
func (q *Queue) Len() int { return len(q.items) - q.head }

// Push appends v and wakes any blocked consumers.
func (q *Queue) Push(v any) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Slide the queued elements down rather than grow the array.
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items, q.head = q.items[:n], 0
	}
	q.items = append(q.items, v)
	q.sig.Set()
}

// TryPop removes and returns the head element without blocking.
func (q *Queue) TryPop() (any, bool) {
	if q.head == len(q.items) {
		return nil, false
	}
	v := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return v, true
}

// Pop blocks the process until an element is available, then removes and
// returns the head element.
func (p *Proc) Pop(q *Queue) any {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		p.waitReady(q.sig)
	}
}

// Semaphore is a counting semaphore for modeling limited resources such as
// flash channels or DMA engines.
//
// Release wakes every blocked acquirer with the same checked wakeups as
// Queue.Push: the kernel resumes an acquirer only if a permit is free
// when its wakeup is dispatched, so a contended permit goes to the
// process plain wake-all would give it to.
type Semaphore struct {
	k       *Kernel
	avail   int
	waiting int
	sig     *Signal
}

// NewSemaphore creates a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	s := &Semaphore{k: k, avail: n, sig: NewSignal(k)}
	s.sig.ready = func() bool { return s.avail > 0 }
	return s
}

// Waiters returns the number of processes currently blocked in Acquire.
// Holders of the semaphore use this to detect contention — e.g. a queue
// submitter deciding whether to coalesce its doorbell write with the
// next submitter's.
func (s *Semaphore) Waiters() int { return s.waiting }

// Acquire blocks the process until a permit is available and takes it.
func (p *Proc) Acquire(s *Semaphore) {
	for s.avail <= 0 {
		s.waiting++
		p.waitReady(s.sig)
		s.waiting--
	}
	s.avail--
}

// Release returns a permit and wakes blocked acquirers.
func (s *Semaphore) Release() {
	s.avail++
	s.sig.Set()
}
