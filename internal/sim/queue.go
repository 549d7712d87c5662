package sim

// Queue is an unbounded FIFO connecting simulated processes. Push never
// blocks; Pop blocks the calling process until an element is available.
// It is the simulation analogue of a Go channel.
type Queue struct {
	k     *Kernel
	items []any
	sig   *Signal
}

// NewQueue creates an empty queue on k.
func NewQueue(k *Kernel) *Queue {
	return &Queue{k: k, sig: NewSignal(k)}
}

// Len returns the number of queued elements.
func (q *Queue) Len() int { return len(q.items) }

// Push appends v and wakes any blocked consumers.
func (q *Queue) Push(v any) {
	q.items = append(q.items, v)
	q.sig.Set()
}

// TryPop removes and returns the head element without blocking.
func (q *Queue) TryPop() (any, bool) {
	if len(q.items) == 0 {
		return nil, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Pop blocks the process until an element is available, then removes and
// returns the head element.
func (p *Proc) Pop(q *Queue) any {
	for {
		if v, ok := q.TryPop(); ok {
			return v
		}
		p.WaitSignal(q.sig)
	}
}

// PopTimeout is Pop with a deadline; ok is false if d elapsed first.
func (p *Proc) PopTimeout(q *Queue, d Duration) (any, bool) {
	deadline := p.k.now + d
	for {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		remain := deadline - p.k.now
		if remain <= 0 {
			return nil, false
		}
		if !p.WaitSignalTimeout(q.sig, remain) {
			if v, ok := q.TryPop(); ok {
				return v, true
			}
			return nil, false
		}
	}
}

// Semaphore is a counting semaphore for modeling limited resources such as
// flash channels or DMA engines.
type Semaphore struct {
	k       *Kernel
	avail   int
	waiting int
	sig     *Signal
}

// NewSemaphore creates a semaphore with n initial permits.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	return &Semaphore{k: k, avail: n, sig: NewSignal(k)}
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
		p.WaitSignal(s.sig)
		s.waiting--
	}
	s.avail--
}

// Release returns a permit and wakes blocked acquirers.
func (s *Semaphore) Release() {
	s.avail++
	s.sig.Set()
}
