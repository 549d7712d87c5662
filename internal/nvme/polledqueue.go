package nvme

import (
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// PolledQueue wraps a QueueView with completion polling in the SPDK
// style: a poller process wakes when completion DMA lands in the (local)
// CQ ring and matches entries to waiting submitters. Exec gives
// submit-and-wait semantics without interrupts.
type PolledQueue struct {
	View *QueueView
	host *pcie.HostPort
	// PollCheckNs models one poll-loop iteration's software cost.
	PollCheckNs int64

	pending map[uint16]*polledPending
	sig     *sim.Signal
	unwatch func()
	closed  bool
}

type polledPending struct {
	done *sim.Event
	cqe  CQE
}

// NewPolledQueue starts a poller for view. The CQ ring must be in the
// host's local memory (the only sane place to poll).
func NewPolledQueue(name string, host *pcie.HostPort, view *QueueView, pollCheckNs int64) (*PolledQueue, error) {
	r := view.CQRange()
	if !host.Local(r.Base, r.Size) {
		return nil, fmt.Errorf("nvme: polled CQ at %#x is not in local memory", r.Base)
	}
	q := &PolledQueue{
		View:        view,
		host:        host,
		PollCheckNs: pollCheckNs,
		pending:     make(map[uint16]*polledPending),
		sig:         sim.NewSignal(host.Domain().Kernel()),
	}
	// SPDK-style batching: the poll sweep rings the CQ head once per
	// wakeup (a locked view also rings the SQ tail once per burst).
	view.LazyCQ = true
	q.unwatch = host.Watch(r, func(pcie.Addr, int) { q.sig.Set() })
	host.Domain().Kernel().Spawn(name+"/poll", q.poll)
	return q, nil
}

func (q *PolledQueue) poll(p *sim.Proc) {
	for {
		if q.closed {
			return
		}
		// Capture the signal sequence before sweeping: FlushCQ yields on
		// the doorbell MMIO, and a CQE landing then sets the signal with
		// no waiter. Blocking only when nothing fired since the capture
		// re-sweeps instead of sleeping forever on that lost edge.
		seq := q.sig.Sets()
		cqe, ok, err := q.View.Poll(p, q.host)
		if err != nil {
			return
		}
		if !ok {
			// End of sweep: commit the consumed entries' head doorbell
			// before blocking, or the controller may stall on a CQ it
			// believes is full.
			if err := q.View.FlushCQ(p, q.host); err != nil {
				return
			}
			if q.sig.Sets() == seq {
				p.WaitSignal(q.sig)
			}
			p.Sleep(q.PollCheckNs)
			continue
		}
		if w, exists := q.pending[cqe.CID]; exists {
			delete(q.pending, cqe.CID)
			w.cqe = cqe
			w.done.Trigger(nil)
		}
	}
}

// Exec submits cmd (assigning a CID) and blocks until its completion.
func (q *PolledQueue) Exec(p *sim.Proc, cmd *SQE) (CQE, error) {
	cmd.CID = q.View.NextCID()
	w := &polledPending{done: sim.NewEvent(p.Kernel())}
	q.pending[cmd.CID] = w
	if err := q.View.Submit(p, q.host, cmd); err != nil {
		delete(q.pending, cmd.CID)
		return CQE{}, err
	}
	p.Wait(w.done)
	return w.cqe, nil
}

// Close stops the poller at its next wakeup.
func (q *PolledQueue) Close() {
	q.closed = true
	q.unwatch()
	q.sig.Set()
}
