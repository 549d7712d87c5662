package nvme

import (
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// ReaperParams is what one driver's completion loop differs in.
type ReaperParams struct {
	// Edge is the local range whose writes wake the loop: the CQ ring
	// itself (the zero value), or an MSI mailbox for an interrupt-driven
	// driver.
	Edge pcie.Range
	// WakeNs is the cost paid after each wait: a poll-loop check, or
	// interrupt entry.
	WakeNs int64
	// PerCQENs is the handler cost paid for each reaped CQE (an ISR's).
	PerCQENs int64
	// BlockFirst makes the loop wait for an edge before its first sweep,
	// as an ISR runs only once its interrupt fires.
	BlockFirst bool
	// Orphan, when set, receives each CQE whose CID has no waiter, such as
	// the late completion of a command its submitter abandoned.
	Orphan func(CQE)
	// Retry, when set, reports whether a ring read or head doorbell error
	// is transient. The loop then backs off RetryNs and sweeps again;
	// on any other error it exits.
	Retry   func(error) bool
	RetryNs int64
}

// Reaper is the completion loop of one queue pair, in the SPDK style of
// one completion routine per queue pair. A process sweeps the CQ through
// the view, rings the CQ head doorbell once per sweep and then blocks
// until the edge range is written: the CQ ring for a polled driver, an
// MSI mailbox for an interrupt-driven one. Each reaped CQE triggers its
// CID's completion event with the CQE status (a uint16) as payload.
type Reaper struct {
	view    *QueueView
	host    *pcie.HostPort
	params  ReaperParams
	sig     *sim.Signal
	unwatch func()
	// pending maps an in-flight command's CID to its completion event.
	pending map[uint16]*sim.Event
	stopped bool
	// Wakeups counts the loop's resumes from a wait for its edge.
	Wakeups uint64
}

// NewReaper starts the completion loop for view as process name. The
// edge range must be in the host's local memory: a driver cannot watch a
// remote write land.
func NewReaper(name string, host *pcie.HostPort, view *QueueView, params ReaperParams) (*Reaper, error) {
	if params.Edge.Size == 0 {
		params.Edge = view.CQRange()
	}
	if !host.Local(params.Edge.Base, params.Edge.Size) {
		return nil, fmt.Errorf("nvme: reaper edge at %#x is not in local memory", params.Edge.Base)
	}
	k := host.Domain().Kernel()
	r := &Reaper{
		view:    view,
		host:    host,
		params:  params,
		sig:     sim.NewSignal(k),
		pending: make(map[uint16]*sim.Event),
	}
	view.lazyCQ = true
	r.unwatch = host.Watch(params.Edge, func(pcie.Addr, int) { r.sig.Set() })
	k.Spawn(name, r.run)
	return r, nil
}

func (r *Reaper) run(p *sim.Proc) {
	if r.params.BlockFirst {
		r.wait(p, r.sig.Sets())
	}
	for !r.stopped {
		// The edge signal drops a Set that finds no waiter. Capturing its
		// count before the ring read, and waiting only if no Set came
		// since, turns an edge that lands during the sweep (FlushCQ yields
		// on the doorbell MMIO) into another sweep instead of a lost
		// wakeup. A CQE's DMA lands before its MSI, so an edge seen after
		// the capture means the read saw the CQE.
		seq := r.sig.Sets()
		cqe, ok, err := r.view.Poll(p, r.host)
		if err == nil && !ok {
			// End of sweep: ring the head once for every entry consumed,
			// before blocking, or the controller may stall on a CQ it
			// believes is full. A failed ring keeps the view's unrung
			// count, so the next sweep retries it.
			err = r.view.FlushCQ(p, r.host)
		}
		switch {
		case err != nil:
			if r.stopped || r.params.Retry == nil || !r.params.Retry(err) {
				return
			}
			pay(p, r.params.RetryNs)
		case ok:
			pay(p, r.params.PerCQENs)
			if done, waiting := r.pending[cqe.CID]; waiting {
				delete(r.pending, cqe.CID)
				done.Trigger(cqe.Status())
			} else if r.params.Orphan != nil {
				r.params.Orphan(cqe)
			}
		default:
			r.wait(p, seq)
		}
	}
}

// wait blocks unless an edge came after the capture seq, then pays the
// wakeup cost.
func (r *Reaper) wait(p *sim.Proc, seq uint64) {
	if r.sig.Sets() == seq {
		p.WaitSignal(r.sig)
	}
	r.Wakeups++
	pay(p, r.params.WakeNs)
}

// pay charges a modeled cost. A zero cost calls no Sleep: Sleep(0) still
// lets same-time items run first and counts an inline sleep, so it would
// move the schedule.
func pay(p *sim.Proc, ns int64) {
	if ns > 0 {
		p.Sleep(ns)
	}
}

// Submit submits cmd, whose CID the caller has set, and returns the event
// the loop triggers with its CQE status. On error the CID has no waiter.
func (r *Reaper) Submit(p *sim.Proc, cmd *SQE) (*sim.Event, error) {
	done := sim.NewEvent(p.Kernel())
	r.pending[cmd.CID] = done
	if err := r.view.Submit(p, r.host, cmd); err != nil {
		delete(r.pending, cmd.CID)
		return nil, err
	}
	return done, nil
}

// Forget drops cid's waiter: its CQE, if it ever lands, goes to the
// orphan handler.
func (r *Reaper) Forget(cid uint16) { delete(r.pending, cid) }

// Exec assigns cmd a CID, submits it and blocks until its CQE status.
func (r *Reaper) Exec(p *sim.Proc, cmd *SQE) (uint16, error) {
	cmd.CID = r.view.NextCID()
	done, err := r.Submit(p, cmd)
	if err != nil {
		return 0, err
	}
	return p.Wait(done).(uint16), nil
}

// Stop ends the loop at its next wakeup and wakes it now.
func (r *Reaper) Stop() {
	r.stopped = true
	r.unwatch()
	r.sig.Set()
}
