package nvme

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrDoorbellLost marks a submission whose SQE reached the ring but whose
// tail doorbell write failed in the fabric. The command is committed: it
// sits in the SQ and will execute as soon as a later doorbell carries a
// newer cumulative tail, so the caller must treat its CID like a
// timed-out command (quarantine its buffers until the completion drains),
// not like a clean submission failure.
var ErrDoorbellLost = errors.New("nvme: SQ doorbell lost after SQE commit")

// QueueView is the driver-side state for operating one SQ/CQ pair. All
// addresses are expressed in the *driver host's* domain — for a remote
// controller they are NTB window addresses; the fabric handles the rest.
// This is the object both the local baseline driver and the distributed
// driver's clients operate queues through; it performs no locking because
// NVMe queues are single-owner by design (paper §II).
type QueueView struct {
	ID   uint16
	Size int
	// SQAddr and CQAddr locate queue memory as seen from the driver host.
	SQAddr pcie.Addr
	CQAddr pcie.Addr
	// SQDoorbell and CQDoorbell locate the doorbell registers as seen
	// from the driver host (BAR or BAR-window addresses).
	SQDoorbell pcie.Addr
	CQDoorbell pcie.Addr

	// SQDoorbells and CQDoorbells count actual doorbell MMIO writes, for
	// observing coalescing ratios in tests and benchmarks.
	SQDoorbells uint64
	CQDoorbells uint64
	// Coalescing-effectiveness counters. SQDoorbellsSaved counts
	// submissions whose tail doorbell was deferred to a later submitter
	// (an MMIO write that never happened). CQRingsSaved counts CQ head
	// doorbells avoided by lazy ringing: a FlushCQ covering k consumed
	// entries saves k-1 individual rings. Both stay zero at QD1.
	SQDoorbellsSaved uint64
	CQRingsSaved     uint64

	// Fault injection, armed by the fault plane. DropSQDoorbells makes
	// the next N Ring calls lose their doorbell MMIO in the fabric (the
	// cumulative tail means a later ring recovers the queued entries);
	// DelaySQDoorbells stalls the next N doorbell writes by
	// DelaySQDoorbellNs each. SQDoorbellsDropped / SQDoorbellsDelayed
	// count injections actually taken.
	DropSQDoorbells    int
	DelaySQDoorbells   int
	DelaySQDoorbellNs  int64
	SQDoorbellsDropped uint64
	SQDoorbellsDelayed uint64

	// Tracer, when non-nil, records per-command fabric hops (SQE write,
	// doorbell, NTB crossing, CQE poll) keyed by (ID, CID). Nil — the
	// default — costs one pointer check per operation.
	Tracer *trace.Tracer

	sqTail     int
	sqDeferred bool // tail advanced past the last rung doorbell
	cqHead     int
	cqUnrung   int // entries consumed since the last CQ doorbell
	phase      bool
	// inflight counts submitted-but-not-completed commands.
	inflight int
	nextCID  uint16
	// cqe receives the entry Poll reads (see Poll for who may share it).
	cqe [CQESize]byte
	// lazyCQ defers the CQ head doorbell from Poll to FlushCQ, so one
	// sweep rings once for all entries it consumed (the SPDK
	// adminq/io-qpair strategy). A Reaper sets it and flushes before it
	// blocks: the controller stalls completion DMA while its view of the
	// CQ is full, and only a head doorbell unsticks it.
	lazyCQ bool
	// lock serializes the SQE-write + doorbell sequence across concurrent
	// submitters on the same host, as a kernel driver's per-queue spinlock
	// does. Nil means single-submitter use (no locking).
	lock *sim.Semaphore
}

// NewQueueView initializes driver-side state for a queue pair of the given
// size. The expected initial phase is 1, per spec.
func NewQueueView(id uint16, size int, sqAddr, cqAddr, sqDB, cqDB pcie.Addr) *QueueView {
	return &QueueView{
		ID: id, Size: size,
		SQAddr: sqAddr, CQAddr: cqAddr,
		SQDoorbell: sqDB, CQDoorbell: cqDB,
		phase: true,
	}
}

// EnableLocking makes Submit safe for multiple concurrent submitting
// processes on k. A locked view also coalesces SQ doorbells: a submitter
// that finds others queued on the lock defers its tail doorbell, and the
// last submitter of the burst rings once with the cumulative tail, like
// blk-mq's commit_rqs/bd->last batching. With a single submitter (QD1)
// no waiter is ever present, so every command rings its own doorbell.
func (q *QueueView) EnableLocking(k *sim.Kernel) {
	q.lock = sim.NewSemaphore(k, 1)
}

// Inflight returns the number of outstanding commands.
func (q *QueueView) Inflight() int { return q.inflight }

// Full reports whether another submission would overrun the SQ.
func (q *QueueView) Full() bool { return q.inflight >= q.Size-1 }

// NextCID returns a fresh command identifier.
func (q *QueueView) NextCID() uint16 {
	q.nextCID++
	return q.nextCID
}

// Submit writes cmd into the next SQ slot and rings the tail doorbell.
// The SQE write and the doorbell write are both posted; PCIe ordering
// guarantees the entry is visible to the controller before the doorbell
// (§V of the paper relies on this across the NTB).
func (q *QueueView) Submit(p *sim.Proc, h *pcie.HostPort, cmd *SQE) error {
	tr := q.Tracer
	t0 := p.Now()
	if q.lock != nil {
		p.Acquire(q.lock)
		defer q.lock.Release()
	}
	if q.Full() {
		// Ring any deferred tail before bailing: the entries behind it
		// must reach the controller for the queue to ever drain.
		if q.sqDeferred {
			q.Ring(p, h)
		}
		return fmt.Errorf("nvme: queue %d full", q.ID)
	}
	slot := q.sqTail
	q.sqTail = (q.sqTail + 1) % q.Size
	q.inflight++
	// A stack array, not a view buffer: two processes may submit to one
	// view at once (the shared admin queue), and h.Write keeps no
	// reference to the bytes.
	var sqe [SQESize]byte
	cmd.encode(sqe[:])
	if err := h.Write(p, q.SQAddr+pcie.Addr(slot*SQESize), sqe[:]); err != nil {
		// The SQE never left this host (resolution failed synchronously),
		// so roll the ring state back: nothing is committed.
		q.sqTail = slot
		q.inflight--
		return err
	}
	tr.Hop(q.ID, cmd.CID, trace.StageSQWrite, t0, p.Now())
	if q.lock != nil && q.lock.Waiters() > 0 {
		// Another submitter is already blocked on the lock; let it carry
		// (or further defer) the doorbell for this entry too.
		q.sqDeferred = true
		q.SQDoorbellsSaved++
		if tr != nil {
			now := p.Now()
			tr.HopNote(q.ID, cmd.CID, trace.StageSQDoorbell, now, now, trace.NoteCoalesced)
		}
		return nil
	}
	if tr == nil {
		if err := q.Ring(p, h); err != nil {
			return fmt.Errorf("%w (%w)", ErrDoorbellLost, err)
		}
		return nil
	}
	td := p.Now()
	if err := q.Ring(p, h); err != nil {
		return fmt.Errorf("%w (%w)", ErrDoorbellLost, err)
	}
	tr.Hop(q.ID, cmd.CID, trace.StageSQDoorbell, td, p.Now())
	// Annotate the doorbell TLP's fabric flight when it crosses NTBs: the
	// write is posted, so the flight happens after the CPU moves on.
	if cross, oneWay := h.PathInfo(q.SQDoorbell, 4); cross > 0 {
		now := p.Now()
		tr.HopNote(q.ID, cmd.CID, trace.StageNTBCross, now, now+oneWay, uint64(cross))
	}
	return nil
}

// Ring rings the SQ doorbell with the current tail, committing any
// deferred submissions (used after batched SQE writes and by the last
// submitter of a coalesced burst).
func (q *QueueView) Ring(p *sim.Proc, h *pcie.HostPort) error {
	if q.DropSQDoorbells > 0 {
		// Injected fault: the driver performed the MMIO but the fabric
		// lost the posted write. The tail stays advanced past the
		// controller's view until the next ring, whose cumulative tail
		// recovers every queued entry — so mark it deferred.
		q.DropSQDoorbells--
		q.SQDoorbellsDropped++
		q.SQDoorbells++
		q.sqDeferred = true
		return nil
	}
	if q.DelaySQDoorbells > 0 {
		q.DelaySQDoorbells--
		q.SQDoorbellsDelayed++
		p.Sleep(q.DelaySQDoorbellNs)
	}
	q.sqDeferred = false
	q.SQDoorbells++
	var db [4]byte
	binary.LittleEndian.PutUint32(db[:], uint32(q.sqTail))
	return h.Write(p, q.SQDoorbell, db[:])
}

// Poll checks the current CQ head slot for a new completion. It consumes
// and returns the entry if its phase matches, advancing the head and
// ringing the CQ head doorbell (deferred to FlushCQ on a view a Reaper
// drives). Costs one local access (or a fabric read for a remote CQ).
//
// At most one process may poll a view at a time: two pollers would read
// the same slot and advance the head twice. Every I/O queue is polled by
// its one Reaper, and AdminClient.Exec admits one caller at a time to the
// admin queue. The entry is read into a buffer the view owns, which a
// fabric read fills before it sleeps for the completion's flight.
func (q *QueueView) Poll(p *sim.Proc, h *pcie.HostPort) (CQE, bool, error) {
	t0 := p.Now()
	if err := h.Read(p, q.CQAddr+pcie.Addr(q.cqHead*CQESize), q.cqe[:]); err != nil {
		return CQE{}, false, err
	}
	cqe := UnmarshalCQE(q.cqe[:])
	if cqe.Phase() != q.phase {
		return CQE{}, false, nil
	}
	q.cqHead++
	if q.cqHead == q.Size {
		q.cqHead = 0
		q.phase = !q.phase
	}
	q.inflight--
	q.Tracer.Hop(q.ID, cqe.CID, trace.StageCQPoll, t0, p.Now())
	if q.lazyCQ {
		q.cqUnrung++
		return cqe, true, nil
	}
	q.CQDoorbells++
	var db [4]byte
	binary.LittleEndian.PutUint32(db[:], uint32(q.cqHead))
	if err := h.Write(p, q.CQDoorbell, db[:]); err != nil {
		return CQE{}, false, err
	}
	return cqe, true, nil
}

// FlushCQ rings the CQ head doorbell once for all entries consumed since
// the last flush. No-op when nothing is pending. A lazy-CQ poller (the
// Reaper) calls it at the end of each sweep, before blocking.
func (q *QueueView) FlushCQ(p *sim.Proc, h *pcie.HostPort) error {
	if q.cqUnrung == 0 {
		return nil
	}
	var db [4]byte
	binary.LittleEndian.PutUint32(db[:], uint32(q.cqHead))
	if err := h.Write(p, q.CQDoorbell, db[:]); err != nil {
		// Keep cqUnrung so a retried flush after a transient fabric fault
		// still delivers the head update the controller is waiting on.
		return err
	}
	// One ring covers q.cqUnrung consumed entries; all but the first
	// would have been individual doorbells without lazyCQ.
	q.CQRingsSaved += uint64(q.cqUnrung - 1)
	q.cqUnrung = 0
	q.CQDoorbells++
	return nil
}

// CQRange returns the address range of the CQ ring (for Watch).
func (q *QueueView) CQRange() pcie.Range {
	return pcie.Range{Base: q.CQAddr, Size: uint64(q.Size * CQESize)}
}
