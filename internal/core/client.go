package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/attr"
	"repro/internal/iommu"
	"repro/internal/ntb"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/sisci"
	"repro/internal/smartio"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SQPlacement selects where a client's submission queue memory lives.
type SQPlacement int

// Placements (Fig. 8): DeviceSide allocates SQ memory on the device's
// host so the controller's command fetches stay local and the client
// writes entries across the NTB with posted writes; ClientLocal keeps the
// SQ on the client and makes the controller fetch across the NTB with
// non-posted reads; CMB goes one step further than the paper and places
// the SQ inside the controller's own memory buffer, making fetches
// internal SRAM reads.
const (
	SQDeviceSide SQPlacement = iota
	SQClientLocal
	SQCMB
)

func (s SQPlacement) String() string {
	switch s {
	case SQDeviceSide:
		return "device-side"
	case SQClientLocal:
		return "client-local"
	case SQCMB:
		return "cmb"
	}
	return "unknown"
}

// Client errors.
var (
	ErrTransferTooLarge = errors.New("core: transfer exceeds bounce partition")
	ErrClosed           = errors.New("core: client closed")
	ErrIOFailed         = errors.New("core: I/O command failed")
	ErrIOTimeout        = errors.New("core: I/O command timed out")
	// ErrReservationConflict is returned when the controller fences a
	// command with Reservation Conflict: another registrant holds (or this
	// path lost) the namespace reservation. Never retried — the fence is
	// the point — and classified fatal for the path (see IsFatal).
	ErrReservationConflict = errors.New("core: reservation conflict")
)

// ClientParams tunes the client module. The defaults model the paper's
// proof-of-concept driver: naive (unoptimized) submission path, polling
// completion, and a statically mapped bounce buffer with one partition
// per queue slot (§V).
type ClientParams struct {
	// QueueDepth is the I/O queue pair depth to request.
	QueueDepth int
	// Placement selects SQ memory placement.
	Placement SQPlacement
	// PartitionBytes is the bounce-buffer share of each request slot,
	// and so the largest transfer. Each slot also gets the PRP list
	// pages a transfer of this size needs (nvme.PRPListPages); the list
	// is written per transfer.
	PartitionBytes uint64
	// SubmitOverheadNs is the client's software submission cost per
	// request (block-layer glue, partition bookkeeping; "our driver is
	// naive" — higher than the stock driver's).
	SubmitOverheadNs int64
	// CompleteOverheadNs is the software completion cost per request.
	CompleteOverheadNs int64
	// PollCheckNs is the cost of one completion-poll check.
	PollCheckNs int64
	// RemapPerIO is an ablation of §V's design decision: instead of the
	// statically mapped bounce buffer, reprogram an NTB window for each
	// request's buffer (map + unmap at the LUT programming cost). The
	// paper rejects this because it "would cause a significant delay in
	// the critical I/O path"; experiment E8 quantifies it.
	RemapPerIO bool
	// UseInterrupts enables the extension the paper leaves as future
	// work ("our SISCI API extension does not currently support
	// device-generated interrupts"): the manager programs an MSI-X
	// vector posting across the NTB into a client-local mailbox, and the
	// client completes I/O from the interrupt instead of polling.
	UseInterrupts bool
	// IRQEntryNs is the interrupt delivery-to-handler latency when
	// UseInterrupts is set.
	IRQEntryNs int64
	// IOTimeoutNs bounds how long a command may stay outstanding before
	// the driver gives up on it (default 10 virtual seconds, like the
	// kernel driver's io_timeout). A timed-out command's slot stays
	// reserved until completion or close, so a late completion cannot
	// corrupt a reused buffer.
	IOTimeoutNs int64
	// MaxRetries bounds how many times a failed I/O is retried when the
	// failure is transient (timeout, lost doorbell, link flap). Each
	// retry resubmits with a fresh CID and a fresh bounce slot — the
	// failed attempt's slot may still be quarantined awaiting its late
	// completion. 0 (the default) preserves fail-fast behavior.
	MaxRetries int
	// RetryBackoffNs is the first retry's delay; it doubles per attempt
	// (default 100 µs).
	RetryBackoffNs int64
	// AbortOnTimeout makes the client ask the manager to issue an NVMe
	// Abort for each timed-out CID, as the kernel driver's timeout
	// handler does. The simulated controller runs commands to completion,
	// so the abort is best-effort ("not aborted"), but it costs real
	// admin-queue time and is counted.
	AbortOnTimeout bool
	// CloseDrainNs bounds how long Close waits for quarantined slots'
	// late completions before abandoning them (default 10× IOTimeoutNs:
	// a late CQE behind a fabric stall can easily exceed the command
	// timeout itself). Slots still parked at expiry are leaked and
	// counted in AbandonedSlots.
	CloseDrainNs int64
	// HeartbeatNs, when nonzero, starts a heartbeat process that
	// refreshes this client's session lease at the manager. Required for
	// a manager running with LeaseNs if the client is to survive the
	// lease reaper; see ManagerParams.LeaseNs.
	HeartbeatNs int64
	// ZeroCopy enables the §V future-work IOMMU path: request buffers
	// live in a pinned pool with a static NTB window (as the bounce
	// buffer does), but instead of copying, each request's pages are
	// mapped into the device host's IOMMU for the duration of the I/O —
	// per-request protection and no memcpy, at IOMMU map/unmap cost.
	// Requires a manager with EnableIOMMU.
	ZeroCopy bool
	// Tracer, when non-nil, records a per-IO span (client partition
	// stages plus the fabric hops the queue view and controller attach).
	// Nil — the default — adds no virtual time and no allocations.
	Tracer *trace.Tracer
	// Priority selects the queue pair's WRR class (the zero value maps
	// to medium). Only meaningful against a manager that enabled WRR
	// arbitration (ManagerParams.WRR).
	Priority QueuePrio
}

// DefaultClientParams returns the §V proof-of-concept calibration.
func DefaultClientParams() ClientParams {
	return ClientParams{
		QueueDepth:         64,
		Placement:          SQDeviceSide,
		PartitionBytes:     128 << 10,
		SubmitOverheadNs:   1300,
		CompleteOverheadNs: 600,
		PollCheckNs:        150,
	}
}

func (cp ClientParams) withDefaults() ClientParams {
	d := DefaultClientParams()
	if cp.QueueDepth == 0 {
		cp.QueueDepth = d.QueueDepth
	}
	if cp.PartitionBytes == 0 {
		cp.PartitionBytes = d.PartitionBytes
	}
	if cp.SubmitOverheadNs == 0 {
		cp.SubmitOverheadNs = d.SubmitOverheadNs
	}
	if cp.CompleteOverheadNs == 0 {
		cp.CompleteOverheadNs = d.CompleteOverheadNs
	}
	if cp.PollCheckNs == 0 {
		cp.PollCheckNs = d.PollCheckNs
	}
	if cp.IRQEntryNs == 0 {
		cp.IRQEntryNs = 1100
	}
	if cp.IOTimeoutNs == 0 {
		cp.IOTimeoutNs = 10 * sim.Second
	}
	if cp.RetryBackoffNs == 0 {
		cp.RetryBackoffNs = 100 * sim.Microsecond
	}
	if cp.CloseDrainNs == 0 {
		cp.CloseDrainNs = 10 * cp.IOTimeoutNs
	}
	return cp
}

// Client is a distributed-driver client: one I/O queue pair on the shared
// controller, exposed as a block device.
type Client struct {
	name   string
	node   *sisci.Node
	ref    *smartio.Ref
	mgr    *Manager
	params ClientParams
	meta   Metadata

	bar    pcie.Addr
	view   *nvme.QueueView
	sqSeg  *smartio.MappedSegment
	cqSeg  *smartio.MappedSegment
	bounce *smartio.MappedSegment
	msiSeg *smartio.MappedSegment // interrupt mailbox (UseInterrupts)
	iv     uint16
	// Zero-copy state: the manager-granted IOVA slice and the device
	// host's IOMMU handle.
	iovaBase uint64
	mmu      *iommu.Unit

	// Bounce layout: a PRP list region of listBytes per slot, then the
	// data partitions from dataBase.
	listBytes uint64
	dataBase  uint64
	slotFree  *sim.Semaphore
	slots     []bool
	// reaper is the completion loop. It outlives Close until the
	// quarantine is drained: it is the only path that can release a
	// quarantined slot, so Crash, or Close after the drain, stops it.
	reaper *nvme.Reaper
	// quarantine maps an abandoned (timed-out / doorbell-lost) command's
	// CID to the bounce slot it still owns: the device may yet DMA into
	// that partition, so the slot is only released when the late
	// completion drains through the reaper. quarCount mirrors len() so
	// QuarantinedSlots is safe from scrape goroutines outside the sim loop.
	quarantine map[uint16]int
	quarCount  atomic.Int32
	// quarDrained fires whenever the quarantine empties; Close waits on it
	// before tearing down DMA windows (see Close).
	quarDrained *sim.Signal
	hbStop      *sim.Signal
	hbQuit      bool
	closed      bool
	// crashed is atomic: Crashed() is wired into telemetry gauges and may
	// be read from the HTTP scrape goroutine while the sim mutates it.
	crashed atomic.Bool

	// Reads/Writes/Flushes count completed operations.
	Reads, Writes, Flushes uint64
	// BounceBytes counts bytes staged through (or out of) the bounce
	// partitions.
	BounceBytes uint64
	// Recovery counters. TimedOut counts commands abandoned at the I/O
	// timeout; Retries counts resubmissions of transient failures;
	// Aborts counts NVMe Aborts issued through the manager;
	// LateCompletions counts quarantined CIDs whose CQE finally drained;
	// AbandonedSlots counts quarantined slots whose late completion never
	// arrived within Close's drain window — deliberately leaked rather
	// than risk a double release or a DMA into recycled memory.
	TimedOut        uint64
	Retries         uint64
	Aborts          uint64
	LateCompletions uint64
	AbandonedSlots  uint64
	// Sheds counts tenant requests refused by the admission hook. A shed
	// happens before any CID, slot or timeout bookkeeping, so it can
	// never inflate TimedOut, Retries or the quarantine (the PR 5
	// recovery path never sees it).
	Sheds uint64
	// admit, when set, gates tenant-tagged I/O (see SetAdmission).
	admit AdmitFunc
	// Phases accumulates per-phase time across completed operations.
	Phases PhaseStats
	// SlotOcc accounts bounce-partition occupancy: slots enter when
	// acquired for an I/O and exit on release (including quarantine
	// drains), so its busy time is the client's data-staging pressure
	// and its max level the peak concurrent slot usage.
	SlotOcc attr.Occ
	// latHist, when set, receives each completed I/O's end-to-end
	// latency in virtual nanoseconds (see SetLatencyHist).
	latHist *stats.PowHistogram
}

// SetLatencyHist attaches a histogram that observes every completed
// read/write's end-to-end latency (submission entry to completion-path
// exit, virtual ns). The telemetry layer uses one per host to attribute
// tail latency to the host that experienced it. Pass nil to detach.
// Observation happens on the simulation loop; the histogram must not be
// read concurrently with a run.
func (c *Client) SetLatencyHist(h *stats.PowHistogram) { c.latHist = h }

// PhaseStats decomposes client I/O time: driver submission software,
// bounce-buffer copies (or IOMMU map/unmap in zero-copy mode), the wait
// for the device (doorbell to completion observed), and completion-path
// software. Sums are virtual nanoseconds over Ops operations.
type PhaseStats struct {
	Ops        int
	SubmitNs   int64
	DataMoveNs int64
	DeviceNs   int64
	CompleteNs int64
}

// Mean returns the per-op mean of each phase in nanoseconds.
func (s PhaseStats) Mean() (submit, dataMove, device, complete float64) {
	if s.Ops == 0 {
		return
	}
	n := float64(s.Ops)
	return float64(s.SubmitNs) / n, float64(s.DataMoveNs) / n,
		float64(s.DeviceNs) / n, float64(s.CompleteNs) / n
}

// NewClient bootstraps a client on node: it reads the manager's metadata
// segment, acquires a shared device reference, allocates queue memory per
// the placement policy with SmartIO hints, requests a queue pair from the
// manager and starts the completion reaper.
func NewClient(p *sim.Proc, name string, svc *smartio.Service, node *sisci.Node, mgr *Manager, params ClientParams) (*Client, error) {
	params = params.withDefaults()
	c := &Client{
		name:       name,
		node:       node,
		mgr:        mgr,
		params:     params,
		quarantine: make(map[uint16]int),
	}
	meta, err := readMetadata(p, node, mgr.Node().ID)
	if err != nil {
		return nil, err
	}
	c.meta = meta
	ref, err := svc.Acquire(smartio.DeviceID(meta.DeviceID), node, false)
	if err != nil {
		return nil, err
	}
	c.ref = ref
	if c.bar, err = ref.MapBAR(); err != nil {
		ref.Release()
		return nil, err
	}

	depth := params.QueueDepth
	// CQ: device writes, CPU polls -> client-local (always).
	c.cqSeg, err = ref.AllocMapped(uint64(depth*nvme.CQESize), smartio.DeviceWrite|smartio.CPURead)
	if err != nil {
		ref.Release()
		return nil, err
	}
	// SQ: placement policy. For SQCMB the manager allocates controller
	// memory instead of a host segment.
	var cmbBytes uint64
	if params.Placement == SQCMB {
		cmbBytes = uint64(depth * nvme.SQESize)
	} else {
		c.sqSeg, err = ref.AllocMappedPlaced(uint64(depth*nvme.SQESize), params.Placement == SQDeviceSide)
		if err != nil {
			ref.Release()
			return nil, err
		}
	}
	// Bounce buffer: a PRP list region + one partition per slot,
	// client-local, mapped once for the device ("programmed once since
	// the DMA buffer segment is constant", §V).
	slots := depth - 1
	c.listBytes = uint64(nvme.PRPListPages(0, int(params.PartitionBytes))) * nvme.PageSize
	c.dataBase = uint64(slots) * c.listBytes
	bounceSize := c.dataBase + uint64(slots)*params.PartitionBytes
	c.bounce, err = ref.AllocMapped(bounceSize, smartio.DeviceRead|smartio.DeviceWrite|smartio.CPURead|smartio.CPUWrite)
	if err != nil {
		ref.Release()
		return nil, err
	}

	var msiDevAddr uint64
	if params.UseInterrupts {
		// Interrupt mailbox: device writes (MSI posted write across the
		// NTB), CPU reads — client-local by the same hint rule as the CQ.
		c.msiSeg, err = ref.AllocMapped(64, smartio.DeviceWrite|smartio.CPURead)
		if err != nil {
			ref.Release()
			return nil, err
		}
		msiDevAddr = c.msiSeg.DevAddr
	}

	var iovaBytes uint64
	if params.ZeroCopy {
		iovaBytes = uint64(slots) * params.PartitionBytes
	}
	var sqDevAddr uint64
	if c.sqSeg != nil {
		sqDevAddr = c.sqSeg.DevAddr
	}
	grant, err := mgr.RequestQueue(p, QueueRequest{
		Depth:     depth,
		SQDevAddr: sqDevAddr,
		CQDevAddr: c.cqSeg.DevAddr,
		MSIAddr:   msiDevAddr,
		IOVABytes: iovaBytes,
		CMBBytes:  cmbBytes,
		Prio:      params.Priority,
		Ref:       ref,
		Host:      uint32(node.ID),
	})
	if err != nil {
		ref.Release()
		return nil, err
	}
	c.iv = grant.IV
	if params.ZeroCopy {
		c.iovaBase = grant.IOVABase
		c.mmu = mgr.IOMMU()
	}
	if grant.Depth != depth {
		depth = grant.Depth
	}
	// The CPU's view of the SQ: its own memory, an NTB window into the
	// device host, or the CMB region of the mapped BAR.
	var sqCPUAddr pcie.Addr
	if grant.CMBGranted {
		sqCPUAddr = c.bar + nvme.CMBBase + pcie.Addr(grant.CMBOffset)
	} else {
		sqCPUAddr = c.sqSeg.CPUAddr
	}
	c.view = nvme.NewQueueView(grant.QID, depth,
		sqCPUAddr, c.cqSeg.CPUAddr,
		c.bar+nvme.SQTailDoorbell(grant.QID, grant.DSTRD),
		c.bar+nvme.CQHeadDoorbell(grant.QID, grant.DSTRD))
	// At QD>1, the locked view coalesces burst submitters' SQ tail
	// doorbells (one NTB MMIO write per burst) and the reaper rings the
	// CQ head once per sweep instead of per entry — both doorbells cross
	// the fabric here, so coalescing removes remote posted writes from
	// the hot path.
	c.view.EnableLocking(node.Host().Domain().Kernel())
	c.view.Tracer = params.Tracer

	c.slotFree = sim.NewSemaphore(node.Host().Domain().Kernel(), slots)
	c.slots = make([]bool, slots)
	c.hbStop = sim.NewSignal(node.Host().Domain().Kernel())
	c.quarDrained = sim.NewSignal(node.Host().Domain().Kernel())
	// Polling wakes on the CQE landing in the CQ ring and pays the poll
	// check; interrupts wake on the MSI mailbox write and pay IRQ entry.
	// A link outage backs off and keeps serving: exiting would strand
	// every in-flight command.
	rp := nvme.ReaperParams{
		WakeNs:  params.PollCheckNs,
		Orphan:  c.reapQuarantined,
		Retry:   func(err error) bool { return errors.Is(err, ntb.ErrLinkDown) },
		RetryNs: 4 * params.PollCheckNs,
	}
	if params.UseInterrupts {
		rp.Edge = pcie.Range{Base: c.msiSeg.Seg.Addr, Size: 64}
		rp.WakeNs = params.IRQEntryNs
	}
	if c.reaper, err = nvme.NewReaper(name+"/poller", node.Host(), c.view, rp); err != nil {
		// The reaper's error is the one to report, so a failed release
		// is dropped.
		_ = mgr.ReleaseQueuePair(p, grant.QID)
		ref.Release()
		return nil, err
	}
	if params.HeartbeatNs > 0 {
		node.Host().Domain().Kernel().Spawn(name+"/heartbeat", c.heartbeat)
	}
	return c, nil
}

// heartbeat refreshes the manager's session lease until Crash or the stop
// signal. It deliberately keeps beating while Close drains the quarantine
// (closed is already set then): if the lease expired mid-drain the
// manager's reaper would tear the queue pair down under the drain wait.
// Close fires hbStop once the drain is done.
func (c *Client) heartbeat(p *sim.Proc) {
	for {
		if c.crashed.Load() || c.hbQuit {
			return
		}
		c.mgr.Heartbeat(p, c.view.ID)
		// hbQuit is checked again here: hbStop is edge-triggered, so a Set
		// fired while this proc was blocked inside the Heartbeat RPC would
		// be lost and the loop would beat forever.
		if c.hbQuit || c.crashed.Load() {
			return
		}
		if p.WaitSignalTimeout(c.hbStop, c.params.HeartbeatNs) {
			return
		}
	}
}

// Metadata returns the bootstrap metadata the client read.
func (c *Client) Metadata() Metadata { return c.meta }

// QID returns the granted queue pair ID.
func (c *Client) QID() uint16 { return c.view.ID }

// QueueView exposes the client's queue-pair state for observability
// (doorbell and coalescing counters).
func (c *Client) QueueView() *nvme.QueueView { return c.view }

// Placement returns the SQ placement in effect.
func (c *Client) Placement() SQPlacement { return c.params.Placement }

// Polls counts the completion reaper's wakeups: each resume of its loop
// after an empty CQ sweep.
func (c *Client) Polls() uint64 { return c.reaper.Wakeups }

// reapQuarantined is the reaper's orphan handler: a CQE with no waiter is
// the late completion of an abandoned command, and only now is its bounce
// partition safe to hand to another request.
func (c *Client) reapQuarantined(cqe nvme.CQE) {
	slot, held := c.quarantine[cqe.CID]
	if !held {
		return
	}
	delete(c.quarantine, cqe.CID)
	c.quarCount.Store(int32(len(c.quarantine)))
	c.releaseSlot(slot)
	c.LateCompletions++
	if len(c.quarantine) == 0 {
		// Close may be blocked on the drain; let it finish teardown.
		c.quarDrained.Set()
	}
}

// partition returns slot's bounce partition: the CPU's address and the
// controller's, through the static bounce window.
func (c *Client) partition(slot int) (cpu, dev uint64) {
	off := c.dataBase + uint64(slot)*c.params.PartitionBytes
	return c.bounce.Seg.Addr + off, c.bounce.DevAddr + off
}

// acquireSlot claims a bounce partition index.
func (c *Client) acquireSlot(p *sim.Proc) int {
	p.Acquire(c.slotFree)
	for i, used := range c.slots {
		if !used {
			c.slots[i] = true
			c.SlotOcc.Enter(p.Now())
			return i
		}
	}
	panic("core: slot accounting broken")
}

// releaseSlot frees a bounce partition. Idempotent: a slot abandoned by
// Close (counted in AbandonedSlots, map cleared) must not be released a
// second time by a reaper that races the teardown — the semaphore would
// overcount and two requests could share a partition.
func (c *Client) releaseSlot(slot int) {
	if !c.slots[slot] {
		return
	}
	c.slots[slot] = false
	c.SlotOcc.Exit(c.node.Host().Domain().Kernel().Now())
	c.slotFree.Release()
}

// Kernel returns the simulation kernel the client's host runs on.
func (c *Client) Kernel() *sim.Kernel { return c.node.Host().Domain().Kernel() }

// Name implements block.Device.
func (c *Client) Name() string { return c.name }

// BlockSize implements block.Device.
func (c *Client) BlockSize() int { return 1 << c.meta.BlockShift }

// Blocks implements block.Device.
func (c *Client) Blocks() uint64 { return c.meta.Blocks }

// ReadBlocks implements block.Device: the controller DMA-writes into this
// client's bounce partition (across the NTB for remote clients), and the
// CPU then copies out of the bounce — the extra copy the paper accepts in
// exchange for static NTB mappings.
func (c *Client) ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	return c.io(p, nvme.IORead, lba, nblk, buf, NoTenant)
}

// WriteBlocks implements block.Device: the CPU copies into the bounce
// partition first; the controller then DMA-reads it.
func (c *Client) WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	return c.io(p, nvme.IOWrite, lba, nblk, data, NoTenant)
}

// NoTenant marks an I/O with no tenant attribution: it bypasses the
// admission hook and carries no tenant label on its trace span.
const NoTenant = -1

// AdmitFunc is the client-side admission gate consulted for every
// tenant-tagged I/O before any submission work happens. Returning false
// sheds the request: the client returns ErrShed without allocating a
// CID or bounce slot, so the retry/timeout machinery never runs.
type AdmitFunc func(tenant int, now int64) bool

// SetAdmission installs (or, with nil, removes) the admission gate.
func (c *Client) SetAdmission(f AdmitFunc) { c.admit = f }

// ReadBlocksTenant is ReadBlocks with tenant attribution: the I/O
// passes the admission gate and its trace span carries the tenant.
func (c *Client) ReadBlocksTenant(p *sim.Proc, tenant int, lba uint64, nblk int, buf []byte) error {
	return c.io(p, nvme.IORead, lba, nblk, buf, tenant)
}

// WriteBlocksTenant is WriteBlocks with tenant attribution.
func (c *Client) WriteBlocksTenant(p *sim.Proc, tenant int, lba uint64, nblk int, data []byte) error {
	return c.io(p, nvme.IOWrite, lba, nblk, data, tenant)
}

// Flush implements block.Device.
func (c *Client) Flush(p *sim.Proc) error {
	if c.closed {
		return ErrClosed
	}
	cmd := nvme.SQE{Opcode: nvme.IOFlush, NSID: 1}
	st, _, err := c.exec(p, &cmd, -1)
	if err != nil {
		return err
	}
	if st != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, st)
	}
	c.Flushes++
	return nil
}

func (c *Client) io(p *sim.Proc, opcode uint8, lba uint64, nblk int, buf []byte, tenant int) error {
	if c.closed {
		return ErrClosed
	}
	// Admission gates ahead of everything: a shed request must cost
	// nothing (no slot, no CID, no timeout accounting) and must never be
	// retried — ErrShed is deliberately neither transient nor fatal.
	if c.admit != nil && tenant != NoTenant && !c.admit(tenant, p.Now()) {
		c.Sheds++
		return ErrShed
	}
	n := nblk * c.BlockSize()
	if len(buf) != n {
		return fmt.Errorf("%w: %d bytes for %d blocks", ErrBadBuffer, len(buf), nblk)
	}
	if uint64(n) > c.params.PartitionBytes {
		return ErrTransferTooLarge
	}
	backoff := c.params.RetryBackoffNs
	for attempt := 0; ; attempt++ {
		err := c.ioAttempt(p, opcode, lba, nblk, buf, tenant)
		if err == nil || attempt >= c.params.MaxRetries ||
			c.closed || c.crashed.Load() || !IsTransient(err) {
			return err
		}
		// Bounded exponential backoff, then resubmit with a fresh CID and
		// a fresh bounce slot (the failed attempt's slot may still be
		// quarantined awaiting its late completion).
		c.Retries++
		p.Sleep(backoff)
		backoff *= 2
	}
}

// ioAttempt performs one submission attempt of a read/write.
func (c *Client) ioAttempt(p *sim.Proc, opcode uint8, lba uint64, nblk int, buf []byte, tenant int) error {
	n := nblk * c.BlockSize()
	phaseStart := p.Now()
	p.Sleep(c.params.SubmitOverheadNs)
	slot := c.acquireSlot(p)
	parked := false
	defer func() {
		if !parked {
			c.releaseSlot(slot)
		}
	}()
	if c.params.RemapPerIO {
		// Ablation: program a fresh device-side window for this request
		// and tear it down afterwards, as a bounce-less design would.
		p.Sleep(ntb.DefaultProgramCostNs)
		defer p.Sleep(ntb.DefaultProgramCostNs)
	}

	partCPU, partDev := c.partition(slot)
	pages := (n + nvme.PageSize - 1) / nvme.PageSize
	mapBytes := uint64(pages) * nvme.PageSize

	submitDone := p.Now()

	dataBase := partDev
	if c.params.ZeroCopy {
		// Map the request's pages into the device host's IOMMU for the
		// duration of the I/O; the data itself is never copied.
		iova := c.iovaBase + uint64(slot)*c.params.PartitionBytes
		if err := c.mmu.Map(p, iova, partDev, mapBytes); err != nil {
			return err
		}
		defer c.mmu.Unmap(p, iova, mapBytes)
		dataBase = iova
		if opcode == nvme.IOWrite {
			// Model boundary only: on hardware the request pages already
			// hold the data (they ARE the pinned pages).
			if err := c.node.Host().Mem().Write(partCPU, buf); err != nil {
				return err
			}
		}
	} else if opcode == nvme.IOWrite {
		// The extra memcpy in the submission path (§V).
		if err := c.node.Host().Write(p, partCPU, buf); err != nil {
			return err
		}
		c.BounceBytes += uint64(n)
	}
	inCopyDone := p.Now()
	cmd := nvme.IOCmd(opcode, lba, nblk)
	list := uint64(slot) * c.listBytes
	if err := nvme.PRPs(c.node.Host(), &cmd, dataBase, n, c.bounce.Seg.Addr+list, c.bounce.DevAddr+list); err != nil {
		return err
	}
	st, slotParked, err := c.exec(p, &cmd, slot)
	parked = slotParked
	if err != nil {
		return err
	}
	deviceDone := p.Now()
	if st != nvme.StatusOK {
		c.params.Tracer.Drop(c.view.ID, cmd.CID)
		if st == nvme.Status(nvme.SCTGeneric, nvme.SCReservationConflict) {
			// Fenced by a reservation: fatal for this path, never retried.
			return fmt.Errorf("%w: status %#x", ErrReservationConflict, st)
		}
		return fmt.Errorf("%w: status %#x", ErrIOFailed, st)
	}
	if opcode == nvme.IORead {
		if c.params.ZeroCopy {
			// Model boundary; zero copy on hardware.
			if err := c.node.Host().Mem().Read(partCPU, buf); err != nil {
				return err
			}
		} else {
			// The extra memcpy in the completion path (§V).
			if err := c.node.Host().Read(p, partCPU, buf); err != nil {
				return err
			}
			c.BounceBytes += uint64(n)
		}
		c.Reads++
	} else {
		c.Writes++
	}
	c.Phases.Ops++
	c.Phases.SubmitNs += submitDone - phaseStart
	c.Phases.DataMoveNs += (inCopyDone - submitDone) + (p.Now() - deviceDone)
	// exec's completion-path software cost is charged inside DeviceNs;
	// split it back out so the decomposition matches the path structure.
	c.Phases.DeviceNs += (deviceDone - inCopyDone) - c.params.CompleteOverheadNs
	c.Phases.CompleteNs += c.params.CompleteOverheadNs
	if c.latHist != nil {
		c.latHist.AddNs(p.Now() - phaseStart)
	}
	if tr := c.params.Tracer; tr != nil {
		// Close the span retroactively: the CID only exists after exec, but
		// the queue view and controller have already attached their hops to
		// the open span keyed (QID, CID). The partition stages mirror the
		// PhaseStats arithmetic exactly, so per span they sum to end-to-end.
		qid, cid := c.view.ID, cmd.CID
		end := p.Now()
		reapStart := deviceDone - c.params.CompleteOverheadNs
		tr.Begin(qid, cid, opcode, phaseStart)
		if tenant != NoTenant {
			tr.SetTenant(qid, cid, int32(tenant))
		}
		tr.Hop(qid, cid, trace.StageSubmit, phaseStart, submitDone)
		tr.Hop(qid, cid, trace.StageDataIn, submitDone, inCopyDone)
		tr.Hop(qid, cid, trace.StageDevice, inCopyDone, reapStart)
		tr.Hop(qid, cid, trace.StageReap, reapStart, deviceDone)
		tr.Hop(qid, cid, trace.StageDataOut, deviceDone, end)
		tr.End(qid, cid, end)
	}
	return nil
}

// DiscardBlocks implements block.Discarder: a single-range Dataset
// Management deallocate, with the range definition staged through the
// bounce buffer like any other outbound data.
func (c *Client) DiscardBlocks(p *sim.Proc, lba uint64, nblk int) error {
	if c.closed {
		return ErrClosed
	}
	p.Sleep(c.params.SubmitOverheadNs)
	slot := c.acquireSlot(p)
	parked := false
	defer func() {
		if !parked {
			c.releaseSlot(slot)
		}
	}()
	partCPU, partDev := c.partition(slot)
	if err := c.node.Host().Write(p, partCPU, nvme.DSMRange(lba, nblk)); err != nil {
		return err
	}
	cmd := nvme.SQE{Opcode: nvme.IODSM, NSID: 1, PRP1: partDev,
		CDW10: 0, CDW11: nvme.DSMAttrDeallocate}
	st, slotParked, err := c.exec(p, &cmd, slot)
	parked = slotParked
	if err != nil {
		return err
	}
	if st != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, st)
	}
	return nil
}

// WriteZeroesBlocks implements block.ZeroWriter: no data transfer at all.
func (c *Client) WriteZeroesBlocks(p *sim.Proc, lba uint64, nblk int) error {
	if c.closed {
		return ErrClosed
	}
	p.Sleep(c.params.SubmitOverheadNs)
	cmd := nvme.IOCmd(nvme.IOWriteZeroes, lba, nblk)
	st, _, err := c.exec(p, &cmd, -1)
	if err != nil {
		return err
	}
	if st != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, st)
	}
	return nil
}

// exec submits one command and waits for its completion or the I/O
// timeout. slot is the bounce partition the command DMAs through, or -1
// for slotless commands (Flush, Write Zeroes). The returned parked flag
// reports that slot ownership moved to the quarantine: the command was
// abandoned but may still execute and DMA into the partition, so the
// caller must NOT release the slot — the reaper does, when the late
// completion drains.
func (c *Client) exec(p *sim.Proc, cmd *nvme.SQE, slot int) (uint16, bool, error) {
	cmd.CID = c.view.NextCID()
	done, err := c.reaper.Submit(p, cmd)
	if err != nil {
		c.params.Tracer.Drop(c.view.ID, cmd.CID)
		if errors.Is(err, nvme.ErrDoorbellLost) {
			// The SQE is committed in the ring; a later ring's cumulative
			// tail will run it. Quarantine the slot like a timeout.
			parked := false
			if slot >= 0 {
				c.quarantine[cmd.CID] = slot
				c.quarCount.Store(int32(len(c.quarantine)))
				parked = true
			}
			return 0, parked, Transient(err)
		}
		if errors.Is(err, ntb.ErrLinkDown) {
			// Nothing left the host: the queue view rolled its state back.
			return 0, false, Transient(err)
		}
		return 0, false, err
	}
	status, ok := p.WaitTimeout(done, c.params.IOTimeoutNs)
	if !ok {
		// Abandon the command. The CID is never reused within the 16-bit
		// window a queue can have in flight, and its slot (if any) is
		// quarantined BEFORE any further blocking so the reaper can always
		// find it when the late completion lands.
		c.reaper.Forget(cmd.CID)
		c.params.Tracer.Drop(c.view.ID, cmd.CID)
		c.TimedOut++
		parked := false
		if slot >= 0 {
			c.quarantine[cmd.CID] = slot
			c.quarCount.Store(int32(len(c.quarantine)))
			parked = true
		}
		if c.params.AbortOnTimeout && !c.closed && !c.crashed.Load() {
			if err := c.mgr.AbortCommand(p, c.view.ID, cmd.CID); err == nil {
				c.Aborts++
			}
		}
		return 0, parked, Transient(fmt.Errorf("%w: CID %d after %d ns",
			ErrIOTimeout, cmd.CID, c.params.IOTimeoutNs))
	}
	p.Sleep(c.params.CompleteOverheadNs)
	return status.(uint16), false, nil
}

// Crash simulates a host failure: the client stops completion handling
// and heartbeats immediately and releases nothing — reclaiming its queue
// pair and DMA windows is the manager's job (the session lease expires
// and the manager's lease reaper tears the queue pair down). Callable
// from timer callbacks; it never blocks. It stops the heartbeat before
// the completion reaper because the order of Set calls is the order the
// two resume in.
func (c *Client) Crash() {
	if c.closed || c.crashed.Load() {
		return
	}
	c.crashed.Store(true)
	c.closed = true
	c.hbStop.Set()
	c.reaper.Stop()
}

// Crashed reports whether Crash was called. Safe from any goroutine: the
// telemetry registry samples it from the HTTP scrape path while the sim
// loop may be mutating the client.
func (c *Client) Crashed() bool { return c.crashed.Load() }

// QuarantinedSlots returns how many bounce slots are parked awaiting a
// late completion. Reads an atomic mirror of the quarantine map's size, so
// it is safe from scrape goroutines outside the simulation loop.
func (c *Client) QuarantinedSlots() int { return int(c.quarCount.Load()) }

// Close releases the queue pair, DMA windows and device reference. If
// the manager already reclaimed the queue pair (this client's lease
// expired), Close reports ErrQueueReclaimed: everything it would release
// is already gone.
//
// If slots are quarantined (a timed-out command's late completion still
// owed), Close first waits — bounded by CloseDrainNs — for the reaper to
// drain them. Freeing the bounce segment with a command still
// in flight would let the device DMA into recycled memory, and a reaper
// racing the teardown could release a slot Close already accounted for
// (the late-CQE-after-Close double release). Slots still parked when the
// window expires are leaked on purpose and counted in AbandonedSlots.
func (c *Client) Close(p *sim.Proc) error {
	if c.closed {
		return ErrClosed
	}
	c.closed = true
	for len(c.quarantine) > 0 {
		// The reaper and heartbeat both keep running during the drain: the
		// reaper is the only legal path to release a quarantined slot, and
		// the heartbeat keeps the lease alive so the manager's reaper does
		// not tear down the queue pair underneath the wait.
		if !p.WaitSignalTimeout(c.quarDrained, c.params.CloseDrainNs) {
			// Drain window expired: abandon the stragglers. The map is
			// cleared so a late CQE arriving before the reaper stops
			// finds nothing to release (releaseSlot is idempotent
			// regardless).
			c.AbandonedSlots += uint64(len(c.quarantine))
			c.quarantine = make(map[uint16]int)
			c.quarCount.Store(0)
			break
		}
	}
	c.reaper.Stop()
	c.hbQuit = true
	c.hbStop.Set()
	if err := c.mgr.ReleaseQueuePair(p, c.view.ID); err != nil {
		return err
	}
	segs := []*smartio.MappedSegment{c.cqSeg, c.bounce}
	if c.sqSeg != nil {
		segs = append(segs, c.sqSeg)
	}
	if c.msiSeg != nil {
		segs = append(segs, c.msiSeg)
	}
	for _, seg := range segs {
		if err := seg.Free(c.ref); err != nil {
			return err
		}
	}
	return c.ref.Release()
}
