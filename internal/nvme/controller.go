package nvme

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/ntb"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params configures a controller.
type Params struct {
	// MaxQueuePairs counts the admin pair plus I/O pairs. The paper's
	// P4800X supports 32 (31 I/O pairs + admin), letting 31 hosts share
	// the device.
	MaxQueuePairs int
	// CmdOverheadNs is firmware decode/setup per command.
	CmdOverheadNs int64
	// AdminOverheadNs is firmware decode/setup for admin-queue commands
	// specifically; 0 means "same as CmdOverheadNs". Overlay experiments
	// scale it independently to measure how much bring-up cost the admin
	// path contributes (the ROADMAP's admin-queue-sharding question).
	AdminOverheadNs int64
	// CplOverheadNs is firmware completion-path cost per command.
	CplOverheadNs int64
	// EnableDelayNs is the CC.EN -> CSTS.RDY transition time.
	EnableDelayNs int64
	// MaxInflight bounds concurrently executing commands.
	MaxInflight int
	// CMBBytes sizes the Controller Memory Buffer exposed at CMBBase in
	// BAR0 (0 disables it). The BAR must be large enough to cover it.
	CMBBytes uint64
}

// Controller properties and costs that every controller shares.
const (
	// MQES is CAP.MQES: maximum queue entries, 0-based.
	MQES = 1023
	// DSTRD is CAP.DSTRD (doorbell stride exponent).
	DSTRD = 0
	// CMBAccessNs is the controller's internal access time to CMB memory
	// (SRAM-class; replaces a fabric DMA round trip for queues placed
	// there).
	CMBAccessNs = 60
	// LinkRetryNs bounds how long a command fetch or CQE post is retried
	// when the fabric reports a link outage before the controller
	// declares itself fatal (CSTS.CFS). An NTB link flap shorter than
	// this window is ridden out instead of bricking the device for every
	// attached host — the behavior a multi-path volume layer depends on.
	LinkRetryNs = 2 * sim.Millisecond
)

// DefaultParams returns the P4800X-class controller calibration.
func DefaultParams() Params {
	return Params{
		MaxQueuePairs: 32,
		CmdOverheadNs: 350,
		CplOverheadNs: 150,
		EnableDelayNs: 50_000,
		MaxInflight:   64,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.MaxQueuePairs == 0 {
		p.MaxQueuePairs = d.MaxQueuePairs
	}
	if p.CmdOverheadNs == 0 {
		p.CmdOverheadNs = d.CmdOverheadNs
	}
	if p.CplOverheadNs == 0 {
		p.CplOverheadNs = d.CplOverheadNs
	}
	if p.EnableDelayNs == 0 {
		p.EnableDelayNs = d.EnableDelayNs
	}
	if p.MaxInflight == 0 {
		p.MaxInflight = d.MaxInflight
	}
	return p
}

// MSIEntry is a configured MSI-X vector: an interrupt is a posted write of
// Data to Addr in the controller's domain.
type MSIEntry struct {
	Addr    pcie.Addr
	Data    uint32
	Enabled bool
}

type subQueue struct {
	id      uint16
	base    pcie.Addr
	size    int
	head    int
	tail    int
	cqid    uint16
	created bool
	// prio is the queue's declared priority class (QPrio*, from Create
	// I/O SQ CDW11 bits 2:1). Only consulted when CC.AMS selects WRR.
	prio uint8
}

type compQueue struct {
	id      uint16
	base    pcie.Addr
	size    int
	tail    int
	phase   bool
	head    int
	ien     bool
	iv      uint16
	created bool
	sqCount int // SQs mapped to this CQ
}

// QueueStats are per-submission-queue counters, the attribution layer
// for multi-host sharing: each host owns its queue pair(s), so a queue's
// counters are that host's share of the device. Telemetry wires these as
// {host,qid}-labeled series.
type QueueStats struct {
	// Fetched counts SQE fetch DMAs issued for this queue.
	Fetched uint64
	// ReadCmds and WriteCmds count successfully executed I/O commands.
	ReadCmds  uint64
	WriteCmds uint64
	// Completions counts CQEs posted to this queue's paired CQ.
	Completions uint64
	// SQDoorbells counts tail doorbell register writes for this queue
	// (the device-side view of this host's ring traffic).
	SQDoorbells uint64
	// CQEsDropped counts completions discarded by fault injection
	// (InjectDropCQEs) for this queue.
	CQEsDropped uint64
	// SQOcc accounts submission-queue occupancy: entries enter at the
	// tail-doorbell write and exit when the arbitration loop claims
	// them, so its residence time is exactly the SQ queueing delay.
	SQOcc attr.Occ
	// CQOcc accounts completion-queue occupancy (indexed by CQ ID,
	// which pairs 1:1 with the SQ ID here): entries enter when the CQE
	// posts and exit at the host's CQ head-doorbell write.
	CQOcc attr.Occ
}

// Stats are controller counters exposed for tests and tools.
type Stats struct {
	AdminCmds   uint64
	ReadCmds    uint64
	WriteCmds   uint64
	FlushCmds   uint64
	ErrorCmds   uint64
	MediaErrs   uint64
	Fetches     uint64
	Completions uint64
	Interrupts  uint64
	// SQDoorbellWrites and CQDoorbellWrites count doorbell register writes
	// arriving at the controller (the device-side view of ring traffic;
	// compare QueueView.SQDoorbells for the driver-side view).
	SQDoorbellWrites uint64
	CQDoorbellWrites uint64
	// CQEsDropped counts completions discarded by fault injection
	// (InjectDropCQEs): the command executed but its CQE never reached
	// the host, which must recover by timeout + retry.
	CQEsDropped uint64
	// LinkRetries counts fetch/CQE DMAs re-issued after a fabric link
	// outage (see LinkRetryNs).
	LinkRetries uint64
	// Reservation counters: successful Register/Acquire/Release commands,
	// preemptions, and commands completed with Reservation Conflict (each
	// of those was fenced before touching the medium).
	ResvRegisters uint64
	ResvAcquires  uint64
	ResvReleases  uint64
	ResvPreempts  uint64
	ResvConflicts uint64
	// ArbFetched counts I/O commands claimed by the arbitration loop,
	// split by the submission queue's declared priority class (indexed
	// by QPrio*). Queues carry their class under round-robin arbitration
	// too, so the split attributes fetches in either mode.
	ArbFetched [4]uint64
	// ArbRounds counts weighted-round-robin credit refill rounds; stays
	// zero under round-robin arbitration.
	ArbRounds uint64
}

// Controller is a simulated single-function NVMe controller. Create it
// with New, attach its BAR to a fabric domain, then drive it exactly as a
// driver drives hardware: write registers, ring doorbells, poll CQs.
type Controller struct {
	name   string
	kernel *sim.Kernel
	dom    *pcie.Domain
	node   pcie.NodeID
	bar    pcie.Range
	med    Medium
	params Params

	cc   uint32
	csts uint32
	aqa  uint32
	asq  uint64
	acq  uint64

	sqs []*subQueue
	cqs []*compQueue
	// sqEnd is one past the highest SQ ID ever created. Every slot from it
	// on is empty, so arbitration scans stop there.
	sqEnd int

	doorbell  *sim.Signal
	cqSpace   *sim.Signal
	enableSig *sim.Signal
	inflight  *sim.Semaphore

	msi []MSIEntry

	// cmb backs the Controller Memory Buffer (nil when disabled).
	cmb []byte
	// vwc is the volatile-write-cache feature state (always reported; the
	// Optane-class medium itself is cacheless, so it is a no-op switch).
	vwc bool

	ident IdentifyController

	// Stats is exported state for observability; not part of the device
	// model.
	Stats Stats
	// BusyOcc accounts commands in flight inside the controller (fetch
	// through CQE post): its busy time is the controller's non-idle
	// time, its mean level the effective command concurrency.
	BusyOcc attr.Occ
	// AdminOcc accounts admin commands specifically — the contended
	// bring-up resource when many hosts share one controller.
	AdminOcc attr.Occ
	// qstats attributes work to individual queues, indexed by SQ ID.
	qstats []QueueStats

	// dropCQE counts, per SQ ID, completions to silently discard (fault
	// injection, see InjectDropCQEs).
	dropCQE []int

	// resv is the namespace's persistent-reservation state (one namespace).
	resv *resvState

	// arbCDW11 is the Arbitration feature (FID 0x01) value; wrr is the
	// scheduler state derived from it, consulted only when CC.AMS selects
	// WRR with urgent.
	arbCDW11 uint32
	wrr      wrrSched
	// pending holds classPending's list for each weighted class, reused
	// from pass to pass.
	pending [3][]uint16

	// tracer records device-side hops (fetch, decode, medium, transfer,
	// completion post) on the span keyed by (SQ ID, CID). Nil when
	// tracing is off.
	tracer *trace.Tracer

	// cmdName names every command process (it shows only in panics).
	cmdName string
	// bufs is the free list of per-command buffers; the inflight
	// semaphore bounds how many are out at once.
	bufs []*cmdBufs
}

// cmdBufs is one executing command's working memory: the buffer its
// SQE is fetched into and its Read or Write data buffer. Fabric reads
// fill both through the Target interface, so they cannot live on the
// stack; the controller recycles them instead of allocating per command.
type cmdBufs struct {
	sqe  [SQESize]byte
	data []byte
}

// dataBuf returns the data buffer resized to n bytes.
func (s *cmdBufs) dataBuf(n int) []byte {
	if cap(s.data) < n {
		s.data = make([]byte, n)
	}
	return s.data[:n]
}

func (c *Controller) getBufs() *cmdBufs {
	n := len(c.bufs) - 1
	if n < 0 {
		return &cmdBufs{}
	}
	s := c.bufs[n]
	c.bufs[n] = nil
	c.bufs = c.bufs[:n]
	return s
}

func (c *Controller) putBufs(s *cmdBufs) { c.bufs = append(c.bufs, s) }

// New creates a controller attached at node in dom, claiming bar for its
// register file, executing against med.
func New(name string, dom *pcie.Domain, node pcie.NodeID, bar pcie.Range, med Medium, params Params) (*Controller, error) {
	p := params.withDefaults()
	c := &Controller{
		name:    name,
		cmdName: name + "/cmd",
		kernel:  dom.Kernel(),
		dom:     dom,
		node:    node,
		bar:     bar,
		med:     med,
		params:  p,
		sqs:     make([]*subQueue, p.MaxQueuePairs),
		cqs:     make([]*compQueue, p.MaxQueuePairs),
		msi:     make([]MSIEntry, p.MaxQueuePairs),
		qstats:  make([]QueueStats, p.MaxQueuePairs),
		dropCQE: make([]int, p.MaxQueuePairs),
		resv:    newResvState(),
		ident: IdentifyController{
			VID:      0x8086,
			SSVID:    0x8086,
			Serial:   "SIMP4800X0001",
			Model:    "Simulated Optane P4800X",
			Firmware: "E2010600",
			OACS:     OACSGetLogPage,
			ONCS:     ONCSCompare | ONCSWriteZeroes | ONCSDSM | ONCSReservations,
			NN:       1,
		},
	}
	c.doorbell = sim.NewSignal(c.kernel)
	c.cqSpace = sim.NewSignal(c.kernel)
	c.enableSig = sim.NewSignal(c.kernel)
	c.inflight = sim.NewSemaphore(c.kernel, p.MaxInflight)
	c.arbCDW11 = defaultArbCDW11
	c.applyArb()
	if p.CMBBytes > 0 {
		if CMBBase+p.CMBBytes > bar.Size {
			return nil, fmt.Errorf("nvme: CMB of %d bytes does not fit BAR of %#x", p.CMBBytes, bar.Size)
		}
		c.cmb = make([]byte, p.CMBBytes)
	}
	if err := dom.Claim(bar, node, c); err != nil {
		return nil, err
	}
	c.kernel.Spawn(name+"/ctrl", c.run)
	return c, nil
}

// BAR returns the controller's register range.
func (c *Controller) BAR() pcie.Range { return c.bar }

// Node returns the controller's fabric node.
func (c *Controller) Node() pcie.NodeID { return c.node }

// Domain returns the domain the controller lives in.
func (c *Controller) Domain() *pcie.Domain { return c.dom }

// Params returns the controller configuration.
func (c *Controller) Params() Params { return c.params }

// Medium returns the backing medium.
func (c *Controller) Medium() Medium { return c.med }

// SetTracer attaches (or detaches, with nil) a tracer recording
// device-side hops per command. Call before driving I/O.
func (c *Controller) SetTracer(t *trace.Tracer) { c.tracer = t }

// SetMSIVector programs MSI-X vector iv to post data to addr. It is a
// convenience equivalent to writing the vector's MSI-X table entry
// through the BAR.
func (c *Controller) SetMSIVector(iv uint16, addr pcie.Addr, data uint32) error {
	if int(iv) >= len(c.msi) {
		return fmt.Errorf("nvme: MSI vector %d out of range", iv)
	}
	c.msi[iv] = MSIEntry{Addr: addr, Data: data, Enabled: true}
	return nil
}

// msixWrite handles a write into the MSI-X vector table. Partial-entry
// writes are applied field-wise, as hardware does.
func (c *Controller) msixWrite(off uint64, data []byte) {
	iv := int(off / MSIXEntrySize)
	if iv >= len(c.msi) {
		return
	}
	field := off % MSIXEntrySize
	e := &c.msi[iv]
	for i, b := range data {
		pos := field + uint64(i)
		switch {
		case pos < 8:
			shift := 8 * pos
			e.Addr = e.Addr&^(0xFF<<shift) | pcie.Addr(b)<<shift
		case pos < 12:
			shift := 8 * (pos - 8)
			e.Data = e.Data&^(0xFF<<shift) | uint32(b)<<shift
		case pos == 12:
			// Control: bit 0 masks the vector.
			e.Enabled = b&1 == 0 && e.Addr != 0
		}
	}
	if field < 12 && e.Addr != 0 {
		e.Enabled = true
	}
}

// Ready reports CSTS.RDY.
func (c *Controller) Ready() bool { return c.csts&CSTSReady != 0 }

// Fatal reports CSTS.CFS.
func (c *Controller) Fatal() bool { return c.csts&CSTSCFS != 0 }

// cap builds the CAP register value.
func (c *Controller) capReg() uint64 {
	v := uint64(MQES)        // MQES
	v |= CAPAMSWRRU          // AMS: WRR with urgent supported
	v |= uint64(20) << 24    // TO: 10 s in 500 ms units
	v |= uint64(DSTRD) << 32 // DSTRD
	v |= uint64(1) << 37     // CSS: NVM command set
	return v
}

// TargetRead implements pcie.Target: register reads.
func (c *Controller) TargetRead(addr pcie.Addr, buf []byte) {
	off := addr - c.bar.Base
	if off >= CMBBase {
		if c.cmb != nil && off-CMBBase+uint64(len(buf)) <= uint64(len(c.cmb)) {
			copy(buf, c.cmb[off-CMBBase:])
		} else {
			for i := range buf {
				buf[i] = 0
			}
		}
		return
	}
	var v uint64
	switch {
	case off >= RegCAP && off < RegCAP+8:
		v = c.capReg() >> (8 * (off - RegCAP))
	case off >= RegVS && off < RegVS+4:
		v = uint64(Version) >> (8 * (off - RegVS))
	case off >= RegCC && off < RegCC+4:
		v = uint64(c.cc) >> (8 * (off - RegCC))
	case off >= RegCSTS && off < RegCSTS+4:
		v = uint64(c.csts) >> (8 * (off - RegCSTS))
	case off >= RegAQA && off < RegAQA+4:
		v = uint64(c.aqa) >> (8 * (off - RegAQA))
	case off >= RegASQ && off < RegASQ+8:
		v = c.asq >> (8 * (off - RegASQ))
	case off >= RegACQ && off < RegACQ+8:
		v = c.acq >> (8 * (off - RegACQ))
	case off >= RegCMBLOC && off < RegCMBLOC+4:
		if c.cmb != nil {
			v = uint64(CMBBase) >> (8 * (off - RegCMBLOC))
		}
	case off >= RegCMBSZ && off < RegCMBSZ+4:
		v = uint64(len(c.cmb)) >> (8 * (off - RegCMBSZ))
	default:
		v = 0 // doorbells and reserved read as zero
	}
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
}

// TargetWrite implements pcie.Target: register, doorbell and MSI-X table
// writes. It runs inline in the event kernel at delivery time and must
// not block.
func (c *Controller) TargetWrite(addr pcie.Addr, data []byte) {
	off := addr - c.bar.Base
	if off >= CMBBase {
		if c.cmb != nil && off-CMBBase+uint64(len(data)) <= uint64(len(c.cmb)) {
			copy(c.cmb[off-CMBBase:], data)
		}
		return
	}
	if off >= MSIXTableBase {
		c.msixWrite(off-MSIXTableBase, data)
		return
	}
	if off >= DoorbellBase {
		c.doorbellWrite(off, data)
		return
	}
	var v uint64
	for i := 0; i < len(data) && i < 8; i++ {
		v |= uint64(data[i]) << (8 * i)
	}
	switch off {
	case RegCC:
		c.writeCC(uint32(v))
	case RegAQA:
		c.aqa = uint32(v)
	case RegASQ:
		c.asq = v
	case RegACQ:
		c.acq = v
	case RegINTMS, RegINTMC:
		// Interrupt masking not modeled; MSI vectors are per-CQ.
	default:
		// Writes to RO/reserved registers are ignored, as hardware does.
	}
}

func (c *Controller) writeCC(v uint32) {
	was := c.cc&CCEnable != 0
	c.cc = v
	now := v&CCEnable != 0
	switch {
	case now && !was:
		c.kernel.After(c.params.EnableDelayNs, c.enable)
	case !now && was:
		c.reset()
	}
}

// enable brings the controller ready: admin queues are created from
// AQA/ASQ/ACQ and CSTS.RDY is set.
func (c *Controller) enable() {
	asqs := int(c.aqa&0xFFF) + 1
	acqs := int(c.aqa>>16&0xFFF) + 1
	c.sqs[0] = &subQueue{id: 0, base: c.asq, size: asqs, cqid: 0, created: true}
	c.sqEnd = max(c.sqEnd, 1)
	c.cqs[0] = &compQueue{id: 0, base: c.acq, size: acqs, phase: true, ien: true, iv: 0, created: true, sqCount: 1}
	c.csts |= CSTSReady
	c.enableSig.Set()
}

// reset clears controller state (CC.EN falling edge). Reservations do not
// persist through a controller reset (no Persist Through Power Loss
// support is advertised).
func (c *Controller) reset() {
	c.csts &^= CSTSReady | CSTSCFS
	for i := range c.sqs {
		c.sqs[i] = nil
		c.cqs[i] = nil
	}
	c.resv = newResvState()
	// Feature values do not persist through a reset.
	c.arbCDW11 = defaultArbCDW11
	c.applyArb()
}

func (c *Controller) doorbellWrite(off uint64, data []byte) {
	if len(data) < 4 {
		return
	}
	stride := uint64(4) << DSTRD
	idx := (off - DoorbellBase) / stride
	if (off-DoorbellBase)%stride != 0 {
		return
	}
	qid := int(idx / 2)
	val := int(binary.LittleEndian.Uint32(data))
	if qid >= c.params.MaxQueuePairs {
		return
	}
	if idx%2 == 0 {
		sq := c.sqs[qid]
		if sq == nil || !sq.created || val < 0 || val >= sq.size {
			c.csts |= CSTSCFS
			return
		}
		c.Stats.SQDoorbellWrites++
		c.qstats[qid].SQDoorbells++
		if n := (val - sq.tail + sq.size) % sq.size; n > 0 {
			c.qstats[qid].SQOcc.EnterN(c.kernel.Now(), int64(n))
		}
		sq.tail = val
		c.doorbell.Set()
	} else {
		cq := c.cqs[qid]
		if cq == nil || !cq.created || val < 0 || val >= cq.size {
			c.csts |= CSTSCFS
			return
		}
		c.Stats.CQDoorbellWrites++
		if n := (val - cq.head + cq.size) % cq.size; n > 0 {
			c.qstats[qid].CQOcc.ExitN(c.kernel.Now(), int64(n))
		}
		cq.head = val
		c.cqSpace.Set()
	}
}

// run is the controller's main arbitration loop. The arbitration
// mechanism is selected by CC.AMS: plain round-robin across submission
// queues (the default), or weighted round robin with urgent priority
// class when the host selected AMSWRRUrgent at enable time.
func (c *Controller) run(p *sim.Proc) {
	rr := 0
	for {
		if c.csts&CSTSReady == 0 {
			p.WaitSignal(c.enableSig)
			continue
		}
		var progressed bool
		if c.cc>>CCAMSShift&CCAMSMask == AMSWRRUrgent {
			progressed = c.wrrPass(p)
		} else {
			progressed = c.rrPass(p, &rr)
		}
		if !progressed {
			// No yields happen between the (empty) scan and this wait,
			// so a doorbell cannot slip by unseen.
			p.WaitSignal(c.doorbell)
		}
	}
}

// rrPass is one round-robin arbitration pass: every queue with pending
// entries gets one command dispatched, starting after the queue served
// first on the previous pass. It visits the slots from *rr to the end and
// then from the start, as a scan of every slot would, but stops each run
// at sqEnd. dispatch can block while a command creates a queue, so the
// bound is read again at every step; the slots a scan would visit before
// the bound rose were empty when it visited them.
func (c *Controller) rrPass(p *sim.Proc, rr *int) bool {
	progressed := false
	for i := *rr; i < c.sqEnd; i++ {
		if c.serveOne(p, i) {
			progressed = true
		}
	}
	for i := 0; i < *rr && i < c.sqEnd; i++ {
		if c.serveOne(p, i) {
			progressed = true
		}
	}
	*rr = (*rr + 1) % len(c.sqs)
	return progressed
}

// serveOne dispatches one command from SQ qid if it has entries pending,
// and reports whether it did.
func (c *Controller) serveOne(p *sim.Proc, qid int) bool {
	sq := c.sqs[qid]
	if sq == nil || !sq.created || sq.head == sq.tail {
		return false
	}
	c.dispatch(p, sq)
	return true
}

// dispatch claims the next slot of sq and starts a command process to
// execute it, on a parked kernel runner when one is free. Claiming up
// front lets the arbitration loop move on; the command process fetches
// the entry itself (fetch latency depends on where the SQ memory lives —
// the Fig. 8 effect).
func (c *Controller) dispatch(p *sim.Proc, sq *subQueue) {
	slot := sq.head
	sq.head = (sq.head + 1) % sq.size
	c.qstats[sq.id].SQOcc.Exit(p.Now())
	if sq.id != 0 {
		c.Stats.ArbFetched[sq.prio&3]++
	}
	p.Acquire(c.inflight)
	c.kernel.Spawn(c.cmdName, func(wp *sim.Proc) {
		defer c.inflight.Release()
		c.execute(wp, sq, slot)
	})
}

// QueueStats returns the per-queue counters for SQ qid (zero value for
// out-of-range or never-created queues).
func (c *Controller) QueueStats(qid uint16) QueueStats {
	if int(qid) >= len(c.qstats) {
		return QueueStats{}
	}
	return c.qstats[qid]
}

// ActiveIOQueues lists the created I/O submission queue IDs in ascending
// order (the admin queue, qid 0, is excluded). Telemetry uses this to
// wire per-queue labeled gauges after bring-up.
func (c *Controller) ActiveIOQueues() []uint16 {
	var out []uint16
	for i := 1; i < len(c.sqs); i++ {
		if sq := c.sqs[i]; sq != nil && sq.created {
			out = append(out, uint16(i))
		}
	}
	return out
}

// cmbAt returns the CMB backing slice for a device-domain address range,
// or nil when the range is outside the CMB (or it is disabled).
func (c *Controller) cmbAt(addr pcie.Addr, n int) []byte {
	if c.cmb == nil {
		return nil
	}
	base := c.bar.Base + CMBBase
	if addr < base || addr+pcie.Addr(n) > base+pcie.Addr(len(c.cmb)) {
		return nil
	}
	off := addr - base
	return c.cmb[off : off+pcie.Addr(n)]
}

// dmaRead fetches n bytes for the controller: internal CMB access when the
// address falls inside the buffer, a fabric DMA read otherwise.
func (c *Controller) dmaRead(p *sim.Proc, addr pcie.Addr, buf []byte) error {
	if s := c.cmbAt(addr, len(buf)); s != nil {
		p.Sleep(CMBAccessNs)
		copy(buf, s)
		return nil
	}
	return c.dom.MemRead(p, c.node, addr, buf)
}

// dmaWrite stores data for the controller: internal CMB access or a
// posted fabric write.
func (c *Controller) dmaWrite(p *sim.Proc, addr pcie.Addr, data []byte) error {
	if s := c.cmbAt(addr, len(data)); s != nil {
		p.Sleep(CMBAccessNs)
		copy(s, data)
		return nil
	}
	return c.dom.MemWrite(p, c.node, addr, data)
}

// dmaRetry runs op, riding out fabric link outages with bounded
// exponential backoff (LinkRetryNs): a transient NTB flap must
// not brick the controller for every attached host. Any other error, or
// an outage outlasting the window, is returned for the caller to treat
// as fatal.
func (c *Controller) dmaRetry(p *sim.Proc, op func() error) error {
	err := op()
	if err == nil || !errors.Is(err, ntb.ErrLinkDown) {
		return err
	}
	deadline := p.Now() + LinkRetryNs
	backoff := int64(sim.Microsecond)
	for {
		c.Stats.LinkRetries++
		p.Sleep(backoff)
		if backoff < 16*sim.Microsecond {
			backoff *= 2
		}
		err = op()
		if err == nil || !errors.Is(err, ntb.ErrLinkDown) || p.Now() >= deadline {
			return err
		}
	}
}

// execute fetches and runs the command in SQ slot, then posts a completion.
func (c *Controller) execute(p *sim.Proc, sq *subQueue, slot int) {
	c.BusyOcc.Enter(p.Now())
	defer func() { c.BusyOcc.Exit(p.Now()) }()
	if sq.id == 0 {
		c.AdminOcc.Enter(p.Now())
		defer func() { c.AdminOcc.Exit(p.Now()) }()
	}
	tr := c.tracer
	t0 := p.Now()
	s := c.getBufs()
	defer c.putBufs(s)
	if err := c.dmaRetry(p, func() error {
		return c.dmaRead(p, sq.base+pcie.Addr(slot*SQESize), s.sqe[:])
	}); err != nil {
		c.csts |= CSTSCFS
		return
	}
	c.Stats.Fetches++
	c.qstats[sq.id].Fetched++
	cmd := UnmarshalSQE(s.sqe[:])
	if tr != nil {
		var cross uint64
		if res, err := c.dom.Resolve(c.node, sq.base, 1); err == nil {
			cross = uint64(res.Crossings)
		}
		tr.HopNote(sq.id, cmd.CID, trace.StageCtrlFetch, t0, p.Now(), cross)
		t0 = p.Now()
	}
	decodeNs := c.params.CmdOverheadNs
	if sq.id == 0 && c.params.AdminOverheadNs > 0 {
		decodeNs = c.params.AdminOverheadNs
	}
	p.Sleep(decodeNs)
	tr.Hop(sq.id, cmd.CID, trace.StageCtrlDecode, t0, p.Now())

	var status uint16
	var dw0 uint32
	if sq.id == 0 {
		status, dw0 = c.execAdmin(p, &cmd)
		c.Stats.AdminCmds++
	} else {
		status = c.execIO(p, sq.id, &cmd, s)
	}
	if status != StatusOK {
		c.Stats.ErrorCmds++
	}
	c.complete(p, sq, cmd.CID, dw0, status)
}

// complete posts a CQE to the SQ's paired CQ, waiting for space if the
// host has not consumed earlier entries.
func (c *Controller) complete(p *sim.Proc, sq *subQueue, cid uint16, dw0 uint32, status uint16) {
	t0 := p.Now()
	cq := c.cqs[sq.cqid]
	if cq == nil || !cq.created {
		c.csts |= CSTSCFS
		return
	}
	if c.dropCQE[sq.id] > 0 {
		// Injected fault: the command executed but its completion is lost
		// before reaching the CQ. Exactly this CID disappears; later
		// completions for the queue are unaffected.
		c.dropCQE[sq.id]--
		c.Stats.CQEsDropped++
		c.qstats[sq.id].CQEsDropped++
		return
	}
	for (cq.tail+1)%cq.size == cq.head {
		p.WaitSignal(c.cqSpace)
	}
	idx := cq.tail
	ph := cq.phase
	cq.tail++
	if cq.tail == cq.size {
		cq.tail = 0
		cq.phase = !cq.phase
	}
	cqe := CQE{DW0: dw0, SQHead: uint16(sq.head), SQID: sq.id, CID: cid}
	cqe.StatusPhase = status << 1
	if ph {
		cqe.StatusPhase |= 1
	}
	var b [CQESize]byte
	cqe.encode(b[:])
	p.Sleep(c.params.CplOverheadNs)
	if err := c.dmaRetry(p, func() error {
		return c.dmaWrite(p, cq.base+pcie.Addr(idx*CQESize), b[:])
	}); err != nil {
		c.csts |= CSTSCFS
		return
	}
	c.tracer.Hop(sq.id, cid, trace.StageCQPost, t0, p.Now())
	c.Stats.Completions++
	c.qstats[sq.id].Completions++
	c.qstats[sq.cqid].CQOcc.Enter(p.Now())
	if cq.ien {
		c.interrupt(p, cq.iv)
	}
}

// InjectDropCQEs arms the controller to discard the next n completions
// destined for SQ qid (fault injection). Out-of-range qids are ignored.
func (c *Controller) InjectDropCQEs(qid uint16, n int) {
	if int(qid) < len(c.dropCQE) {
		c.dropCQE[qid] += n
	}
}

// interrupt delivers MSI vector iv as a posted write.
func (c *Controller) interrupt(p *sim.Proc, iv uint16) {
	if int(iv) >= len(c.msi) || !c.msi[iv].Enabled {
		return
	}
	e := c.msi[iv]
	var data [4]byte
	binary.LittleEndian.PutUint32(data[:], e.Data)
	if err := c.dom.MemWrite(p, c.node, e.Addr, data[:]); err == nil {
		c.Stats.Interrupts++
	}
}
