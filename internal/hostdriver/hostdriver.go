// Package hostdriver is the "stock Linux NVMe driver" baseline of the
// paper's evaluation (Fig. 9a, local case): an optimized local driver
// with interrupt-driven completion, per-queue command contexts with
// preallocated DMA pages (no bounce copies), and multiple I/O queues.
// It registers as a block.Device.
package hostdriver

import (
	"errors"
	"fmt"

	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Params tunes the driver's software-path model.
type Params struct {
	// SubmitNs is the optimized submission-path cost per command.
	SubmitNs int64
	// IRQEntryNs is interrupt delivery to ISR start (MSI landing to
	// handler running).
	IRQEntryNs int64
	// ISRNs is per-completion handler cost.
	ISRNs int64
	// Queues is the number of I/O queue pairs to create.
	Queues int
	// QueueDepth is entries per queue.
	QueueDepth int
	// MaxPages bounds the transfer size per command: each command
	// context holds MaxPages contiguous DMA pages, followed by the PRP
	// list pages a transfer of that size needs (nvme.PRPListPages).
	MaxPages int
	// Tracer, when non-nil, records per-IO spans (submit and device
	// stages) plus the queue-level fabric hops. Nil by default.
	Tracer *trace.Tracer
}

// DefaultParams returns the stock-driver calibration.
func DefaultParams() Params {
	return Params{
		SubmitNs:   300,
		IRQEntryNs: 1100,
		ISRNs:      250,
		Queues:     1,
		QueueDepth: 256,
		MaxPages:   32,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.SubmitNs == 0 {
		p.SubmitNs = d.SubmitNs
	}
	if p.IRQEntryNs == 0 {
		p.IRQEntryNs = d.IRQEntryNs
	}
	if p.ISRNs == 0 {
		p.ISRNs = d.ISRNs
	}
	if p.Queues == 0 {
		p.Queues = d.Queues
	}
	if p.QueueDepth == 0 {
		p.QueueDepth = d.QueueDepth
	}
	if p.MaxPages == 0 {
		p.MaxPages = d.MaxPages
	}
	return p
}

// ErrTooLarge is returned for transfers beyond the per-command PRP pool.
var ErrTooLarge = errors.New("hostdriver: transfer exceeds command PRP pool")

// ErrBadBuffer is returned when a caller's buffer length does not match
// the block count of the request.
var ErrBadBuffer = errors.New("hostdriver: buffer size does not match request")

// StatusError reports a non-success NVMe completion status.
type StatusError struct {
	Status uint16
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("hostdriver: command status %#x", e.Status)
}

// Code splits the status into (sct, sc).
func (e *StatusError) Code() (sct, sc uint8) {
	return uint8(e.Status >> 8 & 0x7), uint8(e.Status & 0xFF)
}

// cmdCtx is a command context with preallocated DMA pages, like the
// kernel driver's iod/PRP mappings — this is what makes the stock driver
// zero-copy. A context belongs to one command from submission until its
// data has been copied out after completion.
type cmdCtx struct {
	buf  pcie.Addr // MaxPages contiguous pages
	list pcie.Addr // the PRP list region right behind them
	busy bool
}

type ioQueue struct {
	view   *nvme.QueueView
	reaper *nvme.Reaper
	// ctxs has one context per permit of free.
	ctxs []cmdCtx
	free *sim.Semaphore
	drv  *Driver
	id   uint16
	// submitted and completed count commands through this queue, for
	// per-queue telemetry attribution.
	submitted uint64
	completed uint64
}

// QueueStats are one I/O queue's driver-side counters: command traffic
// plus the doorbell/coalescing counters of its QueueView.
type QueueStats struct {
	QID       uint16
	Submitted uint64
	Completed uint64
	// Doorbell counters mirror the queue view (driver-side MMIO writes
	// and coalescing savings).
	SQDoorbells      uint64
	SQDoorbellsSaved uint64
	CQDoorbells      uint64
	CQRingsSaved     uint64
	Inflight         int
}

// Driver is an initialized local NVMe driver instance.
type Driver struct {
	name   string
	host   *pcie.HostPort
	kernel *sim.Kernel
	params Params
	admin  *nvme.AdminClient
	ns     nvme.IdentifyNamespace
	ident  nvme.IdentifyController
	queues []*ioQueue
	rr     int
}

// New initializes the controller at barBase (in host's domain) and brings
// up I/O queues with MSI-X interrupts. ctrl is needed only to program MSI
// vectors (the driver writes the MSI-X table through config space on real
// hardware; the model sets it directly).
func New(p *sim.Proc, name string, host *pcie.HostPort, barBase pcie.Addr, ctrl *nvme.Controller, params Params) (*Driver, error) {
	params = params.withDefaults()
	d := &Driver{
		name:   name,
		host:   host,
		kernel: host.Domain().Kernel(),
		params: params,
	}
	d.admin = nvme.NewAdminClient(host, barBase)
	if err := d.admin.Enable(p, 64); err != nil {
		return nil, err
	}
	var err error
	d.ident, err = d.admin.Identify(p)
	if err != nil {
		return nil, err
	}
	d.ns, err = d.admin.IdentifyNamespace(p, 1)
	if err != nil {
		return nil, err
	}
	nsq, _, err := d.admin.SetNumQueues(p, params.Queues)
	if err != nil {
		return nil, err
	}
	if params.Queues > nsq {
		params.Queues = nsq
	}
	for qid := uint16(1); qid <= uint16(params.Queues); qid++ {
		q, err := d.createQueue(p, qid, ctrl)
		if err != nil {
			return nil, err
		}
		d.queues = append(d.queues, q)
	}
	return d, nil
}

func (d *Driver) createQueue(p *sim.Proc, qid uint16, ctrl *nvme.Controller) (*ioQueue, error) {
	depth := d.params.QueueDepth
	sq, err := d.host.Alloc(uint64(depth*nvme.SQESize), nvme.PageSize)
	if err != nil {
		return nil, err
	}
	cq, err := d.host.Alloc(uint64(depth*nvme.CQESize), nvme.PageSize)
	if err != nil {
		return nil, err
	}
	// MSI vector: a 4-byte mailbox in local memory; its write is the
	// interrupt.
	msiAddr, err := d.host.Alloc(4, 4)
	if err != nil {
		return nil, err
	}
	if err := ctrl.SetMSIVector(qid, msiAddr, uint32(qid)); err != nil {
		return nil, err
	}
	if err := d.admin.CreateQueuePair(p, qid, depth, sq, cq, true, qid); err != nil {
		return nil, err
	}
	q := &ioQueue{
		view: nvme.NewQueueView(qid, depth,
			sq, cq,
			d.admin.Bar+nvme.SQTailDoorbell(qid, d.admin.DSTRD),
			d.admin.Bar+nvme.CQHeadDoorbell(qid, d.admin.DSTRD)),
		free: sim.NewSemaphore(d.kernel, depth-1),
		drv:  d,
		id:   qid,
	}
	// blk-mq-style batching: the locked view lets the last submitter of
	// a contended burst commit the SQ tail once, and the ISR's CQ sweep
	// acknowledges all reaped entries with a single head doorbell.
	q.view.EnableLocking(d.kernel)
	q.view.Tracer = d.params.Tracer
	maxBytes := d.params.MaxPages * nvme.PageSize
	listPages := nvme.PRPListPages(0, maxBytes)
	q.ctxs = make([]cmdCtx, depth-1)
	for i := range q.ctxs {
		buf, err := d.host.Alloc(uint64(d.params.MaxPages+listPages)*nvme.PageSize, nvme.PageSize)
		if err != nil {
			return nil, err
		}
		q.ctxs[i] = cmdCtx{buf: buf, list: buf + pcie.Addr(maxBytes)}
	}
	// The interrupt service routine: it runs once the MSI lands, pays
	// IRQ entry, then the handler cost for each CQE it reaps.
	q.reaper, err = nvme.NewReaper(fmt.Sprintf("%s/isr-q%d", d.name, qid), d.host, q.view, nvme.ReaperParams{
		Edge:       pcie.Range{Base: msiAddr, Size: 4},
		WakeNs:     d.params.IRQEntryNs,
		PerCQENs:   d.params.ISRNs,
		BlockFirst: true,
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// Name implements block.Device.
func (d *Driver) Name() string { return d.name }

// BlockSize implements block.Device.
func (d *Driver) BlockSize() int { return 1 << d.ns.LBADS }

// Blocks implements block.Device.
func (d *Driver) Blocks() uint64 { return d.ns.NSZE }

// Identify returns the controller identity read at init.
func (d *Driver) Identify() nvme.IdentifyController { return d.ident }

// SMART retrieves the controller's health log.
func (d *Driver) SMART(p *sim.Proc) (nvme.SMARTLog, error) {
	return d.admin.SMART(p)
}

// Queues returns the number of I/O queues created.
func (d *Driver) Queues() int { return len(d.queues) }

// QueueStats returns per-queue driver-side counters in queue order, the
// attribution surface telemetry wires as {host,qid}-labeled gauges.
func (d *Driver) QueueStats() []QueueStats {
	out := make([]QueueStats, 0, len(d.queues))
	for _, q := range d.queues {
		out = append(out, q.stats())
	}
	return out
}

// QueueStat returns one queue's counters by queue ID (zero value if no
// such queue) — the gauge-callback-friendly form of QueueStats.
func (d *Driver) QueueStat(qid uint16) QueueStats {
	for _, q := range d.queues {
		if q.id == qid {
			return q.stats()
		}
	}
	return QueueStats{}
}

func (q *ioQueue) stats() QueueStats {
	v := q.view
	return QueueStats{
		QID: q.id, Submitted: q.submitted, Completed: q.completed,
		SQDoorbells: v.SQDoorbells, SQDoorbellsSaved: v.SQDoorbellsSaved,
		CQDoorbells: v.CQDoorbells, CQRingsSaved: v.CQRingsSaved,
		Inflight: v.Inflight(),
	}
}

// pick selects a queue round-robin (stand-in for per-CPU queues).
func (d *Driver) pick() *ioQueue {
	q := d.queues[d.rr%len(d.queues)]
	d.rr++
	return q
}

// ReadBlocks implements block.Device.
func (d *Driver) ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	return d.io(p, nvme.IORead, lba, nblk, buf)
}

// WriteBlocks implements block.Device.
func (d *Driver) WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	return d.io(p, nvme.IOWrite, lba, nblk, data)
}

// Flush implements block.Device.
func (d *Driver) Flush(p *sim.Proc) error {
	q := d.pick()
	cmd := nvme.SQE{Opcode: nvme.IOFlush, NSID: 1}
	return q.exec(p, &cmd, nil)
}

func (d *Driver) io(p *sim.Proc, opcode uint8, lba uint64, nblk int, buf []byte) error {
	bs := d.BlockSize()
	if len(buf) != nblk*bs {
		return fmt.Errorf("%w: %d bytes for %d blocks", ErrBadBuffer, len(buf), nblk)
	}
	pages := (len(buf) + nvme.PageSize - 1) / nvme.PageSize
	if pages > d.params.MaxPages {
		return ErrTooLarge
	}
	cmd := nvme.IOCmd(opcode, lba, nblk)
	return d.pick().exec(p, &cmd, buf)
}

// exec runs one command through the queue: claims a context, points the
// command at its preallocated pages, submits, and waits for the ISR to
// complete it. For writes, data lands in the DMA pages before submission;
// for reads it is copied out afterwards. Crossing the model boundary
// between Go slices and simulated physical pages costs no virtual time —
// on hardware these are the same pages (zero-copy), which is exactly the
// stock driver's advantage over the paper's bounce-buffer driver.
func (q *ioQueue) exec(p *sim.Proc, cmd *nvme.SQE, data []byte) error {
	p.Acquire(q.free)
	defer q.free.Release()
	ctx := q.claim()
	defer func() { ctx.busy = false }()
	cid := q.view.NextCID()

	n := len(data)
	if n > 0 {
		if err := nvme.PRPs(q.drv.host, cmd, ctx.buf, n, ctx.list, ctx.list); err != nil {
			return err
		}
		if opcodeSendsData(cmd.Opcode) {
			if err := q.drv.host.Mem().Write(ctx.buf, data); err != nil {
				return err
			}
		}
	}
	cmd.CID = cid
	tr := q.drv.params.Tracer
	t0 := p.Now()
	p.Sleep(q.drv.params.SubmitNs)
	done, err := q.reaper.Submit(p, cmd)
	if err != nil {
		tr.Drop(q.id, cid)
		return err
	}
	q.submitted++
	tSubmit := p.Now()
	status := p.Wait(done).(uint16)
	end := p.Now()
	q.completed++
	// The span partition for this driver is submit + device: completion
	// handling (IRQ entry, ISR sweep) is accounted inside the device
	// window because the waiter has no timestamp for when the CQE landed.
	tr.Begin(q.id, cid, cmd.Opcode, t0)
	tr.Hop(q.id, cid, trace.StageSubmit, t0, tSubmit)
	tr.Hop(q.id, cid, trace.StageDevice, tSubmit, end)
	tr.End(q.id, cid, end)
	if status != nvme.StatusOK {
		return &StatusError{Status: status}
	}
	if n > 0 && cmd.Opcode == nvme.IORead {
		return q.drv.host.Mem().Read(ctx.buf, data)
	}
	return nil
}

// claim hands out the first idle context. The caller holds a permit of
// free, so one is idle.
func (q *ioQueue) claim() *cmdCtx {
	for i := range q.ctxs {
		if ctx := &q.ctxs[i]; !ctx.busy {
			ctx.busy = true
			return ctx
		}
	}
	panic("hostdriver: context accounting broken")
}

func opcodeSendsData(op uint8) bool {
	return op == nvme.IOWrite || op == nvme.IOCompare || op == nvme.IODSM
}

// DiscardBlocks implements block.Discarder via Dataset Management with
// the deallocate attribute.
func (d *Driver) DiscardBlocks(p *sim.Proc, lba uint64, nblk int) error {
	cmd := nvme.SQE{Opcode: nvme.IODSM, NSID: 1, CDW10: 0, CDW11: nvme.DSMAttrDeallocate}
	return d.pick().exec(p, &cmd, nvme.DSMRange(lba, nblk))
}

// WriteZeroesBlocks implements block.ZeroWriter.
func (d *Driver) WriteZeroesBlocks(p *sim.Proc, lba uint64, nblk int) error {
	cmd := nvme.IOCmd(nvme.IOWriteZeroes, lba, nblk)
	return d.pick().exec(p, &cmd, nil)
}

// CompareBlocks issues an NVMe Compare: it succeeds only when the device
// holds exactly the given data at [lba, lba+nblk).
func (d *Driver) CompareBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	return d.io(p, nvme.IOCompare, lba, nblk, data)
}
