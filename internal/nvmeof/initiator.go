package nvmeof

import (
	"errors"
	"fmt"

	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// initiatorTraceQID is the pseudo queue ID nvme-of initiator spans are
// keyed under: there is no NVMe qid on the host side of the fabric, and
// the high bit keeps it clear of real controller queue IDs.
const initiatorTraceQID uint16 = 0x8001

// Initiator errors.
var (
	ErrConnectFailed = errors.New("nvmeof: connect handshake failed")
	ErrIOFailed      = errors.New("nvmeof: I/O failed")
	ErrTooLarge      = errors.New("nvmeof: transfer exceeds slot buffer")
)

// The stock-kernel-style initiator's calibrated software costs.
const (
	// InitiatorSubmitNs is the initiator's submission-path software cost.
	InitiatorSubmitNs = 450
	// InitiatorCompleteNs is the completion-path software cost after the
	// IRQ.
	InitiatorCompleteNs = 400
	// InitiatorIRQEntryNs is the recv-completion interrupt latency.
	InitiatorIRQEntryNs = 1100
)

// InitiatorParams tunes the stock-kernel-style initiator.
type InitiatorParams struct {
	// QueueDepth is the number of outstanding commands (slots). The
	// target's receive slots cap it.
	QueueDepth int
	// SlotBytes is each slot's data buffer size.
	SlotBytes uint64
	// Tracer, when non-nil, records a coarse span per capsule exchange
	// (device wait + completion path). Nil by default.
	Tracer *trace.Tracer
}

// DefaultInitiatorParams returns the stock-initiator calibration.
func DefaultInitiatorParams() InitiatorParams {
	return InitiatorParams{
		QueueDepth: 32,
		SlotBytes:  128 << 10,
	}
}

func (ip InitiatorParams) withDefaults() InitiatorParams {
	d := DefaultInitiatorParams()
	if ip.QueueDepth == 0 {
		ip.QueueDepth = d.QueueDepth
	}
	if ip.SlotBytes == 0 {
		ip.SlotBytes = d.SlotBytes
	}
	return ip
}

type initPending struct {
	done   *sim.Event
	status uint16
	resp   RespCapsule
}

// Initiator is the host-side NVMe-oF block driver: commands leave as
// capsules over RDMA and completions arrive as response capsules,
// delivered through the NIC's receive-completion interrupt.
type Initiator struct {
	name   string
	host   *pcie.HostPort
	qp     *rdma.QP
	params InitiatorParams

	blockShift uint8
	blocks     uint64
	// inCapsule is the largest write the target takes in-capsule.
	inCapsule int

	slotFree *sim.Semaphore
	slots    []bool
	slotBuf  pcie.Addr
	respBuf  pcie.Addr
	pending  map[uint16]*initPending
	nextCID  uint16

	// Reads/Writes count completed operations; Submissions counts
	// capsules sent (including admin-path ones).
	Reads, Writes, Submissions uint64
}

// NewInitiator connects over qp (already rdma.Connect-ed to a served
// target QP) and performs the identify handshake, which also tells it
// the target's in-capsule size and receive slots.
func NewInitiator(p *sim.Proc, name string, host *pcie.HostPort, qp *rdma.QP, params InitiatorParams) (*Initiator, error) {
	params = params.withDefaults()
	ini := &Initiator{
		name: name, host: host, qp: qp, params: params,
		pending: make(map[uint16]*initPending),
	}
	k := host.Domain().Kernel()
	var err error
	ini.slotBuf, err = host.Alloc(uint64(params.QueueDepth)*params.SlotBytes, nvme.PageSize)
	if err != nil {
		return nil, err
	}
	ini.respBuf, err = host.Alloc(uint64(params.QueueDepth+1)*RespSize, 64)
	if err != nil {
		return nil, err
	}
	for i := 0; i <= params.QueueDepth; i++ {
		qp.PostRecv(uint64(i), ini.respBuf+pcie.Addr(i*RespSize), RespSize)
	}
	k.Spawn(name+"/isr", ini.isr)

	resp, err := ini.exec(p, &CmdCapsule{Opcode: OpConnect}, nil)
	if err != nil {
		return nil, err
	}
	if resp.Status != nvme.StatusOK || resp.Blocks == 0 || resp.Slots == 0 {
		return nil, fmt.Errorf("%w: status %#x", ErrConnectFailed, resp.Status)
	}
	ini.blockShift = resp.BlockShift
	ini.blocks = resp.Blocks
	ini.inCapsule = int(resp.InCapsule)
	depth := min(params.QueueDepth, int(resp.Slots))
	ini.slotFree = sim.NewSemaphore(k, depth)
	ini.slots = make([]bool, depth)
	return ini, nil
}

// isr drains response capsules after the receive-completion interrupt.
func (ini *Initiator) isr(p *sim.Proc) {
	for {
		wc := rdma.WaitWC(p, ini.qp.RecvCQ)
		p.Sleep(InitiatorIRQEntryNs)
		for {
			if wc.Status != nil {
				return
			}
			raw, err := ini.host.Slice(ini.respBuf+pcie.Addr(wc.WRID*RespSize), RespSize)
			if err != nil {
				return
			}
			resp, err := UnmarshalRespCapsule(raw)
			if err == nil {
				if w, ok := ini.pending[resp.CID]; ok {
					delete(ini.pending, resp.CID)
					w.status = resp.Status
					w.resp = resp
					w.done.Trigger(nil)
				}
			}
			ini.qp.PostRecv(wc.WRID, ini.respBuf+pcie.Addr(wc.WRID*RespSize), RespSize)
			drainCQ(ini.qp.SendCQ)
			var ok bool
			wc, ok = ini.qp.RecvCQ.Poll()
			if !ok {
				break
			}
		}
	}
}

// exec sends one capsule (optionally with inline payload) and waits for
// its response.
func (ini *Initiator) exec(p *sim.Proc, cap *CmdCapsule, inline []byte) (RespCapsule, error) {
	ini.nextCID++
	ini.Submissions++
	cap.CID = ini.nextCID
	w := &initPending{done: sim.NewEvent(p.Kernel())}
	ini.pending[cap.CID] = w
	msg := cap.Marshal()
	if len(inline) > 0 {
		msg = append(msg, inline...)
	}
	tr := ini.params.Tracer
	t0 := p.Now()
	ini.qp.PostSendInline(uint64(cap.CID), msg)
	p.Wait(w.done)
	tWait := p.Now()
	p.Sleep(InitiatorCompleteNs)
	end := p.Now()
	// Coarse two-stage partition: the capsule round trip (fabric + target
	// + device) and the host completion path after the response landed.
	tr.Begin(initiatorTraceQID, cap.CID, cap.Opcode, t0)
	tr.Hop(initiatorTraceQID, cap.CID, trace.StageDevice, t0, tWait)
	tr.Hop(initiatorTraceQID, cap.CID, trace.StageReap, tWait, end)
	tr.End(initiatorTraceQID, cap.CID, end)
	return w.resp, nil
}

// Name implements block.Device.
func (ini *Initiator) Name() string { return ini.name }

// BlockSize implements block.Device.
func (ini *Initiator) BlockSize() int { return 1 << ini.blockShift }

// Blocks implements block.Device.
func (ini *Initiator) Blocks() uint64 { return ini.blocks }

// Flush implements block.Device.
func (ini *Initiator) Flush(p *sim.Proc) error {
	p.Sleep(InitiatorSubmitNs)
	defer ini.releaseSlot(ini.acquireSlot(p))
	resp, err := ini.exec(p, &CmdCapsule{Opcode: nvme.IOFlush, NSID: 1}, nil)
	if err != nil {
		return err
	}
	if resp.Status != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, resp.Status)
	}
	return nil
}

// acquireSlot takes a slot for one command capsule, so no more capsules
// are in flight than the target has receive slots for.
func (ini *Initiator) acquireSlot(p *sim.Proc) int {
	p.Acquire(ini.slotFree)
	for i, used := range ini.slots {
		if !used {
			ini.slots[i] = true
			return i
		}
	}
	panic("nvmeof: slot accounting broken")
}

func (ini *Initiator) releaseSlot(slot int) {
	ini.slots[slot] = false
	ini.slotFree.Release()
}

// DiscardBlocks implements block.Discarder: a single-range DSM
// deallocate with the range definition in-capsule.
func (ini *Initiator) DiscardBlocks(p *sim.Proc, lba uint64, nblk int) error {
	p.Sleep(InitiatorSubmitNs)
	defer ini.releaseSlot(ini.acquireSlot(p))
	cap := &CmdCapsule{Opcode: nvme.IODSM, NSID: 1, Nblk: 1,
		DataLen: nvme.DSMRangeSize, Flags: FlagInline}
	resp, err := ini.exec(p, cap, nvme.DSMRange(lba, nblk))
	if err != nil {
		return err
	}
	if resp.Status != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, resp.Status)
	}
	return nil
}

// WriteZeroesBlocks implements block.ZeroWriter.
func (ini *Initiator) WriteZeroesBlocks(p *sim.Proc, lba uint64, nblk int) error {
	p.Sleep(InitiatorSubmitNs)
	defer ini.releaseSlot(ini.acquireSlot(p))
	cap := &CmdCapsule{Opcode: nvme.IOWriteZeroes, NSID: 1, LBA: lba, Nblk: uint32(nblk)}
	resp, err := ini.exec(p, cap, nil)
	if err != nil {
		return err
	}
	if resp.Status != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, resp.Status)
	}
	return nil
}

// ReadBlocks implements block.Device: the target RDMA-WRITEs the data
// directly into this host's slot buffer (standing in for the page-cache
// pages — zero copy), then the response capsule completes the request.
func (ini *Initiator) ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	n := nblk * ini.BlockSize()
	if len(buf) != n {
		return fmt.Errorf("nvmeof: buffer %d bytes for %d blocks", len(buf), nblk)
	}
	if uint64(n) > ini.params.SlotBytes {
		return ErrTooLarge
	}
	p.Sleep(InitiatorSubmitNs)
	slot := ini.acquireSlot(p)
	defer ini.releaseSlot(slot)
	slotAddr := ini.slotBuf + pcie.Addr(uint64(slot)*ini.params.SlotBytes)
	cap := &CmdCapsule{
		Opcode: nvme.IORead, NSID: 1,
		LBA: lba, Nblk: uint32(nblk), DataLen: uint32(n),
		RAddr: uint64(slotAddr),
	}
	resp, err := ini.exec(p, cap, nil)
	if err != nil {
		return err
	}
	if resp.Status != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, resp.Status)
	}
	// Model boundary: these are the same pages on hardware.
	if err := ini.host.Mem().Read(slotAddr, buf); err != nil {
		return err
	}
	ini.Reads++
	return nil
}

// WriteBlocks implements block.Device: payloads up to the target's
// in-capsule size ride in the command capsule (as real initiators do for
// 4 kB); larger ones are staged for the target's RDMA READ.
func (ini *Initiator) WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	n := nblk * ini.BlockSize()
	if len(data) != n {
		return fmt.Errorf("nvmeof: buffer %d bytes for %d blocks", len(data), nblk)
	}
	if uint64(n) > ini.params.SlotBytes {
		return ErrTooLarge
	}
	p.Sleep(InitiatorSubmitNs)
	slot := ini.acquireSlot(p)
	defer ini.releaseSlot(slot)
	cap := &CmdCapsule{
		Opcode: nvme.IOWrite, NSID: 1,
		LBA: lba, Nblk: uint32(nblk), DataLen: uint32(n),
	}
	var inline []byte
	if n <= ini.inCapsule {
		cap.Flags |= FlagInline
		inline = data
	} else {
		slotAddr := ini.slotBuf + pcie.Addr(uint64(slot)*ini.params.SlotBytes)
		// Model boundary: same pages on hardware.
		if err := ini.host.Mem().Write(slotAddr, data); err != nil {
			return err
		}
		cap.RAddr = uint64(slotAddr)
	}
	resp, err := ini.exec(p, cap, inline)
	if err != nil {
		return err
	}
	if resp.Status != nvme.StatusOK {
		return fmt.Errorf("%w: status %#x", ErrIOFailed, resp.Status)
	}
	ini.Writes++
	return nil
}
