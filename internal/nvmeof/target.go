package nvmeof

import (
	"fmt"

	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// The SPDK-style polled target's calibrated software costs.
const (
	// TargetPollNs is the poll-loop pickup cost when a capsule arrives.
	TargetPollNs = 200
	// TargetCapsuleProcNs is command capsule parsing/translation cost.
	TargetCapsuleProcNs = 550
	// TargetCplProcNs is the completion-path processing cost.
	TargetCplProcNs = 350
	// TargetDataCapsuleNs is the extra target cost of accepting
	// unsolicited in-capsule data (buffer accounting and validation
	// before the controller may DMA from the receive buffer).
	TargetDataCapsuleNs = 900
	// TargetSubmitNs is the polled userspace driver's NVMe submission
	// cost.
	TargetSubmitNs = 300
)

// TargetParams tunes the SPDK-style polled target.
type TargetParams struct {
	// InCapsule is the largest write payload accepted in-capsule.
	InCapsule int
	// QueueDepth is the per-connection NVMe queue depth.
	QueueDepth int
	// StagingBytes is each connection slot's staging partition, and so
	// the largest transfer. Each slot also gets the PRP list pages a
	// transfer of this size needs (nvme.PRPListPages).
	StagingBytes uint64
	// Offload moves capsule handling into NIC firmware (target
	// offloading). The paper tried it and found it "only appeared to
	// reduce CPU usage and did not affect latency" — the model matches:
	// identical processing times, but they are not charged to the host
	// CPU accounting.
	Offload bool
}

// DefaultTargetParams returns the SPDK-class calibration.
func DefaultTargetParams() TargetParams {
	return TargetParams{
		InCapsule:    4096,
		QueueDepth:   64,
		StagingBytes: 128 << 10,
	}
}

func (tp TargetParams) withDefaults() TargetParams {
	d := DefaultTargetParams()
	if tp.InCapsule == 0 {
		tp.InCapsule = d.InCapsule
	}
	if tp.QueueDepth == 0 {
		tp.QueueDepth = d.QueueDepth
	}
	if tp.StagingBytes == 0 {
		tp.StagingBytes = d.StagingBytes
	}
	return tp
}

// Target is the device-side NVMe-oF driver: it owns the local controller
// through a polled userspace driver and binds one NVMe I/O queue pair to
// each initiator connection.
type Target struct {
	host   *pcie.HostPort
	params TargetParams
	admin  *nvme.AdminClient
	ns     nvme.IdentifyNamespace
	nextQP uint16

	// Served counts accepted connections.
	Served int
	// Polls counts command-capsule pickups by connection dispatchers;
	// StagedBytes counts payload bytes moved through staging partitions
	// (RDMA READs of write data and RDMA WRITEs of read data).
	Polls, StagedBytes uint64
	// CPUBusyNs accumulates host-CPU time spent in the target software
	// path; with Offload the same work happens in NIC firmware and is
	// not charged here.
	CPUBusyNs int64
}

// cpuSleep charges d of processing time, attributing it to the host CPU
// unless the target is offloaded.
func (t *Target) cpuSleep(p *sim.Proc, d int64) {
	p.Sleep(d)
	if !t.params.Offload {
		t.CPUBusyNs += d
	}
}

// NewTarget enables the controller at barBase with a polled admin path.
func NewTarget(p *sim.Proc, host *pcie.HostPort, barBase pcie.Addr, params TargetParams) (*Target, error) {
	t := &Target{host: host, params: params.withDefaults(), nextQP: 1}
	t.admin = nvme.NewAdminClient(host, barBase)
	if err := t.admin.Enable(p, 64); err != nil {
		return nil, err
	}
	var err error
	t.ns, err = t.admin.IdentifyNamespace(p, 1)
	if err != nil {
		return nil, err
	}
	if _, _, err := t.admin.SetNumQueues(p, 64); err != nil {
		return nil, err
	}
	return t, nil
}

// conn is one initiator connection: a dedicated NVMe queue pair, receive
// buffers for capsules and staging memory for read data / RDMA-READ
// writes.
type conn struct {
	t       *Target
	qp      *rdma.QP
	ioq     *nvme.Reaper
	staging pcie.Addr
	// slotBytes is a staging slot's stride: StagingBytes of data, then
	// the PRP list region of the slot's largest transfer.
	slotBytes uint64
	recvBuf   pcie.Addr
	bufSize   uint64
	slots     int
}

// Serve accepts a connection on qp: it creates the connection's NVMe
// queue pair (the "binding" of §II) and starts the handler process.
func (t *Target) Serve(p *sim.Proc, qp *rdma.QP) error {
	params := t.params
	qid := t.nextQP
	t.nextQP++
	depth := params.QueueDepth
	sq, err := t.host.Alloc(uint64(depth*nvme.SQESize), nvme.PageSize)
	if err != nil {
		return err
	}
	cq, err := t.host.Alloc(uint64(depth*nvme.CQESize), nvme.PageSize)
	if err != nil {
		return err
	}
	if err := t.admin.CreateQueuePair(p, qid, depth, sq, cq, false, 0); err != nil {
		return err
	}
	view := nvme.NewQueueView(qid, depth, sq, cq,
		t.admin.Bar+nvme.SQTailDoorbell(qid, t.admin.DSTRD),
		t.admin.Bar+nvme.CQHeadDoorbell(qid, t.admin.DSTRD))
	view.EnableLocking(t.host.Domain().Kernel())
	// SPDK-style completion polling: the poller wakes when completion
	// DMA lands in the local CQ ring and pays one poll-loop pickup.
	ioq, err := nvme.NewReaper(fmt.Sprintf("nvmf-tgt-q%d/poll", qid), t.host, view, nvme.ReaperParams{WakeNs: TargetPollNs})
	if err != nil {
		return err
	}
	c := &conn{t: t, qp: qp, ioq: ioq, slots: depth - 1}
	c.bufSize = uint64(CmdHeaderSize + params.InCapsule)
	c.recvBuf, err = t.host.Alloc(uint64(c.slots)*c.bufSize, nvme.PageSize)
	if err != nil {
		return err
	}
	// A staged transfer starts on a page boundary, but an in-capsule
	// payload starts wherever its receive buffer puts it, so size the
	// list for a transfer of StagingBytes starting anywhere in a page.
	listPages := nvme.PRPListPages(nvme.PageSize-1, int(params.StagingBytes))
	c.slotBytes = params.StagingBytes + uint64(listPages)*nvme.PageSize
	c.staging, err = t.host.Alloc(uint64(c.slots)*c.slotBytes, nvme.PageSize)
	if err != nil {
		return err
	}
	for i := 0; i < c.slots; i++ {
		qp.PostRecv(uint64(i), c.recvBuf+pcie.Addr(uint64(i)*c.bufSize), int(c.bufSize))
	}
	t.host.Domain().Kernel().Spawn(fmt.Sprintf("nvmf-tgt-conn%d", qid), c.handle)
	t.Served++
	return nil
}

// WRID name spaces for the completions a command's worker owns.
const (
	wridStagingRead = 0x1_0000 // RDMA READ of non-inline write data
	wridDataWrite   = 0x2_0000 // RDMA WRITE of read data
	wridResponse    = 0x3_0000 // response capsule SEND
)

// handle is the connection dispatcher: it polls the receive CQ for
// command capsules and hands each to its own worker process, so the
// connection pipelines up to queue-depth commands like a real SPDK
// target. This software — between the wire and the controller — is
// exactly what the paper's PCIe-native design removes.
func (c *conn) handle(p *sim.Proc) {
	for {
		wc := rdma.WaitWC(p, c.qp.RecvCQ)
		slot, recvd := wc.WRID, wc.ByteLen
		if wc.Status != nil {
			// A SEND too long for the slot consumed it and landed
			// nothing: rearm the slot and keep serving.
			c.qp.PostRecv(slot, c.recvBuf+pcie.Addr(slot*c.bufSize), int(c.bufSize))
			continue
		}
		c.t.Polls++
		c.t.cpuSleep(p, TargetPollNs)
		c.t.host.Domain().Kernel().Spawn(fmt.Sprintf("nvmf-tgt-cmd%d", slot),
			func(wp *sim.Proc) { c.serveOne(wp, slot, recvd) })
	}
}

// serveOne runs a single command capsule, recvd bytes long, to
// completion. The recv slot is exclusively owned until it is reposted, so
// workers never share staging. A SEND shorter than a header carries no
// command and no CID to answer: the slot is reposted and nothing runs,
// whatever an earlier capsule left in the bytes it did not overwrite.
func (c *conn) serveOne(p *sim.Proc, slot uint64, recvd int) {
	bufAddr := c.recvBuf + pcie.Addr(slot*c.bufSize)
	var hdr [CmdHeaderSize]byte
	if err := c.t.host.Mem().Read(bufAddr, hdr[:]); err != nil {
		return
	}
	cap, err := UnmarshalCmdCapsule(hdr[:min(recvd, CmdHeaderSize)])
	if err != nil {
		c.qp.PostRecv(slot, bufAddr, int(c.bufSize))
		return
	}
	c.t.cpuSleep(p, TargetCapsuleProcNs)
	resp, sentData := c.execute(p, bufAddr, int(slot), cap, recvd-CmdHeaderSize)
	c.t.cpuSleep(p, TargetCplProcNs)
	c.qp.PostSendInline(wridResponse|slot, resp.Marshal())
	// The recv buffer can be rearmed as soon as the response is queued:
	// the engine processes it after the in-flight sends.
	c.qp.PostRecv(slot, bufAddr, int(c.bufSize))
	// Reap this command's send-side completions so the CQ stays bounded.
	if sentData {
		rdma.WaitWCID(p, c.qp.SendCQ, wridDataWrite|slot)
	}
	rdma.WaitWCID(p, c.qp.SendCQ, wridResponse|slot)
}

// execute runs one command capsule that carried the given payload bytes
// after its header.
func (c *conn) execute(p *sim.Proc, bufAddr pcie.Addr, slot int, cap CmdCapsule, carried int) (RespCapsule, bool) {
	resp := RespCapsule{CID: cap.CID}
	switch cap.Opcode {
	case OpConnect:
		resp.BlockShift = c.t.ns.LBADS
		resp.Blocks = c.t.ns.NSZE
		resp.InCapsule = uint32(c.t.params.InCapsule)
		resp.Slots = uint32(c.slots)
		return resp, false
	case nvme.IORead, nvme.IOWrite, nvme.IOFlush, nvme.IOWriteZeroes, nvme.IODSM:
	default:
		resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCInvalidOpcode)
		return resp, false
	}
	n := int(cap.DataLen)
	if !c.lengthsValid(cap, carried) {
		resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCInvalidField)
		return resp, false
	}
	stage := c.staging + pcie.Addr(uint64(slot)*c.slotBytes)
	prp := stage
	if cap.Opcode == nvme.IOWrite || cap.Opcode == nvme.IODSM {
		if cap.Flags&FlagInline != 0 {
			// Zero copy: the controller DMA-reads straight out of the
			// receive buffer where the NIC deposited the payload —
			// after the target accounts for the unsolicited data.
			c.t.cpuSleep(p, TargetDataCapsuleNs)
			prp = bufAddr + CmdHeaderSize
		} else {
			// Fetch initiator data with a one-sided RDMA READ.
			c.t.StagedBytes += uint64(n)
			c.qp.PostRead(wridStagingRead|uint64(slot), stage, n, pcie.Addr(cap.RAddr))
			if wc := rdma.WaitWCID(p, c.qp.SendCQ, wridStagingRead|uint64(slot)); wc.Status != nil {
				resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCDataTransfer)
				return resp, false
			}
		}
	}
	var cmd nvme.SQE
	switch cap.Opcode {
	case nvme.IOFlush:
		cmd = nvme.SQE{Opcode: nvme.IOFlush}
	case nvme.IOWriteZeroes:
		cmd = nvme.IOCmd(nvme.IOWriteZeroes, cap.LBA, int(cap.Nblk))
	case nvme.IODSM:
		// NR rides in the capsule's Nblk field.
		cmd = nvme.SQE{Opcode: nvme.IODSM, PRP1: uint64(prp),
			CDW10: cap.Nblk - 1, CDW11: nvme.DSMAttrDeallocate}
	default:
		// Staging partitions are physically contiguous, and a transfer
		// past two pages takes its PRP list from the region behind the
		// slot's data. In-capsule payloads start right after the 64-byte
		// header, so they straddle a page boundary even at 4 kB.
		cmd = nvme.IOCmd(cap.Opcode, cap.LBA, int(cap.Nblk))
		list := stage + pcie.Addr(c.t.params.StagingBytes)
		if err := nvme.PRPs(c.t.host, &cmd, prp, n, list, list); err != nil {
			resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCDataTransfer)
			return resp, false
		}
	}
	cmd.NSID = cap.NSID
	c.t.cpuSleep(p, TargetSubmitNs)
	status, err := c.ioq.Exec(p, &cmd)
	if err != nil {
		resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCDataTransfer)
		return resp, false
	}
	resp.Status = status
	if resp.Status == nvme.StatusOK && cap.Opcode == nvme.IORead {
		// Return data with a one-sided RDMA WRITE; the response capsule
		// posted right after it stays ordered behind the data.
		c.t.StagedBytes += uint64(n)
		c.qp.PostWrite(wridDataWrite|uint64(slot), stage, n, pcie.Addr(cap.RAddr))
		return resp, true
	}
	return resp, false
}

// lengthsValid reports whether a capsule's Nblk fits its command and
// its DataLen is the length that command moves and fits a staging
// partition and, for an in-capsule payload, what the receive buffer
// holds and what arrived. The target encodes PRPs for DataLen bytes,
// and the controller decodes the length from the command, so a DataLen
// that disagrees would let the controller move target memory the
// initiator never sent or was never meant to reach.
func (c *conn) lengthsValid(cap CmdCapsule, carried int) bool {
	n := uint64(cap.DataLen)
	if n > c.t.params.StagingBytes {
		return false
	}
	switch cap.Opcode {
	case nvme.IORead, nvme.IOWrite:
		if cap.Nblk == 0 || n != uint64(cap.Nblk)<<c.t.ns.LBADS {
			return false
		}
	case nvme.IODSM:
		// NR rides in the capsule's Nblk field.
		if cap.Nblk == 0 || cap.Nblk > nvme.DSMMaxRanges || n != uint64(cap.Nblk)*nvme.DSMRangeSize {
			return false
		}
	case nvme.IOWriteZeroes:
		// The command counts blocks in 16 bits, less one.
		return n == 0 && cap.Nblk >= 1 && cap.Nblk <= 1<<16
	default:
		return n == 0
	}
	if cap.Opcode != nvme.IORead && cap.Flags&FlagInline != 0 {
		return n <= uint64(c.t.params.InCapsule) && int(n) <= carried
	}
	return true
}

func drainCQ(cq *rdma.CQ) {
	for {
		if _, ok := cq.Poll(); !ok {
			return
		}
	}
}
