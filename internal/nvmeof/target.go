package nvmeof

import (
	"fmt"

	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// TargetParams tunes the SPDK-style polled target.
type TargetParams struct {
	// PollNs is the poll-loop pickup cost when a capsule arrives.
	PollNs int64
	// CapsuleProcNs is command capsule parsing/translation cost.
	CapsuleProcNs int64
	// CplProcNs is the completion-path processing cost.
	CplProcNs int64
	// DataCapsuleNs is the extra target cost of accepting unsolicited
	// in-capsule data (buffer accounting and validation before the
	// controller may DMA from the receive buffer).
	DataCapsuleNs int64
	// SubmitNs is the polled userspace driver's NVMe submission cost.
	SubmitNs int64
	// InCapsule is the largest write payload accepted in-capsule.
	InCapsule int
	// QueueDepth is the per-connection NVMe queue depth.
	QueueDepth int
	// StagingBytes is each connection slot's staging partition.
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
		PollNs:        200,
		CapsuleProcNs: 550,
		CplProcNs:     350,
		DataCapsuleNs: 900,
		SubmitNs:      300,
		InCapsule:     4096,
		QueueDepth:    64,
		StagingBytes:  128 << 10,
	}
}

func (tp TargetParams) withDefaults() TargetParams {
	d := DefaultTargetParams()
	if tp.PollNs == 0 {
		tp.PollNs = d.PollNs
	}
	if tp.CapsuleProcNs == 0 {
		tp.CapsuleProcNs = d.CapsuleProcNs
	}
	if tp.CplProcNs == 0 {
		tp.CplProcNs = d.CplProcNs
	}
	if tp.DataCapsuleNs == 0 {
		tp.DataCapsuleNs = d.DataCapsuleNs
	}
	if tp.SubmitNs == 0 {
		tp.SubmitNs = d.SubmitNs
	}
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
	recvBuf pcie.Addr
	bufSize uint64
	slots   int
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
	ioq, err := nvme.NewReaper(fmt.Sprintf("nvmf-tgt-q%d/poll", qid), t.host, view, nvme.ReaperParams{WakeNs: params.PollNs})
	if err != nil {
		return err
	}
	c := &conn{t: t, qp: qp, ioq: ioq, slots: depth - 1}
	c.bufSize = uint64(CmdHeaderSize + params.InCapsule)
	c.recvBuf, err = t.host.Alloc(uint64(c.slots)*c.bufSize, nvme.PageSize)
	if err != nil {
		return err
	}
	c.staging, err = t.host.Alloc(uint64(c.slots)*params.StagingBytes, nvme.PageSize)
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
		if wc.Status != nil {
			return
		}
		c.t.Polls++
		c.t.cpuSleep(p, c.t.params.PollNs)
		slot := wc.WRID
		c.t.host.Domain().Kernel().Spawn(fmt.Sprintf("nvmf-tgt-cmd%d", slot),
			func(wp *sim.Proc) { c.serveOne(wp, slot) })
	}
}

// serveOne runs a single command capsule to completion. The recv slot is
// exclusively owned until it is reposted, so workers never share staging.
func (c *conn) serveOne(p *sim.Proc, slot uint64) {
	bufAddr := c.recvBuf + pcie.Addr(slot*c.bufSize)
	var hdr [CmdHeaderSize]byte
	if err := c.t.host.Mem().Read(bufAddr, hdr[:]); err != nil {
		return
	}
	cap, err := UnmarshalCmdCapsule(hdr[:])
	if err != nil {
		c.qp.PostRecv(slot, bufAddr, int(c.bufSize))
		return
	}
	c.t.cpuSleep(p, c.t.params.CapsuleProcNs)
	resp, sentData := c.execute(p, bufAddr, int(slot), cap)
	c.t.cpuSleep(p, c.t.params.CplProcNs)
	c.qp.PostSendInline(wridResponse|slot, resp.Marshal(), 0)
	// The recv buffer can be rearmed as soon as the response is queued:
	// the engine processes it after the in-flight sends.
	c.qp.PostRecv(slot, bufAddr, int(c.bufSize))
	// Reap this command's send-side completions so the CQ stays bounded.
	if sentData {
		rdma.WaitWCID(p, c.qp.SendCQ, wridDataWrite|slot)
	}
	rdma.WaitWCID(p, c.qp.SendCQ, wridResponse|slot)
}

func (c *conn) execute(p *sim.Proc, bufAddr pcie.Addr, slot int, cap CmdCapsule) (RespCapsule, bool) {
	resp := RespCapsule{CID: cap.CID}
	switch cap.Opcode {
	case OpConnect:
		resp.BlockShift = c.t.ns.LBADS
		resp.Blocks = c.t.ns.NSZE
		return resp, false
	case nvme.IORead, nvme.IOWrite, nvme.IOFlush, nvme.IOWriteZeroes, nvme.IODSM:
	default:
		resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCInvalidOpcode)
		return resp, false
	}
	n := int(cap.DataLen)
	if uint64(n) > c.t.params.StagingBytes {
		resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCInvalidField)
		return resp, false
	}
	stage := c.staging + pcie.Addr(uint64(slot)*c.t.params.StagingBytes)
	prp := stage
	if cap.Opcode == nvme.IOWrite || cap.Opcode == nvme.IODSM {
		if cap.Flags&FlagInline != 0 {
			// Zero copy: the controller DMA-reads straight out of the
			// receive buffer where the NIC deposited the payload —
			// after the target accounts for the unsolicited data.
			c.t.cpuSleep(p, c.t.params.DataCapsuleNs)
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
		// past two pages takes its PRP list from the partition's tail.
		// In-capsule payloads start right after the 64-byte header, so
		// they straddle a page boundary even at 4 kB.
		cmd = nvme.IOCmd(cap.Opcode, cap.LBA, int(cap.Nblk))
		listBytes := uint64(nvme.PRPListPages(prp, n)) * nvme.PageSize
		if uint64(n)+listBytes > c.t.params.StagingBytes {
			resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCInvalidField)
			return resp, false
		}
		list := stage + pcie.Addr(c.t.params.StagingBytes-listBytes)
		if err := nvme.PRPs(c.t.host, &cmd, prp, n, list, list); err != nil {
			resp.Status = nvme.Status(nvme.SCTGeneric, nvme.SCDataTransfer)
			return resp, false
		}
	}
	cmd.NSID = cap.NSID
	c.t.cpuSleep(p, c.t.params.SubmitNs)
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

func drainCQ(cq *rdma.CQ) {
	for {
		if _, ok := cq.Poll(); !ok {
			return
		}
	}
}
