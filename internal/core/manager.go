package core

import (
	"errors"
	"fmt"

	"repro/internal/iommu"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/sisci"
	"repro/internal/smartio"
	"repro/internal/stats"
)

// Manager errors.
var (
	ErrNoFreeQueues = errors.New("core: no free I/O queue pairs")
	ErrBadGrant     = errors.New("core: invalid queue grant")
)

// ManagerParams tunes the manager module.
type ManagerParams struct {
	// EnableIOMMU creates an IOMMU domain on the device host so clients
	// can run zero-copy (the §V future-work extension): request buffers
	// are mapped per I/O through IOVA page tables instead of bounced.
	EnableIOMMU bool
	// LeaseNs enables the session/heartbeat layer: every granted queue
	// pair carries a lease that the owning client must refresh (see
	// ClientParams.HeartbeatNs). A session whose lease has been silent
	// for more than LeaseNs is reclaimed — SQ and CQ deleted through the
	// admin queue, DMA windows released, QID returned to the free pool —
	// so a dead host cannot pin device resources. The lease is scanned
	// every LeaseNs/4. 0 (the default) disables sessions entirely.
	LeaseNs int64
	// WRR, when non-nil, selects weighted-round-robin-with-urgent
	// arbitration at controller bring-up (CC.AMS) and programs the
	// Arbitration feature with its burst and class weights. Nil keeps
	// the default round-robin arbitration.
	WRR *ArbConfig
}

// ArbConfig is the WRR arbitration programming the manager applies at
// bring-up (NVMe Arbitration feature encoding: Burst is the AB exponent
// — 2^AB commands per queue per turn, 7 = unlimited — and the weights
// are 0-based, so value w grants w+1 credits per round).
type ArbConfig struct {
	Burst uint8
	HPW   uint8
	MPW   uint8
	LPW   uint8
}

// The manager's fixed sizes and calibrated control-plane costs.
const (
	// AdminDepth is the admin queue depth.
	AdminDepth = 64
	// IOMMUAperture sizes the IOVA space.
	IOMMUAperture = 256 << 20
	// RPCServiceNs is the manager-side cost of servicing one client
	// request (message parsing, bookkeeping). Control-plane only.
	RPCServiceNs = 2000
	// RPCTransportNs is the one-way client<->manager message latency over
	// the shared-memory mailbox.
	RPCTransportNs = 1500
)

// IOMMUApertureBase is where the device host's IOVA space is claimed.
const IOMMUApertureBase = 0xC000_0000

// QueueGrant is the manager's reply to a queue-pair request.
type QueueGrant struct {
	QID   uint16
	Depth int
	DSTRD uint8
	// IV is the MSI-X vector assigned when interrupts were requested.
	IV uint16
	// IOVABase/IOVASize delimit the client's slice of the device host's
	// IOMMU aperture when one was requested (zero-copy mode).
	IOVABase uint64
	IOVASize uint64
	// CMBOffset is the granted SQ offset within the controller memory
	// buffer (valid when CMBGranted).
	CMBOffset  uint64
	CMBGranted bool
}

type qpRequest struct {
	QueueRequest
	reply *sim.Event // payload: QueueGrant or error
}

type qpRelease struct {
	qid   uint16
	reply *sim.Event
}

// heartbeatMsg refreshes a session lease (fire-and-forget, no reply).
type heartbeatMsg struct {
	qid uint16
}

// abortReq asks the manager to issue an NVMe Abort for (sqid, cid) on
// behalf of a client whose command timed out.
type abortReq struct {
	sqid  uint16
	cid   uint16
	reply *sim.Event // payload: nil or error
}

// session is the manager-side liveness record for one granted queue
// pair. lastBeat advances on every heartbeat; the reaper reclaims the
// session when it falls more than LeaseNs behind.
type session struct {
	qid        uint16
	host       uint32
	ref        *smartio.Ref
	lastBeat   sim.Time
	reclaiming bool
}

// ReclaimEvent records one queue-pair reclamation for reporting: which
// host's queue, when the reaper detected the dead lease, and how long
// the teardown (delete SQ/CQ + window release) took in virtual ns.
type ReclaimEvent struct {
	Host       uint32 `json:"host"`
	QID        uint16 `json:"qid"`
	DetectedNs int64  `json:"detected_ns"`
	DurationNs int64  `json:"duration_ns"`
	Err        string `json:"err,omitempty"`
}

// Manager is the device-host module: it owns the controller's admin queue
// pair and performs privileged operations for clients.
type Manager struct {
	svc    *smartio.Service
	node   *sisci.Node
	ref    *smartio.Ref
	admin  *nvme.AdminClient
	params ManagerParams
	meta   Metadata
	ns     nvme.IdentifyNamespace
	used   []bool
	mail   *sim.Queue

	// mmu is the device host's IOMMU domain (EnableIOMMU); iovaNext is a
	// bump pointer and iovaByQID records grants for release.
	mmu       *iommu.Unit
	iovaNext  uint64
	iovaByQID map[uint16][2]uint64

	// cmbBytes is the controller memory buffer capacity read from
	// CMBSZ; cmbByQID tracks SQ-in-CMB grants as (offset, size).
	cmbBytes uint64
	cmbByQID map[uint16][2]uint64
	barBase  pcie.Addr

	// Session/lease state (LeaseNs > 0): live sessions by QID, tombstones
	// for reclaimed QIDs (cleared when the QID is granted again), and the
	// lease-scan ticker.
	sessions   map[uint16]*session
	tombstones map[uint16]bool
	reaper     *sim.Ticker
	// downUntil models a manager restart (InjectRestart): requests queue
	// in the mailbox until the virtual clock passes it. graceUntil holds
	// the reaper off after a restart so the outage itself cannot expire
	// leases the clients had no way to refresh.
	downUntil  sim.Time
	graceUntil sim.Time
	// reclaimHist, when set, observes each reclamation's duration
	// (virtual ns); see SetReclaimHist.
	reclaimHist *stats.PowHistogram

	// GrantedQueues counts queue pairs handed out, for observability.
	GrantedQueues int
	// Recovery observability: heartbeats processed, queue pairs
	// reclaimed (total and per host), NVMe Aborts issued for clients,
	// injected restarts, and the reclamation log.
	HeartbeatsSeen uint64
	Reclaims       uint64
	AbortsIssued   uint64
	Restarts       uint64
	ReclaimsByHost map[uint32]uint64
	ReclaimLog     []ReclaimEvent
}

// NewManager acquires the device exclusively, resets and initializes the
// controller, publishes the metadata segment, downgrades to a shared
// reference and starts servicing client requests.
func NewManager(p *sim.Proc, svc *smartio.Service, devID smartio.DeviceID, node *sisci.Node, params ManagerParams) (*Manager, error) {
	ref, err := svc.Acquire(devID, node, true)
	if err != nil {
		return nil, err
	}
	bar, err := ref.MapBAR()
	if err != nil {
		ref.Release()
		return nil, err
	}
	m := &Manager{svc: svc, node: node, ref: ref, params: params, barBase: bar}
	m.admin = nvme.NewAdminClient(node.Host(), bar)
	if params.WRR != nil {
		m.admin.AMS = nvme.AMSWRRUrgent
	}
	if err := m.admin.Enable(p, AdminDepth); err != nil {
		ref.Release()
		return nil, err
	}
	if w := params.WRR; w != nil {
		if _, err := m.admin.SetArbitration(p, w.Burst, w.HPW, w.MPW, w.LPW); err != nil {
			ref.Release()
			return nil, err
		}
	}
	// Discover the controller memory buffer, if any (CMBLOC/CMBSZ).
	cmbsz, err := m.admin.Reg32(p, nvme.RegCMBSZ)
	if err != nil {
		ref.Release()
		return nil, err
	}
	m.cmbBytes = uint64(cmbsz)
	m.cmbByQID = make(map[uint16][2]uint64)
	ident, err := m.admin.Identify(p)
	if err != nil {
		ref.Release()
		return nil, err
	}
	m.ns, err = m.admin.IdentifyNamespace(p, 1)
	if err != nil {
		ref.Release()
		return nil, err
	}
	nsq, _, err := m.admin.SetNumQueues(p, 64)
	if err != nil {
		ref.Release()
		return nil, err
	}
	m.used = make([]bool, nsq+1) // index by QID; 0 reserved (admin)
	m.used[0] = true

	// Publish metadata.
	seg, err := node.CreateSegment(MetaSegmentID, MetaSize)
	if err != nil {
		ref.Release()
		return nil, err
	}
	m.meta = Metadata{
		ManagerNode: uint32(node.ID),
		DeviceID:    uint32(devID),
		BlockShift:  uint32(m.nsBlockShift()),
		Blocks:      m.ns.NSZE,
		MaxQueues:   uint32(nsq),
		DSTRD:       uint32(m.admin.DSTRD),
		Serial:      ident.Serial,
	}
	if err := node.Host().Write(p, seg.Addr, marshalMetadata(m.meta)); err != nil {
		ref.Release()
		return nil, err
	}
	seg.SetAvailable()

	if params.EnableIOMMU {
		// The IOMMU sits at the root complex: device traffic reaches it
		// there and translated transactions re-enter routing from there.
		m.mmu, err = iommu.New("iommu-"+m.meta.Serial, node.Host().Domain(),
			node.Host().Node(),
			pcie.Range{Base: IOMMUApertureBase, Size: IOMMUAperture})
		if err != nil {
			ref.Release()
			return nil, err
		}
		m.iovaByQID = make(map[uint16][2]uint64)
	}

	// Allow clients in.
	if err := ref.Downgrade(); err != nil {
		ref.Release()
		return nil, err
	}
	m.mail = sim.NewQueue(node.Host().Domain().Kernel())
	m.sessions = make(map[uint16]*session)
	m.tombstones = make(map[uint16]bool)
	m.ReclaimsByHost = make(map[uint32]uint64)
	k := node.Host().Domain().Kernel()
	k.Spawn("core/manager", m.serve)
	if params.LeaseNs > 0 {
		// Weak ticker: the lease scan runs while the simulation has other
		// work but never keeps it alive by itself.
		m.reaper = k.NewTicker(max(params.LeaseNs/4, 1), m.reapTick)
	}
	return m, nil
}

// SetReclaimHist attaches a histogram observing each reclamation's
// duration in virtual ns. Pass nil to detach.
func (m *Manager) SetReclaimHist(h *stats.PowHistogram) { m.reclaimHist = h }

func (m *Manager) nsBlockShift() uint8 { return m.ns.LBADS }

// Metadata returns the published device description.
func (m *Manager) Metadata() Metadata { return m.meta }

// Node returns the manager's host node.
func (m *Manager) Node() *sisci.Node { return m.node }

// serve is the manager process: it pops client requests from the
// shared-memory mailbox and performs admin operations on their behalf.
func (m *Manager) serve(p *sim.Proc) {
	for {
		msg := p.Pop(m.mail)
		if wake := m.downUntil; p.Now() < wake {
			// The manager is restarting: requests stay queued in the
			// mailbox and are serviced once it comes back up — clients see
			// added control-plane latency, not failure.
			p.Sleep(wake - p.Now())
		}
		p.Sleep(RPCServiceNs)
		switch req := msg.(type) {
		case *qpRequest:
			grant, err := m.createQP(p, req)
			if err != nil {
				req.reply.Trigger(err)
			} else {
				if m.params.LeaseNs > 0 && req.Ref != nil {
					m.sessions[grant.QID] = &session{
						qid: grant.QID, host: req.Host, ref: req.Ref, lastBeat: p.Now(),
					}
				}
				delete(m.tombstones, grant.QID)
				req.reply.Trigger(grant)
			}
		case *qpRelease:
			if s := m.sessions[req.qid]; s != nil && s.reclaiming {
				req.reply.Trigger(Fatal(fmt.Errorf("%w: qid %d", ErrQueueReclaimed, req.qid)))
				break
			}
			if m.tombstones[req.qid] && m.sessions[req.qid] == nil {
				req.reply.Trigger(Fatal(fmt.Errorf("%w: qid %d", ErrQueueReclaimed, req.qid)))
				break
			}
			err := m.deleteQP(p, req.qid)
			if err == nil {
				delete(m.sessions, req.qid)
			}
			req.reply.Trigger(err)
		case *heartbeatMsg:
			if s := m.sessions[req.qid]; s != nil {
				s.lastBeat = p.Now()
				m.HeartbeatsSeen++
			}
		case *abortReq:
			cmd := nvme.SQE{Opcode: nvme.AdminAbort,
				CDW10: uint32(req.sqid) | uint32(req.cid)<<16}
			_, err := m.admin.Exec(p, &cmd)
			if err == nil {
				m.AbortsIssued++
				req.reply.Trigger(nil)
			} else {
				req.reply.Trigger(err)
			}
		}
	}
}

// reapTick scans session leases; it runs from the weak reaper ticker.
// Expired sessions are handed to short-lived reclaim processes (the
// teardown blocks on admin commands, which a ticker callback must not).
func (m *Manager) reapTick(now sim.Time) {
	if now < m.graceUntil || now < m.downUntil {
		return
	}
	// Scan QIDs in order, not map order, for deterministic replay.
	for qid := 1; qid < len(m.used); qid++ {
		s := m.sessions[uint16(qid)]
		if s == nil || s.reclaiming || now-s.lastBeat <= m.params.LeaseNs {
			continue
		}
		s.reclaiming = true
		sess := s
		m.node.Host().Domain().Kernel().Spawn(
			fmt.Sprintf("core/reclaim-q%d", qid),
			func(p *sim.Proc) { m.reclaim(p, sess) })
	}
}

// reclaim tears down a dead client's queue pair: delete SQ and CQ
// through the admin queue, release its device reference (unmapping every
// DMA window it held), free the QID and tombstone it so a straggling
// release from the "dead" client gets ErrQueueReclaimed instead of
// corrupting a future grant.
func (m *Manager) reclaim(p *sim.Proc, s *session) {
	t0 := p.Now()
	ev := ReclaimEvent{Host: s.host, QID: s.qid, DetectedNs: t0}
	if err := m.deleteQP(p, s.qid); err != nil {
		ev.Err = err.Error()
	}
	if s.ref != nil {
		if err := s.ref.Release(); err != nil && ev.Err == "" {
			ev.Err = err.Error()
		}
	}
	delete(m.sessions, s.qid)
	m.tombstones[s.qid] = true
	ev.DurationNs = p.Now() - t0
	m.Reclaims++
	m.ReclaimsByHost[s.host]++
	if m.reclaimHist != nil {
		m.reclaimHist.AddNs(ev.DurationNs)
	}
	m.ReclaimLog = append(m.ReclaimLog, ev)
}

// InjectRestart takes the manager's control plane down for d virtual ns
// from now: requests queue in the mailbox and are serviced after it
// comes back. Sessions get a fresh grace period of one LeaseNs past the
// outage, so the restart itself cannot expire leases the clients had no
// way to refresh while the manager was down. Callable from timer
// callbacks; it never blocks.
func (m *Manager) InjectRestart(d int64) {
	now := m.node.Host().Domain().Kernel().Now()
	if until := now + d; until > m.downUntil {
		m.downUntil = until
	}
	if m.params.LeaseNs > 0 {
		if g := m.downUntil + m.params.LeaseNs; g > m.graceUntil {
			m.graceUntil = g
		}
	}
	m.Restarts++
}

func (m *Manager) createQP(p *sim.Proc, req *qpRequest) (QueueGrant, error) {
	qid := uint16(0)
	for i := 1; i < len(m.used); i++ {
		if !m.used[i] {
			qid = uint16(i)
			break
		}
	}
	if qid == 0 {
		return QueueGrant{}, ErrNoFreeQueues
	}
	depth := req.Depth
	if depth < 2 {
		depth = 2
	}
	if depth > int(m.admin.MQES)+1 {
		depth = int(m.admin.MQES) + 1
	}
	sqDevAddr := req.SQDevAddr
	var cmbOff uint64
	cmbGranted := false
	var cmbSize uint64
	if req.CMBBytes > 0 {
		cmbSize = (req.CMBBytes + 63) &^ 63
		off, err := m.cmbAlloc(cmbSize)
		if err != nil {
			return QueueGrant{}, err
		}
		cmbOff = off
		sqDevAddr = uint64(m.barBase) + nvme.CMBBase + cmbOff
		cmbGranted = true
	}
	ien := req.MSIAddr != 0
	iv := uint16(0)
	if ien {
		// Program the vector's MSI-X table entry through the BAR before
		// creating the CQ that references it.
		iv = qid
		entry := nvme.MSIXTableBase + uint64(iv)*nvme.MSIXEntrySize
		if err := m.admin.WriteReg64(p, entry, req.MSIAddr); err != nil {
			return QueueGrant{}, err
		}
		if err := m.admin.WriteReg32(p, entry+8, uint32(iv)); err != nil {
			return QueueGrant{}, err
		}
	}
	if err := m.admin.CreateQueuePairPrio(p, qid, depth, sqDevAddr, req.CQDevAddr, ien, iv, req.Prio.wire()); err != nil {
		return QueueGrant{}, err
	}
	grant := QueueGrant{QID: qid, Depth: depth, DSTRD: m.admin.DSTRD, IV: iv,
		CMBOffset: cmbOff, CMBGranted: cmbGranted}
	if cmbGranted {
		m.cmbByQID[qid] = [2]uint64{cmbOff, cmbSize}
	}
	if req.IOVABytes > 0 {
		if m.mmu == nil {
			_ = m.admin.DeleteQueuePair(p, qid)
			return QueueGrant{}, fmt.Errorf("%w: IOMMU not enabled on manager", ErrBadGrant)
		}
		size := (req.IOVABytes + iommu.PageSize - 1) &^ (iommu.PageSize - 1)
		if m.iovaNext+size > IOMMUAperture {
			_ = m.admin.DeleteQueuePair(p, qid)
			return QueueGrant{}, fmt.Errorf("%w: IOVA aperture exhausted", ErrBadGrant)
		}
		grant.IOVABase = IOMMUApertureBase + m.iovaNext
		grant.IOVASize = size
		m.iovaByQID[qid] = [2]uint64{grant.IOVABase, size}
		m.iovaNext += size
	}
	m.used[qid] = true
	m.GrantedQueues++
	return grant, nil
}

func (m *Manager) deleteQP(p *sim.Proc, qid uint16) error {
	if int(qid) >= len(m.used) || !m.used[qid] {
		return fmt.Errorf("%w: qid %d", ErrBadGrant, qid)
	}
	if err := m.admin.DeleteQueuePair(p, qid); err != nil {
		return err
	}
	delete(m.iovaByQID, qid)
	delete(m.cmbByQID, qid)
	m.used[qid] = false
	m.GrantedQueues--
	return nil
}

// CMBBytes returns the controller memory buffer capacity discovered at
// initialization (0 when the device has none).
func (m *Manager) CMBBytes() uint64 { return m.cmbBytes }

// cmbAlloc finds the lowest free CMB offset with room for size bytes,
// first-fit over live grants so released space is reusable.
func (m *Manager) cmbAlloc(size uint64) (uint64, error) {
	if size > m.cmbBytes {
		return 0, fmt.Errorf("%w: CMB of %d bytes cannot hold %d", ErrBadGrant, m.cmbBytes, size)
	}
	cand := uint64(0)
	for {
		if cand+size > m.cmbBytes {
			return 0, fmt.Errorf("%w: CMB exhausted", ErrBadGrant)
		}
		conflict := false
		for _, g := range m.cmbByQID {
			if cand < g[0]+g[1] && g[0] < cand+size {
				if next := g[0] + g[1]; next > cand {
					cand = next
				}
				conflict = true
				break
			}
		}
		if !conflict {
			return cand, nil
		}
	}
}

// IOMMU returns the device host's IOMMU domain, standing in for the
// page-table segment a zero-copy client maps to program its own IOVA
// slice directly (entries are written with posted NTB writes, so no RPC
// sits on the I/O path).
func (m *Manager) IOMMU() *iommu.Unit { return m.mmu }

// QueueRequest is the client→manager queue-pair request payload.
type QueueRequest struct {
	// Depth is the requested queue depth.
	Depth int
	// SQDevAddr/CQDevAddr locate queue memory in the device domain.
	SQDevAddr uint64
	CQDevAddr uint64
	// MSIAddr, when nonzero, asks the manager to program an MSI-X
	// vector posting to this device-domain address (a window into the
	// client's interrupt mailbox): the extension §V leaves as future
	// work, enabled behind ClientParams.UseInterrupts.
	MSIAddr uint64
	// IOVABytes, when nonzero, requests a slice of the IOMMU aperture.
	IOVABytes uint64
	// CMBBytes, when nonzero, asks for SQ placement in controller memory.
	CMBBytes uint64
	// Prio selects the SQ's WRR priority class; the zero value maps to
	// medium.
	Prio QueuePrio
	// Ref and Host identify the requester for session tracking: on a
	// LeaseNs manager, a non-nil Ref registers a session whose lease the
	// client must refresh via heartbeats, and whose DMA windows the
	// manager releases (through Ref) if the client dies.
	Ref  *smartio.Ref
	Host uint32
}

// QueuePrio selects a submission queue's WRR priority class. The zero
// value deliberately maps to medium — on the NVMe wire, QPRIO 0 means
// urgent, an unsafe default for callers that never chose a class.
type QueuePrio int

const (
	PrioDefault QueuePrio = iota
	PrioUrgent
	PrioHigh
	PrioMedium
	PrioLow
)

// wire converts to the nvme.QPrio* encoding.
func (q QueuePrio) wire() uint8 {
	switch q {
	case PrioUrgent:
		return nvme.QPrioUrgent
	case PrioHigh:
		return nvme.QPrioHigh
	case PrioLow:
		return nvme.QPrioLow
	default:
		return nvme.QPrioMedium
	}
}

// RequestQueue asks the manager to create an I/O queue pair. Called from
// a client process; the round trip models the shared-memory RPC of §V.
func (m *Manager) RequestQueue(p *sim.Proc, r QueueRequest) (QueueGrant, error) {
	req := &qpRequest{QueueRequest: r, reply: sim.NewEvent(p.Kernel())}
	p.Sleep(RPCTransportNs)
	m.mail.Push(req)
	v := p.Wait(req.reply)
	p.Sleep(RPCTransportNs)
	switch out := v.(type) {
	case QueueGrant:
		return out, nil
	case error:
		return QueueGrant{}, out
	}
	return QueueGrant{}, ErrBadGrant
}

// Heartbeat refreshes the client's session lease (fire-and-forget: one
// posted mailbox write, no reply to wait for).
func (m *Manager) Heartbeat(p *sim.Proc, qid uint16) {
	p.Sleep(RPCTransportNs)
	m.mail.Push(&heartbeatMsg{qid: qid})
}

// AbortCommand asks the manager to issue an NVMe Abort for (sqid, cid),
// the distributed equivalent of the kernel driver's timeout handler. The
// simulated controller runs commands to completion, so the abort comes
// back "not aborted" — but it costs real admin-queue time and is
// counted, matching the control-plane traffic a real recovery generates.
func (m *Manager) AbortCommand(p *sim.Proc, sqid, cid uint16) error {
	req := &abortReq{sqid: sqid, cid: cid, reply: sim.NewEvent(p.Kernel())}
	p.Sleep(RPCTransportNs)
	m.mail.Push(req)
	v := p.Wait(req.reply)
	p.Sleep(RPCTransportNs)
	if v == nil {
		return nil
	}
	return v.(error)
}

// ReleaseQueuePair returns a queue pair to the manager.
func (m *Manager) ReleaseQueuePair(p *sim.Proc, qid uint16) error {
	req := &qpRelease{qid: qid, reply: sim.NewEvent(p.Kernel())}
	p.Sleep(RPCTransportNs)
	m.mail.Push(req)
	v := p.Wait(req.reply)
	p.Sleep(RPCTransportNs)
	if v == nil {
		return nil
	}
	return v.(error)
}
