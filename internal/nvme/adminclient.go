package nvme

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// ErrTimeout is returned when the controller does not respond in time.
var ErrTimeout = errors.New("nvme: controller timeout")

// ErrCommandFailed wraps a non-success completion status.
var ErrCommandFailed = errors.New("nvme: command failed")

// AdminClient drives controller initialization and admin commands through
// the register file, the way a kernel driver does. The admin queues are
// allocated in the client host's local memory; for a driver running on
// the device's own host those addresses are directly DMA-able, which is
// the only configuration the paper uses for the manager role.
type AdminClient struct {
	Host *pcie.HostPort
	// Bar is the controller BAR base as seen from this host (identical to
	// the device-domain address for a local driver; an NTB window address
	// for a remote one).
	Bar pcie.Addr
	// Admin is the admin queue pair view, valid after Enable.
	Admin *QueueView
	// DSTRD is read from CAP during Enable.
	DSTRD uint8
	// MQES is read from CAP during Enable.
	MQES uint16
	// AMS selects the arbitration mechanism written into CC.AMS at
	// Enable (AMSRoundRobin or AMSWRRUrgent). Enable fails when the
	// controller's CAP.AMS does not advertise the requested mechanism.
	AMS uint8

	sqMem, cqMem pcie.Addr
	// busy admits one Exec at a time: two processes polling the one admin
	// CQ would both read the same slot and advance the head twice.
	busy *sim.Semaphore
}

// NewAdminClient creates a client for the controller whose BAR is visible
// at bar in the host's domain.
func NewAdminClient(h *pcie.HostPort, bar pcie.Addr) *AdminClient {
	return &AdminClient{Host: h, Bar: bar, busy: sim.NewSemaphore(h.Domain().Kernel(), 1)}
}

// Reg32 reads a 32-bit register.
func (a *AdminClient) Reg32(p *sim.Proc, off uint64) (uint32, error) {
	var b [4]byte
	if err := a.Host.Read(p, a.Bar+off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// Reg64 reads a 64-bit register.
func (a *AdminClient) Reg64(p *sim.Proc, off uint64) (uint64, error) {
	var b [8]byte
	if err := a.Host.Read(p, a.Bar+off, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteReg32 writes a 32-bit register.
func (a *AdminClient) WriteReg32(p *sim.Proc, off uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return a.Host.Write(p, a.Bar+off, b[:])
}

// WriteReg64 writes a 64-bit register.
func (a *AdminClient) WriteReg64(p *sim.Proc, off uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return a.Host.Write(p, a.Bar+off, b[:])
}

// Enable resets and enables the controller with admin queues of the given
// depth allocated in local host memory, then waits for CSTS.RDY.
func (a *AdminClient) Enable(p *sim.Proc, depth int) error {
	capReg, err := a.Reg64(p, RegCAP)
	if err != nil {
		return err
	}
	a.MQES = uint16(capReg & 0xFFFF)
	a.DSTRD = uint8(capReg >> 32 & 0xF)
	if depth < 2 {
		depth = 2
	}
	if depth > int(a.MQES)+1 {
		depth = int(a.MQES) + 1
	}

	// Disable first (idempotent) so re-initialization works; release any
	// previous incarnation's queue memory.
	if err := a.WriteReg32(p, RegCC, 0); err != nil {
		return err
	}
	if a.sqMem != 0 {
		_ = a.Host.Free(a.sqMem)
		_ = a.Host.Free(a.cqMem)
		a.sqMem, a.cqMem = 0, 0
	}
	sq, err := a.Host.Alloc(uint64(depth*SQESize), PageSize)
	if err != nil {
		return err
	}
	cq, err := a.Host.Alloc(uint64(depth*CQESize), PageSize)
	if err != nil {
		return err
	}
	a.sqMem, a.cqMem = sq, cq
	if err := a.WriteReg32(p, RegAQA, uint32(depth-1)|uint32(depth-1)<<16); err != nil {
		return err
	}
	if err := a.WriteReg64(p, RegASQ, sq); err != nil {
		return err
	}
	if err := a.WriteReg64(p, RegACQ, cq); err != nil {
		return err
	}
	cc := uint32(CCEnable) | 6<<CCIOSQESShift | 4<<CCIOCQESShift
	if a.AMS != AMSRoundRobin {
		if a.AMS != AMSWRRUrgent || capReg&CAPAMSWRRU == 0 {
			return fmt.Errorf("%w: CAP.AMS does not advertise arbitration mechanism %d",
				ErrCommandFailed, a.AMS)
		}
		cc |= uint32(a.AMS) << CCAMSShift
	}
	if err := a.WriteReg32(p, RegCC, cc); err != nil {
		return err
	}
	// Poll CSTS.RDY with the spec timeout from CAP.TO (500 ms units).
	deadline := p.Now() + int64(capReg>>24&0xFF)*500*sim.Millisecond
	for {
		csts, err := a.Reg32(p, RegCSTS)
		if err != nil {
			return err
		}
		if csts&CSTSReady != 0 {
			break
		}
		if csts&CSTSCFS != 0 {
			return fmt.Errorf("%w: controller fatal status", ErrCommandFailed)
		}
		if p.Now() > deadline {
			return fmt.Errorf("%w: CSTS.RDY", ErrTimeout)
		}
		p.Sleep(100 * sim.Microsecond)
	}
	a.Admin = NewQueueView(0, depth,
		sq, cq,
		a.Bar+SQTailDoorbell(0, a.DSTRD), a.Bar+CQHeadDoorbell(0, a.DSTRD))
	return nil
}

// Disable clears CC.EN.
func (a *AdminClient) Disable(p *sim.Proc) error {
	return a.WriteReg32(p, RegCC, 0)
}

// Exec submits an admin command and busy-polls the admin CQ for its
// completion. Admin operations are off the I/O critical path, so simple
// interval polling is faithful enough. Concurrent callers run one at a
// time, each from submission until its completion is consumed.
func (a *AdminClient) Exec(p *sim.Proc, cmd *SQE) (CQE, error) {
	if a.Admin == nil {
		return CQE{}, errors.New("nvme: admin queue not initialized")
	}
	p.Acquire(a.busy)
	defer a.busy.Release()
	cmd.CID = a.Admin.NextCID()
	if err := a.Admin.Submit(p, a.Host, cmd); err != nil {
		return CQE{}, err
	}
	deadline := p.Now() + 50*sim.Millisecond
	for {
		cqe, ok, err := a.Admin.Poll(p, a.Host)
		if err != nil {
			return CQE{}, err
		}
		if ok {
			if cqe.CID != cmd.CID {
				return cqe, fmt.Errorf("%w: CID %d != %d", ErrCommandFailed, cqe.CID, cmd.CID)
			}
			if !cqe.OK() {
				sct, sc := cqe.StatusCode()
				return cqe, fmt.Errorf("%w: sct=%d sc=%#x", ErrCommandFailed, sct, sc)
			}
			return cqe, nil
		}
		if p.Now() > deadline {
			return CQE{}, fmt.Errorf("%w: admin CID %d", ErrTimeout, cmd.CID)
		}
		p.Sleep(500 * sim.Nanosecond)
	}
}

// Identify retrieves the Identify Controller structure.
func (a *AdminClient) Identify(p *sim.Proc) (IdentifyController, error) {
	buf, err := a.Host.Alloc(PageSize, PageSize)
	if err != nil {
		return IdentifyController{}, err
	}
	defer a.Host.Free(buf)
	cmd := SQE{Opcode: AdminIdentify, PRP1: buf, CDW10: CNSController}
	if _, err := a.Exec(p, &cmd); err != nil {
		return IdentifyController{}, err
	}
	raw, err := a.Host.Slice(buf, PageSize)
	if err != nil {
		return IdentifyController{}, err
	}
	return UnmarshalIdentifyController(raw), nil
}

// IdentifyNamespace retrieves the Identify Namespace structure for nsid.
func (a *AdminClient) IdentifyNamespace(p *sim.Proc, nsid uint32) (IdentifyNamespace, error) {
	buf, err := a.Host.Alloc(PageSize, PageSize)
	if err != nil {
		return IdentifyNamespace{}, err
	}
	defer a.Host.Free(buf)
	cmd := SQE{Opcode: AdminIdentify, NSID: nsid, PRP1: buf, CDW10: CNSNamespace}
	if _, err := a.Exec(p, &cmd); err != nil {
		return IdentifyNamespace{}, err
	}
	raw, err := a.Host.Slice(buf, PageSize)
	if err != nil {
		return IdentifyNamespace{}, err
	}
	return UnmarshalIdentifyNamespace(raw), nil
}

// SetNumQueues negotiates I/O queue counts; it returns the granted number
// of (submission, completion) queues, 1-based.
func (a *AdminClient) SetNumQueues(p *sim.Proc, want int) (int, int, error) {
	n := uint32(want - 1)
	cmd := SQE{Opcode: AdminSetFeatures, CDW10: FeatNumQueues, CDW11: n<<16 | n}
	cqe, err := a.Exec(p, &cmd)
	if err != nil {
		return 0, 0, err
	}
	return int(cqe.DW0&0xFFFF) + 1, int(cqe.DW0>>16) + 1, nil
}

// SMART retrieves the SMART / Health Information log page.
func (a *AdminClient) SMART(p *sim.Proc) (SMARTLog, error) {
	buf, err := a.Host.Alloc(PageSize, PageSize)
	if err != nil {
		return SMARTLog{}, err
	}
	defer a.Host.Free(buf)
	numd := uint32(512/4 - 1)
	cmd := SQE{Opcode: AdminGetLogPage, PRP1: buf, CDW10: LogSMART | numd<<16}
	if _, err := a.Exec(p, &cmd); err != nil {
		return SMARTLog{}, err
	}
	raw, err := a.Host.Slice(buf, 512)
	if err != nil {
		return SMARTLog{}, err
	}
	return UnmarshalSMARTLog(raw), nil
}

// SetVolatileWriteCache toggles the VWC feature and returns the state the
// controller reports afterwards.
func (a *AdminClient) SetVolatileWriteCache(p *sim.Proc, on bool) (bool, error) {
	var v uint32
	if on {
		v = 1
	}
	set := SQE{Opcode: AdminSetFeatures, CDW10: FeatVolatileWriteCache, CDW11: v}
	if _, err := a.Exec(p, &set); err != nil {
		return false, err
	}
	get := SQE{Opcode: AdminGetFeatures, CDW10: FeatVolatileWriteCache}
	cqe, err := a.Exec(p, &get)
	if err != nil {
		return false, err
	}
	return cqe.DW0&1 == 1, nil
}

// CreateQueuePair creates I/O CQ and SQ qid with the given depth. sqAddr
// and cqAddr must be DMA-able addresses in the *controller's* domain —
// for remote queue memory these are device-side NTB window addresses
// resolved by SmartIO. If ien, completions raise MSI vector iv. The SQ
// is created in the medium priority class.
func (a *AdminClient) CreateQueuePair(p *sim.Proc, qid uint16, depth int, sqAddr, cqAddr pcie.Addr, ien bool, iv uint16) error {
	return a.CreateQueuePairPrio(p, qid, depth, sqAddr, cqAddr, ien, iv, QPrioMedium)
}

// CreateQueuePairPrio is CreateQueuePair with an explicit submission
// queue priority class (QPrio*), honored when the controller arbitrates
// with WRR.
func (a *AdminClient) CreateQueuePairPrio(p *sim.Proc, qid uint16, depth int, sqAddr, cqAddr pcie.Addr, ien bool, iv uint16, prio uint8) error {
	cdw11 := uint32(1) // PC
	if ien {
		cdw11 |= 2
	}
	cdw11 |= uint32(iv) << 16
	cq := SQE{Opcode: AdminCreateIOCQ, PRP1: cqAddr,
		CDW10: uint32(qid) | uint32(depth-1)<<16, CDW11: cdw11}
	if _, err := a.Exec(p, &cq); err != nil {
		return fmt.Errorf("create CQ %d: %w", qid, err)
	}
	sq := SQE{Opcode: AdminCreateIOSQ, PRP1: sqAddr,
		CDW10: uint32(qid) | uint32(depth-1)<<16,
		CDW11: 1 | uint32(prio&3)<<1 | uint32(qid)<<16}
	if _, err := a.Exec(p, &sq); err != nil {
		return fmt.Errorf("create SQ %d: %w", qid, err)
	}
	return nil
}

// SetArbitration programs the Arbitration feature (burst exponent AB
// plus high/medium/low weights, all in spec encoding) and returns the
// value the controller reports afterwards.
func (a *AdminClient) SetArbitration(p *sim.Proc, ab, hpw, mpw, lpw uint8) (uint32, error) {
	set := SQE{Opcode: AdminSetFeatures, CDW10: FeatArbitration,
		CDW11: ArbitrationCDW11(ab, hpw, mpw, lpw)}
	if _, err := a.Exec(p, &set); err != nil {
		return 0, err
	}
	get := SQE{Opcode: AdminGetFeatures, CDW10: FeatArbitration}
	cqe, err := a.Exec(p, &get)
	if err != nil {
		return 0, err
	}
	return cqe.DW0, nil
}

// DeleteQueuePair deletes I/O SQ then CQ qid.
func (a *AdminClient) DeleteQueuePair(p *sim.Proc, qid uint16) error {
	sq := SQE{Opcode: AdminDeleteIOSQ, CDW10: uint32(qid)}
	if _, err := a.Exec(p, &sq); err != nil {
		return fmt.Errorf("delete SQ %d: %w", qid, err)
	}
	cq := SQE{Opcode: AdminDeleteIOCQ, CDW10: uint32(qid)}
	if _, err := a.Exec(p, &cq); err != nil {
		return fmt.Errorf("delete CQ %d: %w", qid, err)
	}
	return nil
}
