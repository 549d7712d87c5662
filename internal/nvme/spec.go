// Package nvme implements an NVMe 1.3-subset controller over the simulated
// PCIe fabric: the register file (CAP/CC/CSTS/AQA/ASQ/ACQ and doorbells),
// paired submission/completion queues with phase tags, PRP data transfer,
// the admin command set needed by drivers (Identify, Create/Delete I/O
// queues, Get/Set Features, Abort) and the I/O command set (Read, Write,
// Flush), executing against a flash medium model.
//
// The controller is a simulation process: it fetches commands with DMA
// reads (so submission-queue placement changes fetch latency, the effect
// Figure 8 of the paper exploits), writes data and completions with posted
// DMA writes, and is notified through doorbell register writes arriving
// via the fabric — from the local root complex or across NTBs.
package nvme

import "encoding/binary"

// Register offsets within BAR0 (NVMe 1.3 §3.1).
const (
	RegCAP   = 0x00 // controller capabilities (8 bytes)
	RegVS    = 0x08 // version (4 bytes)
	RegINTMS = 0x0C // interrupt mask set
	RegINTMC = 0x10 // interrupt mask clear
	RegCC    = 0x14 // controller configuration
	RegCSTS  = 0x1C // controller status
	RegAQA   = 0x24 // admin queue attributes
	RegASQ   = 0x28 // admin submission queue base (8 bytes)
	RegACQ   = 0x30 // admin completion queue base (8 bytes)
	// RegCMBLOC / RegCMBSZ advertise the Controller Memory Buffer: its
	// offset within BAR0 and its size in bytes (simplified encoding).
	RegCMBLOC = 0x38
	RegCMBSZ  = 0x3C
	// DoorbellBase is the start of the doorbell region: SQ y tail doorbell
	// at DoorbellBase + (2y)*(4<<DSTRD), CQ y head doorbell at
	// DoorbellBase + (2y+1)*(4<<DSTRD).
	DoorbellBase = 0x1000
	// MSIXTableBase is the MSI-X vector table within BAR0: one 16-byte
	// entry per vector (address 8 B, data 4 B, control 4 B; control bit 0
	// is the mask bit, 0 = enabled once the address is programmed).
	MSIXTableBase = 0x2000
	MSIXEntrySize = 16
	// CMBBase is the Controller Memory Buffer offset within BAR0: host-
	// visible controller-internal memory in which queues (and data) may
	// be placed, so controller-side accesses never touch the fabric.
	CMBBase = 0x4000
)

// CC register bits.
const (
	CCEnable = 1 << 0
	// CC.AMS (bits 13:11) selects the arbitration mechanism; the value must
	// be one advertised by CAP.AMS.
	CCAMSShift = 11
	CCAMSMask  = 0x7
	// IOSQES/IOCQES encode entry sizes as powers of two in bits 19:16 and
	// 23:20; required values are 6 (64 B) and 4 (16 B).
	CCIOSQESShift = 16
	CCIOCQESShift = 20
)

// Arbitration mechanism values (CC.AMS). Round robin is always
// supported; weighted round robin with urgent priority class is
// advertised through CAP.AMS bit 17 (CAPAMSWRRU).
const (
	AMSRoundRobin = 0
	AMSWRRUrgent  = 1
)

// CAPAMSWRRU is CAP bit 17: the controller supports weighted round
// robin with urgent priority class arbitration.
const CAPAMSWRRU = uint64(1) << 17

// I/O submission queue priority classes (Create I/O SQ CDW11 QPRIO,
// bits 2:1). Only meaningful when CC.AMS selects WRR with urgent;
// under round-robin arbitration every queue is treated equally.
const (
	QPrioUrgent = 0
	QPrioHigh   = 1
	QPrioMedium = 2
	QPrioLow    = 3
)

// CSTS register bits.
const (
	CSTSReady = 1 << 0
	CSTSCFS   = 1 << 1 // controller fatal status
)

// Version encodes NVMe 1.3.
const Version = uint32(1)<<16 | uint32(3)<<8

// Queue entry sizes.
const (
	SQESize = 64
	CQESize = 16
)

// PageSize is the memory page size (CC.MPS = 0).
const PageSize = 4096

// Admin opcodes (NVMe 1.3 §5).
const (
	AdminDeleteIOSQ  = 0x00
	AdminCreateIOSQ  = 0x01
	AdminGetLogPage  = 0x02
	AdminDeleteIOCQ  = 0x04
	AdminCreateIOCQ  = 0x05
	AdminIdentify    = 0x06
	AdminAbort       = 0x08
	AdminSetFeatures = 0x09
	AdminGetFeatures = 0x0A
)

// I/O opcodes (NVM command set, §6).
const (
	IOFlush       = 0x00
	IOWrite       = 0x01
	IORead        = 0x02
	IOCompare     = 0x05
	IOWriteZeroes = 0x08
	IODSM         = 0x09
	// Persistent reservation commands (§6.11–6.14). The volume layer uses
	// these to fence stale writers after a path failover.
	IOResvRegister = 0x0D
	IOResvReport   = 0x0E
	IOResvAcquire  = 0x11
	IOResvRelease  = 0x15
)

// Reservation types (RTYPE, §6.11). Only the exclusive-writer types are
// meaningful on this single-namespace controller; the "all registrants"
// variants are accepted but behave like their registrants-only forms.
const (
	ResvWriteExclusive         = 1 // only the holder may write
	ResvExclusiveAccess        = 2 // only the holder may read or write
	ResvWriteExclusiveRegOnly  = 3 // registrants may write
	ResvExclusiveAccessRegOnly = 4 // registrants may read/write
	ResvWriteExclusiveAllReg   = 5
	ResvExclusiveAccessAllReg  = 6
)

// Reservation Register actions (CDW10 RREGA bits 2:0).
const (
	ResvRegisterKey   = 0 // register a new key
	ResvUnregisterKey = 1 // unregister
	ResvReplaceKey    = 2 // replace an existing key
)

// Reservation Acquire actions (CDW10 RACQA bits 2:0).
const (
	ResvAcquireAct      = 0 // acquire the reservation
	ResvPreempt         = 1 // preempt the holder / registrants with PRKEY
	ResvPreemptAndAbort = 2 // preempt and abort the victim's commands
)

// Reservation Release actions (CDW10 RRELA bits 2:0).
const (
	ResvReleaseAct = 0 // release the held reservation
	ResvClearAct   = 1 // clear: drop reservation and every registration
)

// ResvIEKEY is CDW10 bit 3 (ignore existing key) on Register.
const ResvIEKEY = 1 << 3

// ResvRTYPEShift positions RTYPE within CDW10 (bits 15:8) for Acquire and
// Release.
const ResvRTYPEShift = 8

// DSM (Dataset Management) constants.
const (
	// DSMRangeSize is the size of one range definition in the DSM list.
	DSMRangeSize = 16
	// DSMMaxRanges bounds NR+1.
	DSMMaxRanges = 256
	// DSMAttrDeallocate is CDW11 bit 2.
	DSMAttrDeallocate = 1 << 2
)

// Identify CNS values.
const (
	CNSNamespace  = 0x00
	CNSController = 0x01
)

// Feature identifiers.
const (
	FeatArbitration        = 0x01
	FeatVolatileWriteCache = 0x06
	FeatNumQueues          = 0x07
)

// Arbitration feature (FID 0x01) CDW11 layout: AB in bits 2:0 (burst =
// 2^AB commands per queue per turn, ArbBurstUnlimited = no limit), LPW
// in 15:8, MPW in 23:16, HPW in 31:24. Weights are 0-based: a field
// value w grants w+1 command credits per weighted round.
const (
	ArbBurstUnlimited = 0x7
	ArbABMask         = 0x7
	ArbLPWShift       = 8
	ArbMPWShift       = 16
	ArbHPWShift       = 24
)

// ArbitrationCDW11 packs the arbitration feature fields.
func ArbitrationCDW11(ab, hpw, mpw, lpw uint8) uint32 {
	return uint32(ab&ArbABMask) | uint32(lpw)<<ArbLPWShift |
		uint32(mpw)<<ArbMPWShift | uint32(hpw)<<ArbHPWShift
}

// Log page identifiers.
const (
	LogErrorInfo = 0x01
	LogSMART     = 0x02
)

// SMARTLog is the subset of the SMART / Health Information log page
// (LID 0x02) the tooling consumes. Units fields count 512-byte units in
// thousands, per spec.
type SMARTLog struct {
	TemperatureK    uint16
	UnitsRead       uint64
	UnitsWritten    uint64
	HostReadCmds    uint64
	HostWriteCmds   uint64
	PowerCycles     uint64
	UnsafeShutdowns uint64
	MediaErrors     uint64
}

// MarshalSMARTLog lays the structure out per spec offsets (each numeric
// field is a 16-byte little-endian integer; we fill the low 8 bytes).
func MarshalSMARTLog(s SMARTLog) []byte {
	b := make([]byte, 512)
	binary.LittleEndian.PutUint16(b[1:], s.TemperatureK)
	put128 := func(off int, v uint64) {
		binary.LittleEndian.PutUint64(b[off:], v)
	}
	put128(32, s.UnitsRead)
	put128(48, s.UnitsWritten)
	put128(64, s.HostReadCmds)
	put128(80, s.HostWriteCmds)
	put128(112, s.PowerCycles)
	put128(144, s.UnsafeShutdowns)
	put128(160, s.MediaErrors)
	return b
}

// UnmarshalSMARTLog decodes the fields written by MarshalSMARTLog.
func UnmarshalSMARTLog(b []byte) SMARTLog {
	get := func(off int) uint64 { return binary.LittleEndian.Uint64(b[off:]) }
	return SMARTLog{
		TemperatureK:    binary.LittleEndian.Uint16(b[1:]),
		UnitsRead:       get(32),
		UnitsWritten:    get(48),
		HostReadCmds:    get(64),
		HostWriteCmds:   get(80),
		PowerCycles:     get(112),
		UnsafeShutdowns: get(144),
		MediaErrors:     get(160),
	}
}

// Status code types.
const (
	SCTGeneric     = 0
	SCTCmdSpecific = 1
	SCTMediaError  = 2
)

// Generic status codes.
const (
	SCSuccess        = 0x00
	SCInvalidOpcode  = 0x01
	SCInvalidField   = 0x02
	SCDataTransfer   = 0x04
	SCAbortRequested = 0x07
	SCInvalidNS      = 0x0B
	SCLBAOutOfRange  = 0x80
	SCCapExceeded    = 0x81
	// SCReservationConflict fences a command blocked by a persistent
	// reservation held (or required) by another registrant (§4.6.1.2.1).
	SCReservationConflict = 0x83
)

// Media error status codes.
const (
	SCWriteFault      = 0x80
	SCUnrecoveredRead = 0x81
	SCCompareFailure  = 0x85
)

// Command-specific status codes (for queue management).
const (
	SCInvalidCQ        = 0x00
	SCInvalidQID       = 0x01
	SCInvalidQSize     = 0x02
	SCAbortLimit       = 0x03
	SCInvalidIntVector = 0x08
)

// Status packs a completion status field (excluding the phase bit).
// Layout within the 15-bit field: bits 7:0 SC, bits 10:8 SCT.
func Status(sct, sc uint8) uint16 {
	return uint16(sct&0x7)<<8 | uint16(sc)
}

// StatusOK is the success status.
const StatusOK = uint16(0)

// SQE is a 64-byte submission queue entry.
type SQE struct {
	Opcode uint8
	Flags  uint8
	CID    uint16
	NSID   uint32
	MPTR   uint64
	PRP1   uint64
	PRP2   uint64
	CDW10  uint32
	CDW11  uint32
	CDW12  uint32
	CDW13  uint32
	CDW14  uint32
	CDW15  uint32
}

// Marshal encodes the entry in NVMe wire layout (little endian).
func (e *SQE) Marshal() []byte {
	b := make([]byte, SQESize)
	e.encode(b)
	return b
}

// encode writes the entry's wire layout into b[:SQESize], reserved bytes
// included.
func (e *SQE) encode(b []byte) {
	_ = b[SQESize-1]
	b[0] = e.Opcode
	b[1] = e.Flags
	binary.LittleEndian.PutUint16(b[2:], e.CID)
	binary.LittleEndian.PutUint32(b[4:], e.NSID)
	binary.LittleEndian.PutUint64(b[8:], 0)
	binary.LittleEndian.PutUint64(b[16:], e.MPTR)
	binary.LittleEndian.PutUint64(b[24:], e.PRP1)
	binary.LittleEndian.PutUint64(b[32:], e.PRP2)
	binary.LittleEndian.PutUint32(b[40:], e.CDW10)
	binary.LittleEndian.PutUint32(b[44:], e.CDW11)
	binary.LittleEndian.PutUint32(b[48:], e.CDW12)
	binary.LittleEndian.PutUint32(b[52:], e.CDW13)
	binary.LittleEndian.PutUint32(b[56:], e.CDW14)
	binary.LittleEndian.PutUint32(b[60:], e.CDW15)
}

// UnmarshalSQE decodes a 64-byte submission queue entry.
func UnmarshalSQE(b []byte) SQE {
	return SQE{
		Opcode: b[0],
		Flags:  b[1],
		CID:    binary.LittleEndian.Uint16(b[2:]),
		NSID:   binary.LittleEndian.Uint32(b[4:]),
		MPTR:   binary.LittleEndian.Uint64(b[16:]),
		PRP1:   binary.LittleEndian.Uint64(b[24:]),
		PRP2:   binary.LittleEndian.Uint64(b[32:]),
		CDW10:  binary.LittleEndian.Uint32(b[40:]),
		CDW11:  binary.LittleEndian.Uint32(b[44:]),
		CDW12:  binary.LittleEndian.Uint32(b[48:]),
		CDW13:  binary.LittleEndian.Uint32(b[52:]),
		CDW14:  binary.LittleEndian.Uint32(b[56:]),
		CDW15:  binary.LittleEndian.Uint32(b[60:]),
	}
}

// CQE is a 16-byte completion queue entry. StatusPhase bit 0 is the phase
// tag; bits 15:1 hold the status field.
type CQE struct {
	DW0         uint32
	SQHead      uint16
	SQID        uint16
	CID         uint16
	StatusPhase uint16
}

// Marshal encodes the entry in NVMe wire layout.
func (c *CQE) Marshal() []byte {
	b := make([]byte, CQESize)
	c.encode(b)
	return b
}

// encode writes the entry's wire layout into b[:CQESize], reserved bytes
// included.
func (c *CQE) encode(b []byte) {
	_ = b[CQESize-1]
	binary.LittleEndian.PutUint32(b[0:], c.DW0)
	binary.LittleEndian.PutUint32(b[4:], 0)
	binary.LittleEndian.PutUint16(b[8:], c.SQHead)
	binary.LittleEndian.PutUint16(b[10:], c.SQID)
	binary.LittleEndian.PutUint16(b[12:], c.CID)
	binary.LittleEndian.PutUint16(b[14:], c.StatusPhase)
}

// UnmarshalCQE decodes a 16-byte completion queue entry.
func UnmarshalCQE(b []byte) CQE {
	return CQE{
		DW0:         binary.LittleEndian.Uint32(b[0:]),
		SQHead:      binary.LittleEndian.Uint16(b[8:]),
		SQID:        binary.LittleEndian.Uint16(b[10:]),
		CID:         binary.LittleEndian.Uint16(b[12:]),
		StatusPhase: binary.LittleEndian.Uint16(b[14:]),
	}
}

// Phase extracts the phase tag.
func (c *CQE) Phase() bool { return c.StatusPhase&1 == 1 }

// Status extracts the 15-bit status field.
func (c *CQE) Status() uint16 { return c.StatusPhase >> 1 }

// OK reports whether the command succeeded.
func (c *CQE) OK() bool { return c.Status() == StatusOK }

// StatusCode splits the status into (sct, sc).
func (c *CQE) StatusCode() (sct, sc uint8) {
	s := c.Status()
	return uint8(s >> 8 & 0x7), uint8(s & 0xFF)
}

// ONCS (optional NVM command support) bits.
const (
	ONCSCompare      = 1 << 0
	ONCSWriteZeroes  = 1 << 3
	ONCSDSM          = 1 << 2
	ONCSReservations = 1 << 5
)

// OACS (optional admin command support) bits.
const (
	OACSGetLogPage = 1 << 0 // (always mandatory; kept for symmetry)
)

// IdentifyController is the subset of the 4096-byte Identify Controller
// data structure the drivers consume.
type IdentifyController struct {
	VID      uint16
	SSVID    uint16
	Serial   string // 20 bytes
	Model    string // 40 bytes
	Firmware string // 8 bytes
	// OACS / ONCS advertise optional admin / NVM command support.
	OACS uint16
	ONCS uint16
	// NN is the number of namespaces.
	NN uint32
	// MaxQueueEntries mirrors CAP.MQES+1 for convenience.
	MaxQueueEntries int
}

// SupportsCompare reports ONCS bit 0.
func (id IdentifyController) SupportsCompare() bool { return id.ONCS&ONCSCompare != 0 }

// SupportsWriteZeroes reports ONCS bit 3.
func (id IdentifyController) SupportsWriteZeroes() bool { return id.ONCS&ONCSWriteZeroes != 0 }

// SupportsDSM reports ONCS bit 2.
func (id IdentifyController) SupportsDSM() bool { return id.ONCS&ONCSDSM != 0 }

// SupportsReservations reports ONCS bit 5.
func (id IdentifyController) SupportsReservations() bool { return id.ONCS&ONCSReservations != 0 }

// MarshalIdentifyController lays the structure out per spec offsets.
func MarshalIdentifyController(id IdentifyController) []byte {
	b := make([]byte, PageSize)
	binary.LittleEndian.PutUint16(b[0:], id.VID)
	binary.LittleEndian.PutUint16(b[2:], id.SSVID)
	copyPadded(b[4:24], id.Serial)
	copyPadded(b[24:64], id.Model)
	copyPadded(b[64:72], id.Firmware)
	binary.LittleEndian.PutUint16(b[256:], id.OACS)
	binary.LittleEndian.PutUint32(b[516:], id.NN)
	binary.LittleEndian.PutUint16(b[520:], id.ONCS)
	return b
}

// UnmarshalIdentifyController decodes the fields written by
// MarshalIdentifyController.
func UnmarshalIdentifyController(b []byte) IdentifyController {
	return IdentifyController{
		VID:      binary.LittleEndian.Uint16(b[0:]),
		SSVID:    binary.LittleEndian.Uint16(b[2:]),
		Serial:   trimPadded(b[4:24]),
		Model:    trimPadded(b[24:64]),
		Firmware: trimPadded(b[64:72]),
		OACS:     binary.LittleEndian.Uint16(b[256:]),
		NN:       binary.LittleEndian.Uint32(b[516:]),
		ONCS:     binary.LittleEndian.Uint16(b[520:]),
	}
}

// IdentifyNamespace is the subset of the Identify Namespace structure the
// drivers consume.
type IdentifyNamespace struct {
	NSZE uint64 // namespace size in logical blocks
	NCAP uint64
	NUSE uint64
	// LBADS is the log2 of the logical block size (LBA format 0).
	LBADS uint8
}

// MarshalIdentifyNamespace lays the structure out per spec offsets.
func MarshalIdentifyNamespace(ns IdentifyNamespace) []byte {
	b := make([]byte, PageSize)
	binary.LittleEndian.PutUint64(b[0:], ns.NSZE)
	binary.LittleEndian.PutUint64(b[8:], ns.NCAP)
	binary.LittleEndian.PutUint64(b[16:], ns.NUSE)
	// LBAF0 at offset 128: bits 23:16 LBADS.
	b[128+2] = ns.LBADS
	return b
}

// UnmarshalIdentifyNamespace decodes the fields written by
// MarshalIdentifyNamespace.
func UnmarshalIdentifyNamespace(b []byte) IdentifyNamespace {
	return IdentifyNamespace{
		NSZE:  binary.LittleEndian.Uint64(b[0:]),
		NCAP:  binary.LittleEndian.Uint64(b[8:]),
		NUSE:  binary.LittleEndian.Uint64(b[16:]),
		LBADS: b[128+2],
	}
}

func copyPadded(dst []byte, s string) {
	for i := range dst {
		if i < len(s) {
			dst[i] = s[i]
		} else {
			dst[i] = ' '
		}
	}
}

func trimPadded(b []byte) string {
	end := len(b)
	for end > 0 && (b[end-1] == ' ' || b[end-1] == 0) {
		end--
	}
	return string(b[:end])
}

// ResvRegistrant is one registered controller entry in the Reservation
// Status (report) data structure. In this model the sharing unit is the
// queue pair, so CNTLID carries the registrant's SQ ID and HostID the
// owning host.
type ResvRegistrant struct {
	CNTLID uint16
	// Holder reports RCSTS bit 0: this registrant holds the reservation.
	Holder bool
	HostID uint64
	RKey   uint64
}

// ResvStatus is the Reservation Status data structure returned by
// Reservation Report (§6.13): a header followed by one registered
// controller entry per registrant.
type ResvStatus struct {
	// Gen is the generation counter, incremented on every register,
	// unregister, replace, preempt and clear.
	Gen uint32
	// RType is the held reservation type (0 = none held).
	RType uint8
	// Regs lists registrants in ascending CNTLID order.
	Regs []ResvRegistrant
}

// ResvStatusHdrSize is the report header size; registrant entries follow
// at this offset, ResvRegistrantSize bytes each (spec layout).
const (
	ResvStatusHdrSize  = 24
	ResvRegistrantSize = 24
)

// MarshalResvStatus lays the structure out per spec offsets: GEN at 0,
// RTYPE at 4, REGCTL at 5, then 24-byte registrant entries from offset 24
// (CNTLID at 0, RCSTS at 2, HOSTID at 8, RKEY at 16).
func MarshalResvStatus(s ResvStatus) []byte {
	b := make([]byte, ResvStatusHdrSize+len(s.Regs)*ResvRegistrantSize)
	binary.LittleEndian.PutUint32(b[0:], s.Gen)
	b[4] = s.RType
	binary.LittleEndian.PutUint16(b[5:], uint16(len(s.Regs)))
	for i, r := range s.Regs {
		e := b[ResvStatusHdrSize+i*ResvRegistrantSize:]
		binary.LittleEndian.PutUint16(e[0:], r.CNTLID)
		if r.Holder {
			e[2] = 1
		}
		binary.LittleEndian.PutUint64(e[8:], r.HostID)
		binary.LittleEndian.PutUint64(e[16:], r.RKey)
	}
	return b
}

// UnmarshalResvStatus decodes the fields written by MarshalResvStatus.
// Truncated registrant entries (the host asked for fewer dwords than the
// full report) are dropped, as a real host must tolerate.
func UnmarshalResvStatus(b []byte) ResvStatus {
	if len(b) < ResvStatusHdrSize {
		return ResvStatus{}
	}
	s := ResvStatus{
		Gen:   binary.LittleEndian.Uint32(b[0:]),
		RType: b[4],
	}
	n := int(binary.LittleEndian.Uint16(b[5:]))
	for i := 0; i < n; i++ {
		off := ResvStatusHdrSize + i*ResvRegistrantSize
		if off+ResvRegistrantSize > len(b) {
			break
		}
		e := b[off:]
		s.Regs = append(s.Regs, ResvRegistrant{
			CNTLID: binary.LittleEndian.Uint16(e[0:]),
			Holder: e[2]&1 != 0,
			HostID: binary.LittleEndian.Uint64(e[8:]),
			RKey:   binary.LittleEndian.Uint64(e[16:]),
		})
	}
	return s
}

// SQTailDoorbell returns the BAR offset of SQ qid's tail doorbell for
// doorbell stride dstrd (CAP.DSTRD).
func SQTailDoorbell(qid uint16, dstrd uint8) uint64 {
	return DoorbellBase + uint64(2*qid)*(4<<dstrd)
}

// CQHeadDoorbell returns the BAR offset of CQ qid's head doorbell.
func CQHeadDoorbell(qid uint16, dstrd uint8) uint64 {
	return DoorbellBase + uint64(2*qid+1)*(4<<dstrd)
}
