package nvme

import (
	"encoding/binary"

	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/trace"
)

// execAdmin executes an admin command and returns (status, CQE.DW0).
func (c *Controller) execAdmin(p *sim.Proc, cmd *SQE) (uint16, uint32) {
	switch cmd.Opcode {
	case AdminIdentify:
		return c.adminIdentify(p, cmd), 0
	case AdminCreateIOCQ:
		return c.adminCreateCQ(cmd), 0
	case AdminCreateIOSQ:
		return c.adminCreateSQ(cmd), 0
	case AdminDeleteIOCQ:
		return c.adminDeleteCQ(cmd), 0
	case AdminDeleteIOSQ:
		return c.adminDeleteSQ(cmd), 0
	case AdminSetFeatures, AdminGetFeatures:
		return c.adminFeatures(cmd)
	case AdminAbort:
		// Commands execute to completion in this model; report
		// "not aborted" per spec DW0 bit 0.
		return StatusOK, 1
	case AdminGetLogPage:
		return c.adminGetLogPage(p, cmd), 0
	default:
		return Status(SCTGeneric, SCInvalidOpcode), 0
	}
}

func (c *Controller) adminIdentify(p *sim.Proc, cmd *SQE) uint16 {
	cns := uint8(cmd.CDW10)
	var page []byte
	switch cns {
	case CNSController:
		id := c.ident
		id.MaxQueueEntries = MQES + 1
		page = MarshalIdentifyController(id)
	case CNSNamespace:
		if cmd.NSID != 1 {
			return Status(SCTGeneric, SCInvalidNS)
		}
		page = MarshalIdentifyNamespace(IdentifyNamespace{
			NSZE:  c.med.Blocks(),
			NCAP:  c.med.Blocks(),
			NUSE:  c.med.Blocks(),
			LBADS: log2(c.med.BlockSize()),
		})
	default:
		return Status(SCTGeneric, SCInvalidField)
	}
	if err := c.writePRP(p, cmd.PRP1, cmd.PRP2, page); err != StatusOK {
		return err
	}
	return StatusOK
}

func (c *Controller) adminCreateCQ(cmd *SQE) uint16 {
	qid := uint16(cmd.CDW10)
	size := int(cmd.CDW10>>16) + 1
	if qid == 0 || int(qid) >= c.params.MaxQueuePairs {
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	if c.cqs[qid] != nil {
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	if size < 2 || size > MQES+1 {
		return Status(SCTCmdSpecific, SCInvalidQSize)
	}
	if cmd.CDW11&1 == 0 {
		// Only physically contiguous queues are supported (PC bit).
		return Status(SCTGeneric, SCInvalidField)
	}
	iv := uint16(cmd.CDW11 >> 16)
	if int(iv) >= len(c.msi) {
		return Status(SCTCmdSpecific, SCInvalidIntVector)
	}
	c.cqs[qid] = &compQueue{
		id: qid, base: cmd.PRP1, size: size, phase: true,
		ien: cmd.CDW11&2 != 0, iv: iv, created: true,
	}
	return StatusOK
}

func (c *Controller) adminCreateSQ(cmd *SQE) uint16 {
	qid := uint16(cmd.CDW10)
	size := int(cmd.CDW10>>16) + 1
	cqid := uint16(cmd.CDW11 >> 16)
	if qid == 0 || int(qid) >= c.params.MaxQueuePairs {
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	if c.sqs[qid] != nil {
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	if size < 2 || size > MQES+1 {
		return Status(SCTCmdSpecific, SCInvalidQSize)
	}
	if cmd.CDW11&1 == 0 {
		return Status(SCTGeneric, SCInvalidField)
	}
	if int(cqid) >= c.params.MaxQueuePairs || c.cqs[cqid] == nil || !c.cqs[cqid].created {
		return Status(SCTCmdSpecific, SCInvalidCQ)
	}
	c.sqs[qid] = &subQueue{
		id: qid, base: cmd.PRP1, size: size, cqid: cqid, created: true,
		prio: uint8(cmd.CDW11 >> 1 & 3), // QPRIO, meaningful under WRR
	}
	c.cqs[cqid].sqCount++
	c.doorbell.Set() // the arbiter may be idle; re-scan queues
	return StatusOK
}

func (c *Controller) adminDeleteSQ(cmd *SQE) uint16 {
	qid := uint16(cmd.CDW10)
	if qid == 0 || int(qid) >= c.params.MaxQueuePairs || c.sqs[qid] == nil {
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	cqid := c.sqs[qid].cqid
	c.sqs[qid] = nil
	if c.cqs[cqid] != nil {
		c.cqs[cqid].sqCount--
	}
	// Registrant identity and armed faults follow the queue pair, so a
	// deleted queue's registration and CQE drops die with it — a later
	// client granted the same qid must not inherit either.
	c.dropCQE[qid] = 0
	if _, ok := c.resv.regs[qid]; ok {
		c.resvDropRegistrant(qid)
		c.resv.gen++
	}
	return StatusOK
}

func (c *Controller) adminDeleteCQ(cmd *SQE) uint16 {
	qid := uint16(cmd.CDW10)
	if qid == 0 || int(qid) >= c.params.MaxQueuePairs || c.cqs[qid] == nil {
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	if c.cqs[qid].sqCount > 0 {
		// Deleting a CQ with mapped SQs is invalid (spec §5.5).
		return Status(SCTCmdSpecific, SCInvalidQID)
	}
	c.cqs[qid] = nil
	return StatusOK
}

func (c *Controller) adminFeatures(cmd *SQE) (uint16, uint32) {
	fid := uint8(cmd.CDW10)
	isSet := cmd.Opcode == AdminSetFeatures
	switch fid {
	case FeatArbitration:
		if isSet {
			c.arbCDW11 = cmd.CDW11
			c.applyArb()
			return StatusOK, 0
		}
		return StatusOK, c.arbCDW11
	case FeatNumQueues:
		// Grant up to MaxQueuePairs-1 I/O queues in each direction,
		// regardless of the request (0-based encoding).
		n := uint32(c.params.MaxQueuePairs - 2) // 0-based
		return StatusOK, n<<16 | n
	case FeatVolatileWriteCache:
		if isSet {
			c.vwc = cmd.CDW11&1 != 0
			return StatusOK, 0
		}
		if c.vwc {
			return StatusOK, 1
		}
		return StatusOK, 0
	default:
		return Status(SCTGeneric, SCInvalidField), 0
	}
}

func (c *Controller) adminGetLogPage(p *sim.Proc, cmd *SQE) uint16 {
	// NUMD (number of dwords, 0-based) spans CDW10 bits 27:16; the log
	// identifier rides in CDW10 bits 7:0.
	lid := uint8(cmd.CDW10)
	numd := int(cmd.CDW10>>16&0xFFF) + 1
	n := numd * 4
	if n > PageSize {
		n = PageSize
	}
	page := make([]byte, n)
	if lid == LogSMART {
		smart := MarshalSMARTLog(c.smartLog())
		copy(page, smart)
	}
	return c.writePRP(p, cmd.PRP1, cmd.PRP2, page)
}

// smartLog builds the health log from live counters.
func (c *Controller) smartLog() SMARTLog {
	s := SMARTLog{
		TemperatureK:  313, // a steady 40 C
		HostReadCmds:  c.Stats.ReadCmds,
		HostWriteCmds: c.Stats.WriteCmds,
		PowerCycles:   1,
		MediaErrors:   c.Stats.MediaErrs,
	}
	if f, ok := c.med.(*FlashMedium); ok {
		unit := uint64(f.BlockSize())
		// Spec units are 1000 x 512-byte units; keep raw 512-byte-unit
		// counts for small simulated volumes.
		s.UnitsRead = f.BlocksRead * unit / 512
		s.UnitsWritten = f.BlocksWritten * unit / 512
	}
	return s
}

// execIO executes an NVM command from SQ qid and returns the status.
// qid keys device-side trace hops to the right span; Read and Write move
// their data through s.
func (c *Controller) execIO(p *sim.Proc, qid uint16, cmd *SQE, s *cmdBufs) uint16 {
	if cmd.NSID != 1 {
		return Status(SCTGeneric, SCInvalidNS)
	}
	// The reservation fence runs before any medium or data-transfer work:
	// a fenced command completes with Reservation Conflict and never
	// reaches the medium.
	if st := c.resvCheck(qid, cmd.Opcode); st != StatusOK {
		return st
	}
	switch cmd.Opcode {
	case IORead:
		return c.ioRead(p, qid, cmd, s)
	case IOWrite:
		return c.ioWrite(p, qid, cmd, s)
	case IOFlush:
		if err := c.med.Flush(p); err != nil {
			return Status(SCTMediaError, SCDataTransfer)
		}
		c.Stats.FlushCmds++
		return StatusOK
	case IOCompare:
		return c.ioCompare(p, cmd)
	case IOWriteZeroes:
		return c.ioWriteZeroes(p, cmd)
	case IODSM:
		return c.ioDSM(p, cmd)
	case IOResvRegister:
		return c.ioResvRegister(p, qid, cmd)
	case IOResvAcquire:
		return c.ioResvAcquire(p, qid, cmd)
	case IOResvRelease:
		return c.ioResvRelease(p, qid, cmd)
	case IOResvReport:
		return c.ioResvReport(p, cmd)
	default:
		return Status(SCTGeneric, SCInvalidOpcode)
	}
}

// ioCompare reads the addressed blocks and compares them with the
// host-supplied data; mismatch completes with Compare Failure.
func (c *Controller) ioCompare(p *sim.Proc, cmd *SQE) uint16 {
	slba, nlb := cmd.LBARange()
	if slba+uint64(nlb) > c.med.Blocks() {
		return Status(SCTGeneric, SCLBAOutOfRange)
	}
	n := nlb * c.med.BlockSize()
	host := make([]byte, n)
	if st := c.readPRP(p, cmd.PRP1, cmd.PRP2, host); st != StatusOK {
		return st
	}
	media := make([]byte, n)
	if err := c.med.Read(p, slba, nlb, media); err != nil {
		return Status(SCTMediaError, SCDataTransfer)
	}
	for i := range host {
		if host[i] != media[i] {
			return Status(SCTMediaError, SCCompareFailure)
		}
	}
	return StatusOK
}

// ioWriteZeroes deallocates the addressed blocks (they read back as
// zeros) without any data transfer.
func (c *Controller) ioWriteZeroes(p *sim.Proc, cmd *SQE) uint16 {
	slba, nlb := cmd.LBARange()
	if slba+uint64(nlb) > c.med.Blocks() {
		return Status(SCTGeneric, SCLBAOutOfRange)
	}
	if err := c.med.Trim(p, slba, nlb); err != nil {
		return Status(SCTMediaError, SCDataTransfer)
	}
	return StatusOK
}

// ioDSM handles Dataset Management; only the deallocate attribute has an
// effect (as on most SSDs).
func (c *Controller) ioDSM(p *sim.Proc, cmd *SQE) uint16 {
	nr := int(cmd.CDW10&0xFF) + 1
	if nr > DSMMaxRanges {
		return Status(SCTGeneric, SCInvalidField)
	}
	raw := make([]byte, nr*DSMRangeSize)
	if st := c.readPRP(p, cmd.PRP1, cmd.PRP2, raw); st != StatusOK {
		return st
	}
	if cmd.CDW11&DSMAttrDeallocate == 0 {
		return StatusOK // hints only; nothing to do
	}
	for i := 0; i < nr; i++ {
		entry := raw[i*DSMRangeSize:]
		nlb := binary.LittleEndian.Uint32(entry[4:])
		slba := binary.LittleEndian.Uint64(entry[8:])
		if nlb == 0 {
			continue
		}
		if slba+uint64(nlb) > c.med.Blocks() {
			return Status(SCTGeneric, SCLBAOutOfRange)
		}
		if err := c.med.Trim(p, slba, int(nlb)); err != nil {
			return Status(SCTMediaError, SCDataTransfer)
		}
	}
	return StatusOK
}

func (c *Controller) ioRead(p *sim.Proc, qid uint16, cmd *SQE, s *cmdBufs) uint16 {
	slba, nlb := cmd.LBARange()
	if slba+uint64(nlb) > c.med.Blocks() {
		return Status(SCTGeneric, SCLBAOutOfRange)
	}
	n := nlb * c.med.BlockSize()
	buf := s.dataBuf(n)
	t0 := p.Now()
	if err := c.med.Read(p, slba, nlb, buf); err != nil {
		c.Stats.MediaErrs++
		return Status(SCTMediaError, SCUnrecoveredRead)
	}
	c.tracer.Hop(qid, cmd.CID, trace.StageMedium, t0, p.Now())
	t0 = p.Now()
	if st := c.writePRP(p, cmd.PRP1, cmd.PRP2, buf); st != StatusOK {
		return st
	}
	c.tracer.HopNote(qid, cmd.CID, trace.StageDataXfer, t0, p.Now(), uint64(n))
	c.Stats.ReadCmds++
	c.qstats[qid].ReadCmds++
	return StatusOK
}

func (c *Controller) ioWrite(p *sim.Proc, qid uint16, cmd *SQE, s *cmdBufs) uint16 {
	slba, nlb := cmd.LBARange()
	if slba+uint64(nlb) > c.med.Blocks() {
		return Status(SCTGeneric, SCLBAOutOfRange)
	}
	n := nlb * c.med.BlockSize()
	buf := s.dataBuf(n)
	t0 := p.Now()
	if st := c.readPRP(p, cmd.PRP1, cmd.PRP2, buf); st != StatusOK {
		return st
	}
	c.tracer.HopNote(qid, cmd.CID, trace.StageDataXfer, t0, p.Now(), uint64(n))
	t0 = p.Now()
	if err := c.med.Write(p, slba, nlb, buf); err != nil {
		c.Stats.MediaErrs++
		return Status(SCTMediaError, SCWriteFault)
	}
	c.tracer.Hop(qid, cmd.CID, trace.StageMedium, t0, p.Now())
	c.Stats.WriteCmds++
	c.qstats[qid].WriteCmds++
	return StatusOK
}

// prpSegment is one contiguous DMA target.
type prpSegment struct {
	addr pcie.Addr
	n    int
}

// prpInline sizes the array on the caller's stack that prpSegments
// appends into: enough for a 64 KiB transfer that starts mid-page.
const prpInline = 64<<10/PageSize + 1

// prpSegments walks PRP1/PRP2 for a transfer of total bytes, appending
// its segments to segs, and issues the DMA reads needed to fetch PRP list
// pages (those reads cost fabric latency, just like on hardware).
func (c *Controller) prpSegments(p *sim.Proc, prp1, prp2 uint64, total int, segs []prpSegment) ([]prpSegment, uint16) {
	if total <= 0 {
		return nil, Status(SCTGeneric, SCInvalidField)
	}
	first := PageSize - int(prp1%PageSize)
	if first > total {
		first = total
	}
	segs = append(segs, prpSegment{addr: prp1, n: first})
	remain := total - first
	if remain == 0 {
		return segs, StatusOK
	}
	if remain <= PageSize {
		if prp2%PageSize != 0 || prp2 == 0 {
			return nil, Status(SCTGeneric, SCInvalidField)
		}
		segs = append(segs, prpSegment{addr: prp2, n: remain})
		return segs, StatusOK
	}
	// PRP list walk. Each list page holds PageSize/8 entries; if more
	// entries are needed than fit, the last entry chains to the next
	// list page.
	listAddr := prp2
	for remain > 0 {
		if listAddr%8 != 0 || listAddr == 0 {
			return nil, Status(SCTGeneric, SCInvalidField)
		}
		entriesNeeded := (remain + PageSize - 1) / PageSize
		perPage := PageSize / 8
		chain := false
		count := entriesNeeded
		if count > perPage {
			count = perPage - 1 // last slot chains
			chain = true
		}
		listBytes := make([]byte, (count+btoi(chain))*8)
		if err := c.dmaRead(p, listAddr, listBytes); err != nil {
			return nil, Status(SCTGeneric, SCDataTransfer)
		}
		for i := 0; i < count; i++ {
			e := binary.LittleEndian.Uint64(listBytes[i*8:])
			if e%PageSize != 0 || e == 0 {
				return nil, Status(SCTGeneric, SCInvalidField)
			}
			n := PageSize
			if n > remain {
				n = remain
			}
			segs = append(segs, prpSegment{addr: e, n: n})
			remain -= n
			if remain == 0 {
				break
			}
		}
		if remain > 0 {
			if !chain {
				return nil, Status(SCTGeneric, SCInvalidField)
			}
			listAddr = binary.LittleEndian.Uint64(listBytes[count*8:])
		}
	}
	return segs, StatusOK
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// coalesce merges physically contiguous PRP segments so the DMA engine
// issues one large, pipelined transfer per contiguous region instead of a
// round trip per page — as real controllers do.
func coalesce(segs []prpSegment) []prpSegment {
	if len(segs) < 2 {
		return segs
	}
	out := segs[:1]
	for _, s := range segs[1:] {
		last := &out[len(out)-1]
		if last.addr+pcie.Addr(last.n) == s.addr {
			last.n += s.n
			continue
		}
		out = append(out, s)
	}
	return out
}

// writePRP DMA-writes data out to the PRP-described buffers (posted).
func (c *Controller) writePRP(p *sim.Proc, prp1, prp2 uint64, data []byte) uint16 {
	var inline [prpInline]prpSegment
	segs, st := c.prpSegments(p, prp1, prp2, len(data), inline[:0])
	if st != StatusOK {
		return st
	}
	off := 0
	for _, s := range coalesce(segs) {
		if err := c.dmaWrite(p, s.addr, data[off:off+s.n]); err != nil {
			return Status(SCTGeneric, SCDataTransfer)
		}
		off += s.n
	}
	return StatusOK
}

// readPRP DMA-reads the PRP-described buffers into buf (non-posted: each
// segment costs a round trip — this asymmetry is why remote writes cost
// more than remote reads in the paper's Figure 10).
func (c *Controller) readPRP(p *sim.Proc, prp1, prp2 uint64, buf []byte) uint16 {
	var inline [prpInline]prpSegment
	segs, st := c.prpSegments(p, prp1, prp2, len(buf), inline[:0])
	if st != StatusOK {
		return st
	}
	off := 0
	for _, s := range coalesce(segs) {
		if err := c.dmaRead(p, s.addr, buf[off:off+s.n]); err != nil {
			return Status(SCTGeneric, SCDataTransfer)
		}
		off += s.n
	}
	return StatusOK
}

func log2(n int) uint8 {
	var l uint8
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}
