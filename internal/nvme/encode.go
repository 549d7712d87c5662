package nvme

import (
	"encoding/binary"

	"repro/internal/pcie"
)

// The encoders for what the controller decodes. Every driver (the core
// client, the stock host driver and the NVMe-oF target) builds its I/O
// commands here, so each format has one writer beside its one reader:
// PRPs beside prpSegments, IOCmd beside LBARange, DSMRange beside ioDSM.

// prpPerPage is the number of 8-byte entries in one PRP list page. A list
// page that runs out of room spends its last entry on the pointer to the
// next list page.
const prpPerPage = PageSize / 8

// IOCmd returns an NVM command with opcode op for the nblk blocks at lba
// of namespace 1. Its data pointers are left for PRPs to set.
func IOCmd(op uint8, lba uint64, nblk int) SQE {
	return SQE{Opcode: op, NSID: 1,
		CDW10: uint32(lba), CDW11: uint32(lba >> 32), CDW12: uint32(nblk - 1)}
}

// LBARange returns the starting LBA and block count of an NVM command, the
// inverse of IOCmd.
func (e *SQE) LBARange() (slba uint64, nlb int) {
	return uint64(e.CDW10) | uint64(e.CDW11)<<32, int(e.CDW12&0xFFFF) + 1
}

// DSMRange encodes one Dataset Management range definition: nblk blocks
// starting at lba, no context attributes.
func DSMRange(lba uint64, nblk int) []byte {
	b := make([]byte, DSMRangeSize)
	binary.LittleEndian.PutUint32(b[4:], uint32(nblk))
	binary.LittleEndian.PutUint64(b[8:], lba)
	return b
}

// prpEntries returns how many pages a transfer of n bytes at buf touches
// after the one PRP1 points into.
func prpEntries(buf uint64, n int) int {
	rest := n - (PageSize - int(buf%PageSize))
	if rest <= 0 {
		return 0
	}
	return (rest + PageSize - 1) / PageSize
}

// PRPListPages returns how many PRP list pages PRPs writes for a transfer
// of n bytes at buf: none up to two pages, one up to 513, and one more
// for every further 511.
func PRPListPages(buf uint64, n int) int {
	e := prpEntries(buf, n)
	if e <= 1 {
		return 0
	}
	return 1 + (e-2)/(prpPerPage-1)
}

// PRPs points cmd at the n contiguous bytes at device address buf. PRP1
// takes buf and, for a transfer that reaches a second page, PRP2 takes
// that page. Past two pages PRP2 takes listDev, and PRPs writes the PRP
// list into host memory at listCPU, the CPU's address of the region the
// controller reads at listDev. The region must hold PRPListPages(buf, n)
// pages. The write is a model boundary and costs no virtual time: on
// hardware the driver builds the list while it builds the command.
func PRPs(h *pcie.HostPort, cmd *SQE, buf uint64, n int, listCPU, listDev pcie.Addr) error {
	cmd.PRP1 = buf
	cmd.PRP2 = 0
	e := prpEntries(buf, n)
	next := buf - buf%PageSize + PageSize
	if e == 0 {
		return nil
	}
	if e == 1 {
		cmd.PRP2 = next
		return nil
	}
	cmd.PRP2 = listDev
	var page [PageSize]byte
	for e > 0 {
		count := e
		if count > prpPerPage {
			count = prpPerPage - 1
		}
		for i := 0; i < count; i++ {
			binary.LittleEndian.PutUint64(page[i*8:], next)
			next += PageSize
		}
		if e -= count; e > 0 {
			listDev += PageSize
			binary.LittleEndian.PutUint64(page[count*8:], listDev)
			count++
		}
		if err := h.Mem().Write(listCPU, page[:count*8]); err != nil {
			return err
		}
		listCPU += PageSize
	}
	return nil
}
