// Package nvmeof implements the NVMe-over-Fabrics baseline of the paper's
// evaluation (Fig. 9a, remote case): a stock-kernel-style initiator block
// driver and an SPDK-style polled target, connected over the rdma
// substrate. Command capsules are SENT into the target's receive queue
// ("bound" to an NVMe submission queue, §II); 4 kB writes ride in-capsule,
// read data returns with RDMA WRITE, and the response capsule completes
// the exchange. Unlike the PCIe/NTB driver, target software sits on the
// critical path of every I/O — the structural source of the 7+ µs penalty
// in Figure 10.
package nvmeof

import (
	"encoding/binary"
	"errors"
)

// Capsule opcodes: NVMe I/O opcodes plus fabrics-style control verbs.
const (
	// OpConnect performs the connect/identify handshake.
	OpConnect = 0xFE
)

// Capsule flag bits.
const (
	// FlagInline marks write data carried within the capsule.
	FlagInline = 1 << 0
)

// CmdHeaderSize is the fixed command capsule header size.
const CmdHeaderSize = 64

// RespSize is the response capsule size.
const RespSize = 32

// ErrShortCapsule is returned when decoding truncated capsule bytes.
var ErrShortCapsule = errors.New("nvmeof: short capsule")

// CmdCapsule is a command capsule header.
type CmdCapsule struct {
	Opcode  uint8
	Flags   uint8
	CID     uint16
	NSID    uint32
	LBA     uint64
	Nblk    uint32
	DataLen uint32
	// RAddr is the initiator-side buffer address: the RDMA WRITE target
	// for read data, or the RDMA READ source for non-inline write data.
	RAddr uint64
}

// Marshal encodes the header; inline write data is appended by the caller.
func (c *CmdCapsule) Marshal() []byte {
	b := make([]byte, CmdHeaderSize)
	b[0] = c.Opcode
	b[1] = c.Flags
	binary.LittleEndian.PutUint16(b[2:], c.CID)
	binary.LittleEndian.PutUint32(b[4:], c.NSID)
	binary.LittleEndian.PutUint64(b[8:], c.LBA)
	binary.LittleEndian.PutUint32(b[16:], c.Nblk)
	binary.LittleEndian.PutUint32(b[20:], c.DataLen)
	binary.LittleEndian.PutUint64(b[24:], c.RAddr)
	return b
}

// UnmarshalCmdCapsule decodes a command capsule header.
func UnmarshalCmdCapsule(b []byte) (CmdCapsule, error) {
	if len(b) < CmdHeaderSize {
		return CmdCapsule{}, ErrShortCapsule
	}
	return CmdCapsule{
		Opcode:  b[0],
		Flags:   b[1],
		CID:     binary.LittleEndian.Uint16(b[2:]),
		NSID:    binary.LittleEndian.Uint32(b[4:]),
		LBA:     binary.LittleEndian.Uint64(b[8:]),
		Nblk:    binary.LittleEndian.Uint32(b[16:]),
		DataLen: binary.LittleEndian.Uint32(b[20:]),
		RAddr:   binary.LittleEndian.Uint64(b[24:]),
	}, nil
}

// RespCapsule is a response capsule. For OpConnect responses the
// BlockShift/Blocks fields carry the namespace geometry, and InCapsule and
// Slots the connection's limits, as NVMe-oF's IOCCSZ and SQSIZE do: the
// largest write payload the target accepts in-capsule, and how many
// command capsules it can hold at once.
type RespCapsule struct {
	CID        uint16
	Status     uint16
	BlockShift uint8
	Blocks     uint64
	InCapsule  uint32
	Slots      uint32
}

// Marshal encodes the response capsule.
func (r *RespCapsule) Marshal() []byte {
	b := make([]byte, RespSize)
	binary.LittleEndian.PutUint16(b[0:], r.CID)
	binary.LittleEndian.PutUint16(b[2:], r.Status)
	b[4] = r.BlockShift
	binary.LittleEndian.PutUint64(b[8:], r.Blocks)
	binary.LittleEndian.PutUint32(b[16:], r.InCapsule)
	binary.LittleEndian.PutUint32(b[20:], r.Slots)
	return b
}

// UnmarshalRespCapsule decodes a response capsule.
func UnmarshalRespCapsule(b []byte) (RespCapsule, error) {
	if len(b) < RespSize {
		return RespCapsule{}, ErrShortCapsule
	}
	return RespCapsule{
		CID:        binary.LittleEndian.Uint16(b[0:]),
		Status:     binary.LittleEndian.Uint16(b[2:]),
		BlockShift: b[4],
		Blocks:     binary.LittleEndian.Uint64(b[8:]),
		InCapsule:  binary.LittleEndian.Uint32(b[16:]),
		Slots:      binary.LittleEndian.Uint32(b[20:]),
	}, nil
}
