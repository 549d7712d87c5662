package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/nvme"
	"repro/internal/sim"
)

// Client-side persistent reservation commands. Key material travels
// through a bounce partition exactly like write data (the §V static-window
// design has no other DMA path), and every command polices the same
// status mapping: Reservation Conflict comes back as the fatal
// ErrReservationConflict sentinel, anything else non-OK as ErrIOFailed.
//
// The volume layer drives these to fence a dead path: each path registers
// and acquires on bring-up; after failover, a fresh client on the dead
// path's controller preempts the stale key so any in-flight stale write
// conflicts instead of landing.

// resvStatus maps an NVMe completion status onto client error sentinels.
func resvStatusErr(st uint16) error {
	if st == nvme.StatusOK {
		return nil
	}
	if st == nvme.Status(nvme.SCTGeneric, nvme.SCReservationConflict) {
		return fmt.Errorf("%w: status %#x", ErrReservationConflict, st)
	}
	return fmt.Errorf("%w: status %#x", ErrIOFailed, st)
}

// resvExec stages data (if any) through a bounce slot and executes one
// reservation command. cdw10/cdw15 are passed through verbatim.
func (c *Client) resvExec(p *sim.Proc, opcode uint8, cdw10, cdw15 uint32, data []byte) (uint16, error) {
	if c.closed {
		return 0, ErrClosed
	}
	p.Sleep(c.params.SubmitOverheadNs)
	cmd := nvme.SQE{Opcode: opcode, NSID: 1, CDW10: cdw10, CDW15: cdw15}
	slot := -1
	if len(data) > 0 {
		slot = c.acquireSlot(p)
		partCPU, partDev := c.partition(slot)
		if err := c.node.Host().Write(p, partCPU, data); err != nil {
			c.releaseSlot(slot)
			return 0, err
		}
		cmd.PRP1 = partDev
	}
	st, parked, err := c.exec(p, &cmd, slot)
	if slot >= 0 && !parked {
		c.releaseSlot(slot)
	}
	return st, err
}

// ResvRegister registers, unregisters or replaces this queue pair's
// reservation key (action is one of nvme.ResvRegisterKey /
// ResvUnregisterKey / ResvReplaceKey). hostID identifies the host in
// Reservation Report output.
func (c *Client) ResvRegister(p *sim.Proc, action uint32, crkey, nrkey uint64, hostID uint32) error {
	data := make([]byte, 16)
	binary.LittleEndian.PutUint64(data[0:], crkey)
	binary.LittleEndian.PutUint64(data[8:], nrkey)
	st, err := c.resvExec(p, nvme.IOResvRegister, action&0x7, hostID, data)
	if err != nil {
		return err
	}
	return resvStatusErr(st)
}

// ResvAcquire acquires the namespace reservation, or preempts another
// registrant's key (action is one of nvme.ResvAcquireAct / ResvPreempt /
// ResvPreemptAndAbort; prkey names the victim key for the preempt
// actions).
func (c *Client) ResvAcquire(p *sim.Proc, action uint32, rtype uint8, crkey, prkey uint64) error {
	data := make([]byte, 16)
	binary.LittleEndian.PutUint64(data[0:], crkey)
	binary.LittleEndian.PutUint64(data[8:], prkey)
	cdw10 := action&0x7 | uint32(rtype)<<nvme.ResvRTYPEShift
	st, err := c.resvExec(p, nvme.IOResvAcquire, cdw10, 0, data)
	if err != nil {
		return err
	}
	return resvStatusErr(st)
}
