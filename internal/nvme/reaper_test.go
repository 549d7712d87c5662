package nvme

import (
	"testing"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// TestReaperRejectsRemoteEdge pins that the edge range must be local: a
// driver cannot watch a write land in another node's memory.
func TestReaperRejectsRemoteEdge(t *testing.T) {
	r := newRig(t)
	q := NewQueueView(1, 4, 0, 0, 0, 0)
	if _, err := NewReaper("reap", r.host, q, ReaperParams{Edge: pcie.Range{Base: rigBARBase, Size: 4}}); err == nil {
		t.Fatal("reaper accepted an edge in the controller's BAR")
	}
}

// reaperRig brings up I/O queue pair 1 of depth 8, a data page and a
// mailbox an interrupt-driven reaper can watch.
func reaperRig(t *testing.T, r *rig, p *sim.Proc) (q *QueueView, read func() SQE, mailbox pcie.Addr) {
	t.Helper()
	q = r.ioQueue(t, p, r.enable(t, p), 8)
	buf, _ := r.host.Alloc(PageSize, PageSize)
	mailbox, _ = r.host.Alloc(4, 4)
	return q, func() SQE { return SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW12: 7} }, mailbox
}

// TestReaperOrphan checks the loop's CID table: Exec returns its
// command's status, and the CQE of a forgotten CID goes to the orphan
// handler.
func TestReaperOrphan(t *testing.T) {
	r := newRig(t)
	var orphans []uint16
	r.run(t, func(p *sim.Proc) {
		q, read, _ := reaperRig(t, r, p)
		rp, err := NewReaper("reap", r.host, q, ReaperParams{
			WakeNs: 100,
			Orphan: func(cqe CQE) { orphans = append(orphans, cqe.CID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		cmd := read()
		if st, err := rp.Exec(p, &cmd); err != nil || st != StatusOK {
			t.Fatalf("exec: status %#x, %v", st, err)
		}
		lost := read()
		lost.CID = q.NextCID()
		if _, err := rp.Submit(p, &lost); err != nil {
			t.Fatal(err)
		}
		rp.Forget(lost.CID)
		p.Sleep(sim.Millisecond)
		if len(orphans) != 1 || orphans[0] != lost.CID {
			t.Fatalf("orphans %v, want [%d]", orphans, lost.CID)
		}
	})
}

// TestReaperBlockFirst checks the interrupt shape: a loop that blocks
// before its first sweep leaves a CQE that landed before it started in
// the ring until its edge range, here a mailbox, is written.
func TestReaperBlockFirst(t *testing.T) {
	r := newRig(t)
	var reaped []uint16
	r.run(t, func(p *sim.Proc) {
		q, read, mailbox := reaperRig(t, r, p)
		cmd := read()
		cmd.CID = q.NextCID()
		if err := q.Submit(p, r.host, &cmd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if _, err := NewReaper("isr", r.host, q, ReaperParams{
			Edge:       pcie.Range{Base: mailbox, Size: 4},
			WakeNs:     1100,
			PerCQENs:   250,
			BlockFirst: true,
			Orphan:     func(cqe CQE) { reaped = append(reaped, cqe.CID) },
		}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if len(reaped) != 0 {
			t.Fatal("swept before any edge")
		}
		if err := r.host.Write(p, mailbox, []byte{1, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if len(reaped) != 1 || reaped[0] != cmd.CID {
			t.Fatalf("reaped %v after the edge, want [%d]", reaped, cmd.CID)
		}
	})
}

// TestReaperStop checks that Stop ends the loop without another sweep: a
// CQE already in the ring when Stop wakes the loop stays there, and a
// later edge wakes nothing.
func TestReaperStop(t *testing.T) {
	r := newRig(t)
	var reaped []uint16
	r.run(t, func(p *sim.Proc) {
		q, read, mailbox := reaperRig(t, r, p)
		rp, err := NewReaper("reap", r.host, q, ReaperParams{
			Edge:   pcie.Range{Base: mailbox, Size: 4},
			Orphan: func(cqe CQE) { reaped = append(reaped, cqe.CID) },
		})
		if err != nil {
			t.Fatal(err)
		}
		cmd := read()
		cmd.CID = q.NextCID()
		if err := q.Submit(p, r.host, &cmd); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		rp.Stop()
		p.Sleep(sim.Millisecond)
		if err := r.host.Write(p, mailbox, []byte{1, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Millisecond)
		if len(reaped) != 0 || q.Inflight() != 1 {
			t.Fatalf("after Stop: reaped %v, %d in flight; want the CQE left in the ring", reaped, q.Inflight())
		}
	})
}
