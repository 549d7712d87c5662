package nvme

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// rig is a single host with a directly attached controller — the "local
// NVMe" configuration.
type rig struct {
	k    *sim.Kernel
	dom  *pcie.Domain
	host *pcie.HostPort
	ctrl *Controller
	med  *FlashMedium
}

const (
	rigBARBase = 0xF000_0000
	rigBARSize = 0x4000
)

func newRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	dom := pcie.NewDomain("host0", k, pcie.LinkParams{})
	rc := dom.AddNode(pcie.RootComplex, "rc")
	ep := dom.AddNode(pcie.Endpoint, "nvme")
	if err := dom.Connect(rc, ep); err != nil {
		t.Fatal(err)
	}
	mem := memory.New(0x100000, 8<<20)
	host, err := pcie.NewHostPort(dom, rc, mem)
	if err != nil {
		t.Fatal(err)
	}
	med := NewFlashMedium(k, 512, 1<<20, FlashParams{}, 42)
	ctrl, err := New("nvme0", dom, ep, pcie.Range{Base: rigBARBase, Size: rigBARSize}, med, Params{})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, dom: dom, host: host, ctrl: ctrl, med: med}
}

// run executes fn as a simulated process and drains the kernel.
func (r *rig) run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	failed := false
	r.k.Spawn("test", func(p *sim.Proc) {
		defer func() {
			if rec := recover(); rec != nil {
				if _, ok := rec.(sim.Stopped); ok {
					panic(rec)
				}
				failed = true
				t.Errorf("panic in sim proc: %v", rec)
			}
		}()
		fn(p)
	})
	r.k.RunAll()
	r.k.Shutdown()
	if failed {
		t.FailNow()
	}
}

// enable brings the controller up and returns the admin client.
func (r *rig) enable(t *testing.T, p *sim.Proc) *AdminClient {
	t.Helper()
	a := NewAdminClient(r.host, rigBARBase)
	if err := a.Enable(p, 32); err != nil {
		t.Fatalf("enable: %v", err)
	}
	return a
}

// ioQueue creates I/O queue pair 1 in local memory and returns its view.
func (r *rig) ioQueue(t *testing.T, p *sim.Proc, a *AdminClient, depth int) *QueueView {
	t.Helper()
	sq, err := r.host.Alloc(uint64(depth*SQESize), PageSize)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := r.host.Alloc(uint64(depth*CQESize), PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CreateQueuePair(p, 1, depth, sq, cq, false, 0); err != nil {
		t.Fatalf("create qp: %v", err)
	}
	return NewQueueView(1, depth, sq, cq,
		rigBARBase+SQTailDoorbell(1, a.DSTRD), rigBARBase+CQHeadDoorbell(1, a.DSTRD))
}

// execIO submits one I/O command and polls until completion.
func execIO(t *testing.T, p *sim.Proc, h *pcie.HostPort, q *QueueView, cmd *SQE) CQE {
	t.Helper()
	cmd.CID = q.NextCID()
	if err := q.Submit(p, h, cmd); err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := p.Now() + 100*sim.Millisecond
	for {
		cqe, ok, err := q.Poll(p, h)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		if ok {
			return cqe
		}
		if p.Now() > deadline {
			t.Fatalf("I/O timeout CID %d", cmd.CID)
		}
		p.Sleep(200)
	}
}

func TestControllerEnableSetsReady(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		if !r.ctrl.Ready() {
			t.Error("controller not ready after Enable")
		}
		if a.MQES != MQES {
			t.Errorf("MQES %d, want %d", a.MQES, MQES)
		}
	})
}

func TestRegisterReadback(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		vs, err := a.Reg32(p, RegVS)
		if err != nil {
			t.Fatal(err)
		}
		if vs != Version {
			t.Errorf("VS = %#x, want %#x", vs, Version)
		}
		capReg, err := a.Reg64(p, RegCAP)
		if err != nil {
			t.Fatal(err)
		}
		if capReg&0xFFFF != MQES {
			t.Errorf("CAP.MQES = %d", capReg&0xFFFF)
		}
		if capReg>>37&1 != 1 {
			t.Error("CAP.CSS NVM bit clear")
		}
	})
}

func TestDisableResets(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		if err := a.Disable(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(sim.Microsecond)
		if r.ctrl.Ready() {
			t.Error("controller still ready after disable")
		}
		// Re-enable must work.
		if err := a.Enable(p, 16); err != nil {
			t.Fatalf("re-enable: %v", err)
		}
	})
}

func TestIdentifyController(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		id, err := a.Identify(p)
		if err != nil {
			t.Fatal(err)
		}
		if id.Model != "Simulated Optane P4800X" {
			t.Errorf("model %q", id.Model)
		}
		if id.NN != 1 {
			t.Errorf("NN = %d", id.NN)
		}
	})
}

func TestIdentifyNamespace(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		ns, err := a.IdentifyNamespace(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ns.NSZE != r.med.Blocks() {
			t.Errorf("NSZE = %d, want %d", ns.NSZE, r.med.Blocks())
		}
		if ns.LBADS != 9 {
			t.Errorf("LBADS = %d, want 9", ns.LBADS)
		}
		// Invalid NSID is rejected.
		if _, err := a.IdentifyNamespace(p, 7); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("bad NSID: %v", err)
		}
	})
}

func TestSetNumQueues(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		nsq, ncq, err := a.SetNumQueues(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := r.ctrl.Params().MaxQueuePairs - 1
		if nsq != want || ncq != want {
			t.Errorf("granted (%d,%d), want (%d,%d)", nsq, ncq, want, want)
		}
	})
}

func TestIOReadWriteRoundTrip(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 64)
		dataBuf, _ := r.host.Alloc(PageSize, PageSize)
		pattern := bytes.Repeat([]byte{0xA5, 0x5A, 0x00, 0xFF}, PageSize/4)
		s, _ := r.host.Slice(dataBuf, PageSize)
		copy(s, pattern)

		w := SQE{Opcode: IOWrite, NSID: 1, PRP1: dataBuf, CDW10: 100, CDW12: 7} // LBA 100, 8 blocks
		if cqe := execIO(t, p, r.host, q, &w); !cqe.OK() {
			t.Fatalf("write status %#x", cqe.Status())
		}
		// Clear the buffer, read back.
		for i := range s {
			s[i] = 0
		}
		rd := SQE{Opcode: IORead, NSID: 1, PRP1: dataBuf, CDW10: 100, CDW12: 7}
		if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
			t.Fatalf("read status %#x", cqe.Status())
		}
		if !bytes.Equal(s, pattern) {
			t.Fatal("read-back data differs from written data")
		}
	})
	if r.ctrl.Stats.ReadCmds != 1 || r.ctrl.Stats.WriteCmds != 1 {
		t.Fatalf("stats: %+v", r.ctrl.Stats)
	}
}

func TestIOUnwrittenReadsZero(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 16)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		s, _ := r.host.Slice(buf, PageSize)
		for i := range s {
			s[i] = 0xEE
		}
		rd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: 5000, CDW12: 7}
		if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
			t.Fatalf("read status %#x", cqe.Status())
		}
		for i, b := range s {
			if b != 0 {
				t.Fatalf("byte %d = %#x, want 0", i, b)
			}
		}
	})
}

func TestIOFlush(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 16)
		fl := SQE{Opcode: IOFlush, NSID: 1}
		if cqe := execIO(t, p, r.host, q, &fl); !cqe.OK() {
			t.Fatalf("flush status %#x", cqe.Status())
		}
	})
	if r.med.Flushes != 1 {
		t.Fatalf("flushes = %d", r.med.Flushes)
	}
}

func TestIOErrors(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 16)
		buf, _ := r.host.Alloc(PageSize, PageSize)

		// LBA out of range.
		bad := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: 0xFFFFFFFF, CDW11: 0xFF, CDW12: 0}
		cqe := execIO(t, p, r.host, q, &bad)
		if sct, sc := cqe.StatusCode(); sct != SCTGeneric || sc != SCLBAOutOfRange {
			t.Errorf("OOB: (%d,%#x)", sct, sc)
		}
		// Invalid namespace.
		badNS := SQE{Opcode: IORead, NSID: 9, PRP1: buf, CDW10: 0, CDW12: 0}
		cqe = execIO(t, p, r.host, q, &badNS)
		if sct, sc := cqe.StatusCode(); sct != SCTGeneric || sc != SCInvalidNS {
			t.Errorf("bad NS: (%d,%#x)", sct, sc)
		}
		// Invalid opcode.
		badOp := SQE{Opcode: 0x7F, NSID: 1, PRP1: buf}
		cqe = execIO(t, p, r.host, q, &badOp)
		if sct, sc := cqe.StatusCode(); sct != SCTGeneric || sc != SCInvalidOpcode {
			t.Errorf("bad op: (%d,%#x)", sct, sc)
		}
	})
}

func TestPRPListLargeTransfer(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 16)
		// 5 pages (20 KiB) => PRP1 + PRP list with 4 entries.
		const pages = 5
		total := pages * PageSize
		var pageAddrs [pages]pcie.Addr
		for i := range pageAddrs {
			pageAddrs[i], _ = r.host.Alloc(PageSize, PageSize)
		}
		listAddr, _ := r.host.Alloc(PageSize, PageSize)
		list, _ := r.host.Slice(listAddr, PageSize)
		for i := 1; i < pages; i++ {
			putLE64(list[(i-1)*8:], uint64(pageAddrs[i]))
		}
		// Fill with pattern.
		for i := 0; i < pages; i++ {
			s, _ := r.host.Slice(pageAddrs[i], PageSize)
			for j := range s {
				s[j] = byte(i*31 + j%251)
			}
		}
		nlb := total/512 - 1
		w := SQE{Opcode: IOWrite, NSID: 1, PRP1: pageAddrs[0], PRP2: listAddr,
			CDW10: 2000, CDW12: uint32(nlb)}
		if cqe := execIO(t, p, r.host, q, &w); !cqe.OK() {
			t.Fatalf("write status %#x", cqe.Status())
		}
		// Zero pages, read back, verify.
		for i := 0; i < pages; i++ {
			s, _ := r.host.Slice(pageAddrs[i], PageSize)
			for j := range s {
				s[j] = 0
			}
		}
		rd := SQE{Opcode: IORead, NSID: 1, PRP1: pageAddrs[0], PRP2: listAddr,
			CDW10: 2000, CDW12: uint32(nlb)}
		if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
			t.Fatalf("read status %#x", cqe.Status())
		}
		for i := 0; i < pages; i++ {
			s, _ := r.host.Slice(pageAddrs[i], PageSize)
			for j := range s {
				if s[j] != byte(i*31+j%251) {
					t.Fatalf("page %d byte %d mismatch", i, j)
				}
			}
		}
	})
}

func TestTwoPageTransferUsesPRP2Directly(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 16)
		p1, _ := r.host.Alloc(PageSize, PageSize)
		p2, _ := r.host.Alloc(PageSize, PageSize)
		s1, _ := r.host.Slice(p1, PageSize)
		s2, _ := r.host.Slice(p2, PageSize)
		for i := range s1 {
			s1[i] = 0x11
			s2[i] = 0x22
		}
		nlb := 2*PageSize/512 - 1
		w := SQE{Opcode: IOWrite, NSID: 1, PRP1: p1, PRP2: p2, CDW10: 0, CDW12: uint32(nlb)}
		if cqe := execIO(t, p, r.host, q, &w); !cqe.OK() {
			t.Fatalf("write status %#x", cqe.Status())
		}
		for i := range s1 {
			s1[i] = 0
			s2[i] = 0
		}
		rd := SQE{Opcode: IORead, NSID: 1, PRP1: p1, PRP2: p2, CDW10: 0, CDW12: uint32(nlb)}
		if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
			t.Fatalf("read status %#x", cqe.Status())
		}
		if s1[0] != 0x11 || s2[0] != 0x22 {
			t.Fatal("two-page PRP2 transfer corrupted data")
		}
	})
}

func TestQueueWrapAndPhaseFlip(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		const depth = 4 // tiny queue: wraps quickly
		q := r.ioQueue(t, p, a, depth)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		// 3 full wraps worth of commands, serially.
		for i := 0; i < 3*depth; i++ {
			rd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: uint32(i * 8), CDW12: 7}
			if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
				t.Fatalf("cmd %d status %#x", i, cqe.Status())
			}
		}
	})
	if r.ctrl.Stats.ReadCmds != 12 {
		t.Fatalf("reads = %d, want 12", r.ctrl.Stats.ReadCmds)
	}
}

func TestQueueDepthParallelism(t *testing.T) {
	// With QD=8, total time for 8 reads must be far below 8x serial time
	// (the medium has 7 channels).
	r := newRig(t)
	var elapsed sim.Time
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 32)
		buf := make([]pcie.Addr, 8)
		for i := range buf {
			buf[i], _ = r.host.Alloc(PageSize, PageSize)
		}
		start := p.Now()
		for i := 0; i < 8; i++ {
			cmd := SQE{Opcode: IORead, NSID: 1, PRP1: buf[i], CDW10: uint32(i * 8), CDW12: 7}
			cmd.CID = q.NextCID()
			if err := q.Submit(p, r.host, &cmd); err != nil {
				t.Fatal(err)
			}
		}
		done := 0
		for done < 8 {
			_, ok, err := q.Poll(p, r.host)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				done++
				continue
			}
			p.Sleep(200)
		}
		elapsed = p.Now() - start
	})
	serial := 8 * r.med.Params().ReadBaseNs
	if elapsed >= serial {
		t.Fatalf("8 reads QD8 took %d ns, not faster than serial %d ns", elapsed, serial)
	}
}

func TestCreateQueueValidation(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		sq, _ := r.host.Alloc(4096, PageSize)
		cq, _ := r.host.Alloc(4096, PageSize)

		// SQ referencing a nonexistent CQ.
		bad := SQE{Opcode: AdminCreateIOSQ, PRP1: sq, CDW10: 2 | 63<<16, CDW11: 1 | 2<<16}
		if _, err := a.Exec(p, &bad); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("SQ w/o CQ: %v", err)
		}
		// QID 0 is reserved.
		bad = SQE{Opcode: AdminCreateIOCQ, PRP1: cq, CDW10: 0 | 63<<16, CDW11: 1}
		if _, err := a.Exec(p, &bad); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("QID 0: %v", err)
		}
		// QID beyond CAP.
		bad = SQE{Opcode: AdminCreateIOCQ, PRP1: cq, CDW10: 99 | 63<<16, CDW11: 1}
		if _, err := a.Exec(p, &bad); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("QID 99: %v", err)
		}
		// Non-contiguous queue (PC=0).
		bad = SQE{Opcode: AdminCreateIOCQ, PRP1: cq, CDW10: 2 | 63<<16, CDW11: 0}
		if _, err := a.Exec(p, &bad); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("PC=0: %v", err)
		}
		// Valid pair, then duplicate rejected.
		if err := a.CreateQueuePair(p, 2, 64, sq, cq, false, 0); err != nil {
			t.Fatal(err)
		}
		dup := SQE{Opcode: AdminCreateIOCQ, PRP1: cq, CDW10: 2 | 63<<16, CDW11: 1}
		if _, err := a.Exec(p, &dup); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("duplicate CQ: %v", err)
		}
	})
}

func TestDeleteQueuePair(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		sq, _ := r.host.Alloc(4096, PageSize)
		cq, _ := r.host.Alloc(4096, PageSize)
		if err := a.CreateQueuePair(p, 1, 64, sq, cq, false, 0); err != nil {
			t.Fatal(err)
		}
		// Deleting the CQ while the SQ exists must fail.
		cmd := SQE{Opcode: AdminDeleteIOCQ, CDW10: 1}
		if _, err := a.Exec(p, &cmd); !errors.Is(err, ErrCommandFailed) {
			t.Errorf("CQ delete with live SQ: %v", err)
		}
		if err := a.DeleteQueuePair(p, 1); err != nil {
			t.Fatal(err)
		}
		// The QID is reusable afterwards.
		if err := a.CreateQueuePair(p, 1, 64, sq, cq, false, 0); err != nil {
			t.Fatalf("recreate: %v", err)
		}
	})
}

// TestDeletedQueueDropsArmedCQEDrops arms a CQE drop on an idle queue,
// deletes and re-creates its QID, and checks that the new queue's first
// command completes: the drop was aimed at the old queue's owner.
func TestDeletedQueueDropsArmedCQEDrops(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q := r.ioQueue(t, p, a, 64)
		r.ctrl.InjectDropCQEs(1, 1)
		if err := a.DeleteQueuePair(p, 1); err != nil {
			t.Fatal(err)
		}
		q = r.ioQueue(t, p, a, 64)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		rd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW12: 7}
		if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
			t.Fatalf("read status %#x", cqe.Status())
		}
	})
	if n := r.ctrl.Stats.CQEsDropped; n != 0 {
		t.Fatalf("%d CQEs dropped on the re-created queue", n)
	}
}

func TestAbortReportsNotAborted(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		cmd := SQE{Opcode: AdminAbort, CDW10: 1}
		cqe, err := a.Exec(p, &cmd)
		if err != nil {
			t.Fatal(err)
		}
		if cqe.DW0&1 != 1 {
			t.Error("abort claims success; model never aborts")
		}
	})
}

func TestGetLogPage(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		cmd := SQE{Opcode: AdminGetLogPage, PRP1: buf, CDW10: 1 | 255<<16}
		if _, err := a.Exec(p, &cmd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMSIInterruptDelivery(t *testing.T) {
	r := newRig(t)
	intrAddr := pcie.Addr(0x100000 + 4<<20) // within host DRAM
	fired := 0
	r.host.Watch(pcie.Range{Base: intrAddr, Size: 4}, func(pcie.Addr, int) { fired++ })
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		if err := r.ctrl.SetMSIVector(1, intrAddr, 0xFEE); err != nil {
			t.Fatal(err)
		}
		sq, _ := r.host.Alloc(4096, PageSize)
		cq, _ := r.host.Alloc(4096, PageSize)
		if err := a.CreateQueuePair(p, 1, 64, sq, cq, true, 1); err != nil {
			t.Fatal(err)
		}
		q := NewQueueView(1, 64, sq, cq,
			rigBARBase+SQTailDoorbell(1, a.DSTRD), rigBARBase+CQHeadDoorbell(1, a.DSTRD))
		buf, _ := r.host.Alloc(PageSize, PageSize)
		rd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: 0, CDW12: 7}
		execIO(t, p, r.host, q, &rd)
	})
	if fired == 0 {
		t.Fatal("MSI vector never delivered")
	}
	if r.ctrl.Stats.Interrupts == 0 {
		t.Fatal("interrupt counter zero")
	}
}

func TestFetchLatencyDependsOnSQPlacement(t *testing.T) {
	// Two controllers in fabrics with different distances to SQ memory
	// complete identical commands at different times. This is the Fig. 8
	// effect in miniature (full version lives in the cluster package).
	lat := func(extraSwitches int) sim.Time {
		k := sim.NewKernel()
		dom := pcie.NewDomain("d", k, pcie.LinkParams{})
		rc := dom.AddNode(pcie.RootComplex, "rc")
		prev := rc
		for i := 0; i < extraSwitches; i++ {
			sw := dom.AddNode(pcie.Switch, "sw")
			dom.Connect(prev, sw)
			prev = sw
		}
		ep := dom.AddNode(pcie.Endpoint, "nvme")
		dom.Connect(prev, ep)
		mem := memory.New(0x100000, 8<<20)
		host, err := pcie.NewHostPort(dom, rc, mem)
		if err != nil {
			t.Fatal(err)
		}
		med := NewFlashMedium(k, 512, 1<<20, FlashParams{JitterNs: 1, TailProb: 1e-12}, 7)
		_, err = New("nvme", dom, ep, pcie.Range{Base: rigBARBase, Size: rigBARSize}, med, Params{})
		if err != nil {
			t.Fatal(err)
		}
		var done sim.Time
		k.Spawn("drv", func(p *sim.Proc) {
			a := NewAdminClient(host, rigBARBase)
			if err := a.Enable(p, 16); err != nil {
				t.Error(err)
				return
			}
			sq, _ := host.Alloc(4096, PageSize)
			cq, _ := host.Alloc(4096, PageSize)
			if err := a.CreateQueuePair(p, 1, 16, sq, cq, false, 0); err != nil {
				t.Error(err)
				return
			}
			q := NewQueueView(1, 16, sq, cq,
				rigBARBase+SQTailDoorbell(1, a.DSTRD), rigBARBase+CQHeadDoorbell(1, a.DSTRD))
			buf, _ := host.Alloc(PageSize, PageSize)
			start := p.Now()
			rd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: 0, CDW12: 7, CID: 1}
			if err := q.Submit(p, host, &rd); err != nil {
				t.Error(err)
				return
			}
			for {
				_, ok, err := q.Poll(p, host)
				if err != nil {
					t.Error(err)
					return
				}
				if ok {
					break
				}
				p.Sleep(100)
			}
			done = p.Now() - start
		})
		k.RunAll()
		k.Shutdown()
		return done
	}
	near := lat(0)
	far := lat(3)
	if far <= near {
		t.Fatalf("far SQ (%d ns) not slower than near SQ (%d ns)", far, near)
	}
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
