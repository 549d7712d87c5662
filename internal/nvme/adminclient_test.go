package nvme

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// TestEnableTimeout uses a controller whose enable transition exceeds
// CAP.TO: the admin client must give up with ErrTimeout rather than spin
// forever.
func TestEnableTimeout(t *testing.T) {
	k := sim.NewKernel()
	dom := pcie.NewDomain("h", k, pcie.LinkParams{})
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
	med := NewFlashMedium(k, 512, 1<<20, FlashParams{}, 1)
	// CAP.TO is 10 s; a 20 s enable delay must trip the timeout.
	_, err = New("slow", dom, ep, pcie.Range{Base: rigBARBase, Size: rigBARSize}, med,
		Params{EnableDelayNs: 20 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	var got error
	k.Spawn("drv", func(p *sim.Proc) {
		a := NewAdminClient(host, rigBARBase)
		got = a.Enable(p, 16)
	})
	k.RunAll()
	k.Shutdown()
	if !errors.Is(got, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", got)
	}
}

// TestAdminExecBeforeEnable must fail cleanly, not crash.
func TestAdminExecBeforeEnable(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		cmd := SQE{Opcode: AdminIdentify, CDW10: CNSController}
		if _, err := a.Exec(p, &cmd); err == nil {
			t.Error("Exec on uninitialized admin queue succeeded")
		}
	})
}

// TestConcurrentAdminExec starts two admin commands at the same instant
// on one client, as the manager's lease reaper does when two leases
// expire in one scan: each caller must get its own completion.
func TestConcurrentAdminExec(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		done := []*sim.Event{sim.NewEvent(r.k), sim.NewEvent(r.k)}
		for i, ev := range done {
			r.k.Spawn(fmt.Sprintf("exec%d", i), func(ep *sim.Proc) {
				defer ev.Trigger(nil)
				cmd := SQE{Opcode: AdminGetFeatures, CDW10: FeatNumQueues}
				cqe, err := a.Exec(ep, &cmd)
				if err != nil {
					t.Errorf("exec%d: %v", i, err)
				} else if cqe.CID != cmd.CID {
					t.Errorf("exec%d: got CQE for CID %d, want %d", i, cqe.CID, cmd.CID)
				}
			})
		}
		p.WaitAll(done...)
	})
}

// TestEnableClampsDepth: requested admin depth beyond CAP.MQES is clamped
// rather than rejected.
func TestEnableClampsDepth(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		if err := a.Enable(p, 1<<20); err != nil {
			t.Fatalf("huge depth: %v", err)
		}
		if a.Admin.Size != int(a.MQES)+1 {
			t.Fatalf("depth %d, want clamped to %d", a.Admin.Size, a.MQES+1)
		}
		// And a tiny depth is raised to the minimum of 2.
		if err := a.Enable(p, 1); err != nil {
			t.Fatalf("tiny depth: %v", err)
		}
		if a.Admin.Size != 2 {
			t.Fatalf("depth %d, want 2", a.Admin.Size)
		}
	})
}
