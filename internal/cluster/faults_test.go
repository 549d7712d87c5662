package cluster

import (
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
)

// TestMediaErrorPropagation injects media failures and demands that every
// driver stack surfaces the error to the block layer — and recovers: the
// very next I/O succeeds.
func TestMediaErrorPropagation(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			var readErr, writeErr, recovered error
			err := RunWorkload(s, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
				flash := env.Ctrl.Medium().(*nvme.FlashMedium)
				q := env.Queue
				buf := make([]byte, 4096)
				// Prime one good write so reads have a target.
				if err := q.SubmitAndWait(p, block.OpWrite, 0, 8, buf); err != nil {
					t.Errorf("prime: %v", err)
					return nil
				}
				flash.InjectReadErrors(1)
				readErr = q.SubmitAndWait(p, block.OpRead, 0, 8, buf)
				flash.InjectWriteErrors(1)
				writeErr = q.SubmitAndWait(p, block.OpWrite, 0, 8, buf)
				recovered = q.SubmitAndWait(p, block.OpRead, 0, 8, buf)
				return nil
			})
			if err != nil {
				t.Fatalf("bringup: %v", err)
			}
			if readErr == nil {
				t.Errorf("%s: injected read error not surfaced", s)
			}
			if writeErr == nil {
				t.Errorf("%s: injected write error not surfaced", s)
			}
			if recovered != nil {
				t.Errorf("%s: stack did not recover after media error: %v", s, recovered)
			}
		})
	}
}

// TestMediaErrorDoesNotStallNeighbors: with two distributed clients, a
// media error on one client's command must not disturb the other's I/O.
func TestMediaErrorDoesNotStallNeighbors(t *testing.T) {
	r, err := NewRig(RigConfig{Cluster: Config{Hosts: 3, AdapterWindows: 256}, NVMe: []NVMeConfig{{}}})
	if err != nil {
		t.Fatal(err)
	}
	flash := r.Ctrls[0].Medium().(*nvme.FlashMedium)
	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}
		var qs []*block.Queue
		for i := 1; i <= 2; i++ {
			cl, err := core.NewClient(p, "dnvme", r.Svc, r.Hosts[i].Node, mgr, core.ClientParams{})
			if err != nil {
				return err
			}
			qs = append(qs, block.NewQueue(cl))
		}
		flash.InjectReadErrors(1)
		buf := make([]byte, 4096)
		errA := qs[0].SubmitAndWait(p, block.OpRead, 0, 8, buf)
		errB := qs[1].SubmitAndWait(p, block.OpRead, 100, 8, buf)
		// Exactly one of the two reads hit the injected error (whichever
		// reached the medium first); the other must succeed.
		if errA == nil && errB == nil {
			t.Error("injected error vanished")
		}
		if errA != nil && errB != nil {
			t.Error("one injected error failed both clients")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
