package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/sim"
)

// TestStandardScenariosNeverHitIOTimeout is the regression test for the
// QD4 completion-signal stall: the client's poller armed its wakeup
// AFTER an empty CQ sweep, so a CQE whose MSI fired inside that window
// (empty read .. WaitSignal) was lost, and with all four slots blocked
// on full flow control nobody else would poll — the pending command
// rode out the full 10 s virtual I/O timeout and recovery kicked in. The
// reproducer was exactly qd=4, 120 measured I/Os on ours-remote (100 or
// 400 I/Os happened to dodge the interleaving). The timeout path is for
// FAULT runs; on the standard scenarios any I/O that needs it is a
// liveness bug, so this fails if even one command times out.
func TestStandardScenariosNeverHitIOTimeout(t *testing.T) {
	for _, s := range Scenarios() {
		for _, qd := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/qd%d", s, qd), func(t *testing.T) {
				var env *Env
				cfg := ScenarioConfig{}
				spec := fio.JobSpec{
					Name: "timeout-regression", Op: fio.RandRead,
					QueueDepth: qd, MaxIOs: 120, RangeBlocks: 1 << 16, Seed: 7,
				}
				var res *fio.Result
				err := RunWorkload(s, cfg, func(p *sim.Proc, e *Env) error {
					env = e
					var err error
					res, err = fio.Run(p, e.Queue, spec)
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Errors != 0 {
					t.Fatalf("%d errored I/Os", res.Errors)
				}
				if res.IOs != spec.MaxIOs {
					t.Fatalf("completed %d of %d I/Os", res.IOs, spec.MaxIOs)
				}
				if env.Client != nil {
					if env.Client.TimedOut != 0 {
						t.Fatalf("%d I/Os hit the timeout path", env.Client.TimedOut)
					}
					if n := env.Client.QuarantinedSlots(); n != 0 {
						t.Fatalf("%d bounce slots quarantined", n)
					}
				}
			})
		}
	}
}

// TestNVMeoFTargetPollerNoLostWakeup is the regression test for the
// NVMe-oF target poller's lost wakeup: after an empty CQ sweep the
// poller rang the CQ head doorbell (a yielding MMIO) and only then
// blocked on the completion signal, so a CQE landing during that
// doorbell set the signal with no waiter and the poller slept forever.
// These seeds of a 64 KiB QD4 write run (warm-up, then a measured job
// on the same target) hit that window.
func TestNVMeoFTargetPollerNoLostWakeup(t *testing.T) {
	for _, seed := range []int64{2, 88, 103, 105} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			job := fio.JobSpec{
				Name: "warmup", Op: fio.RandWrite, BlockSize: 64 << 10,
				QueueDepth: 4, MaxIOs: 1000, RangeBlocks: 1 << 16, Seed: seed ^ 0x5bd1e995,
			}
			var res *fio.Result
			err := RunWorkload(NVMeoFRemote, ScenarioConfig{NVMe: NVMeConfig{Seed: seed}},
				func(p *sim.Proc, env *Env) error {
					if _, err := fio.Run(p, env.Queue, job); err != nil {
						return err
					}
					job.Name, job.MaxIOs, job.Seed = "measured", 2000, seed
					var err error
					res, err = fio.Run(p, env.Queue, job)
					return err
				})
			if err != nil {
				t.Fatal(err)
			}
			if res == nil || res.IOs != job.MaxIOs {
				t.Fatalf("measured job did not complete: %+v", res)
			}
		})
	}
}

// TestDrainedIsError pins that a run which can never finish is an
// error, not a silent success: when every process blocks with nothing
// scheduled, the kernel drains and both RunWorkload (and RunJobStats
// built on it) and Rig.Run (and every scenario built on it) must report
// a *DrainedError naming the run.
func TestDrainedIsError(t *testing.T) {
	block := func(p *sim.Proc) { p.Wait(sim.NewEvent(p.Kernel())) } // never triggered
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{string(OursLocal), func() error {
			return RunWorkload(OursLocal, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
				block(p)
				return nil
			})
		}},
		{"rig", func() error {
			r, err := NewRig(RigConfig{Cluster: Config{Hosts: 2}, NVMe: []NVMeConfig{{}}})
			if err != nil {
				return err
			}
			return r.Run("rig", func(p *sim.Proc) error {
				if _, err := r.Manager(p, 0, core.ManagerParams{}); err != nil {
					return err
				}
				block(p)
				return nil
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.run()
			var de *DrainedError
			if !errors.As(err, &de) {
				t.Fatalf("blocked body returned %v, want *DrainedError", err)
			}
			if string(de.Scenario) != tc.name || de.AtNs <= 0 {
				t.Fatalf("DrainedError = %+v, want %s at a positive virtual time", de, tc.name)
			}
		})
	}
}
