package cluster

import (
	"testing"

	"repro/internal/attr"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestMultiHostBlameReconcilesExactly is the attribution acceptance
// contract on the paper's 4-host sharing scenario: for EVERY traced IO
// the per-resource blamed nanoseconds must partition the end-to-end
// latency with zero residual, and the aggregate must reconcile too.
func TestMultiHostBlameReconcilesExactly(t *testing.T) {
	tr := trace.New()
	res, err := RunMultiHost(MultiHostConfig{
		Hosts: 4, QueueDepth: 4, IOsPerHost: 150,
		Seed: 7, Op: fio.RandRW, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) < 4*150 {
		t.Fatalf("only %d spans traced, want >= %d", len(spans), 4*150)
	}
	bs, err := attr.Fold(spans)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Spans != len(spans) {
		t.Errorf("blame set counted %d spans, want %d", bs.Spans, len(spans))
	}
	var blamed int64
	for _, row := range bs.Rows() {
		blamed += row.TotalNs()
	}
	if blamed != bs.EndToEndNs {
		t.Errorf("blamed total %d ns != end-to-end %d ns", blamed, bs.EndToEndNs)
	}
	if bs.EndToEndNs <= 0 {
		t.Errorf("end-to-end total %d ns", bs.EndToEndNs)
	}

	// The measured utilizations feed the report; the shared controller
	// must show nonzero busy fraction on a 600-IO run, and the ranked
	// report must carry every blamed resource exactly once.
	if res.Utils[attr.ResNVMeCtrl] <= 0 {
		t.Errorf("controller utilization %v, want > 0", res.Utils[attr.ResNVMeCtrl])
	}
	rep := attr.BuildReport("multihost-4", bs, res.Utils)
	if len(rep.Rows) == 0 {
		t.Fatal("report has no rows")
	}
	seen := map[string]bool{}
	for _, r := range rep.Rows {
		if seen[r.Resource] {
			t.Errorf("resource %q appears twice in report", r.Resource)
		}
		seen[r.Resource] = true
	}
	if top := rep.Top(); top == "" {
		t.Error("report has no top bottleneck")
	} else if rep.Rows[0].BlamedNsIO <= 0 {
		t.Errorf("top bottleneck %q has blamed %v ns/IO, want > 0", top, rep.Rows[0].BlamedNsIO)
	}

	// Counter tracks derive from the same spans: one inflight track per
	// queue pair (4 client hosts -> 4 I/O queues) plus the controller
	// aggregate, every track draining back to level 0.
	tracks := attr.CounterTracks(spans)
	if len(tracks) != 5 {
		t.Fatalf("got %d counter tracks, want 5 (4 queues + controller)", len(tracks))
	}
	for _, trk := range tracks {
		if len(trk.Points) == 0 {
			t.Errorf("track %s pid=%d has no points", trk.Name, trk.PID)
			continue
		}
		if last := trk.Points[len(trk.Points)-1]; last.Value != 0 {
			t.Errorf("track %s pid=%d ends at level %v, want 0", trk.Name, trk.PID, last.Value)
		}
	}
}

// TestOccLittleLawOnLiveQueues asserts the L = λW identity with zero
// tolerance on occupancy instruments fed by a real full-stack run: once
// the workload drains, every queue's level integral equals its summed
// residence time exactly.
func TestOccLittleLawOnLiveQueues(t *testing.T) {
	spec := fio.JobSpec{
		Name: "little", Op: fio.RandRW, QueueDepth: 8,
		MaxIOs: 250, WarmupIOs: 0, RangeBlocks: 1 << 14, Seed: 21,
	}
	err := RunWorkload(OursRemote, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
		if _, err := fio.Run(p, env.Queue, spec); err != nil {
			return err
		}
		for _, qid := range env.Ctrl.ActiveIOQueues() {
			qs := env.Ctrl.QueueStats(qid)
			for _, occ := range []struct {
				name string
				o    attr.Occ
			}{{"SQ", qs.SQOcc}, {"CQ", qs.CQOcc}} {
				integral, residence, balanced := occ.o.LittleCheck()
				if !balanced {
					t.Errorf("qid %d %s: unbalanced (level %d, %d arrivals, %d departures)",
						qid, occ.name, occ.o.Level(), occ.o.Arrivals, occ.o.Departures)
				}
				if integral != residence {
					t.Errorf("qid %d %s: ∫L dt = %d ns != ΣW = %d ns", qid, occ.name, integral, residence)
				}
			}
			if qs.CQOcc.Arrivals == 0 {
				t.Errorf("qid %d CQ saw no arrivals", qid)
			}
		}
		integral, residence, balanced := env.Ctrl.BusyOcc.LittleCheck()
		if !balanced || integral != residence {
			t.Errorf("ctrl busy: balanced=%v ∫L dt=%d ΣW=%d", balanced, integral, residence)
		}
		if env.Ctrl.BusyOcc.Arrivals == 0 {
			t.Error("controller executed no commands?")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
