package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate golden trace files")

// TestTracingDoesNotPerturbTiming is the overhead-discipline contract:
// a traced run must produce identical virtual-time results to an
// untraced one, because instrumentation only reads the clock and never
// sleeps, yields or schedules. Each row runs one entry point untraced
// and traced, and the two results must be deeply equal.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	rows := []struct {
		name string
		run  func(tr *trace.Tracer) (any, error)
	}{
		{"ours-remote", func(tr *trace.Tracer) (any, error) {
			return RunJob(OursRemote, ScenarioConfig{Tracer: tr}, fio.JobSpec{
				Name: "perturb", Op: fio.RandRW, QueueDepth: 4,
				MaxIOs: 300, WarmupIOs: 10, RangeBlocks: 1 << 14, Seed: 99,
			})
		}},
		{"multihost-4", func(tr *trace.Tracer) (any, error) {
			return RunMultiHost(MultiHostConfig{
				Hosts: 4, QueueDepth: 4, IOsPerHost: 120,
				Seed: 31, Op: fio.RandRW, Tracer: tr,
			})
		}},
		{"qos-noisy-neighbor", func(tr *trace.Tracer) (any, error) {
			return RunQoSScenario(QoSRunConfig{
				Scenario: QoSNoisyNeighbor, QoS: true,
				DurationNs: 3 * sim.Millisecond, Tracer: tr,
			})
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			off, err := row.run(nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New()
			on, err := row.run(tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Spans()) == 0 {
				t.Fatal("the traced run recorded no spans")
			}
			if !reflect.DeepEqual(off, on) {
				t.Errorf("traced result differs from untraced:\n off: %+v\n  on: %+v", off, on)
			}
		})
	}
}

// TestBreakdownReconciles: on a real full-stack run, the client-stage
// partition sums exactly to end-to-end latency — the property that makes
// the breakdown table trustworthy.
func TestBreakdownReconciles(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			tr := trace.New()
			spec := fio.JobSpec{
				Name: "reconcile", Op: fio.RandRW, QueueDepth: 8,
				MaxIOs: 120, WarmupIOs: 0, RangeBlocks: 1 << 14, Seed: 5,
			}
			if _, err := RunJob(s, ScenarioConfig{Tracer: tr}, spec); err != nil {
				t.Fatal(err)
			}
			bd := trace.ComputeBreakdown(tr.Spans())
			if bd.Spans < 120 {
				t.Fatalf("only %d spans recorded", bd.Spans)
			}
			sum, e2e := bd.ReconcileNs()
			if sum != e2e {
				t.Errorf("stage sum %d ns != end-to-end %d ns", sum, e2e)
			}
			if e2e <= 0 {
				t.Errorf("end-to-end total %d ns", e2e)
			}
		})
	}
}

// TestGoldenTrace pins the exact bytes of a small fixed-seed trace
// export. Any change to span content, ordering or the serialisation
// format shows up as a diff here (regenerate with -update).
func TestGoldenTrace(t *testing.T) {
	tr := trace.New()
	spec := fio.JobSpec{
		Name: "golden", Op: fio.RandRW, QueueDepth: 2,
		MaxIOs: 6, WarmupIOs: 0, RangeBlocks: 1 << 10, Seed: 11,
	}
	if _, err := RunJob(OursRemote, ScenarioConfig{Tracer: tr}, spec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta := map[string]string{"scenario": string(OursRemote), "seed": "11"}
	if err := trace.WriteChrome(&buf, tr.Spans(), meta); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("golden trace fails validation: %v", err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden (%d vs %d bytes); run with -update and inspect the diff",
			buf.Len(), len(want))
	}
}

// TestCoalescingCounters asserts the effectiveness counters' defining
// property: QD1 has no bursts so nothing can be saved; QD8 must save
// both SQ doorbells and CQ rings.
func TestCoalescingCounters(t *testing.T) {
	run := func(qd int) (sqSaved, cqSaved uint64) {
		spec := fio.JobSpec{
			Name: "coalesce", Op: fio.RandRead, QueueDepth: qd,
			MaxIOs: 200, WarmupIOs: 0, RangeBlocks: 1 << 14, Seed: 3,
		}
		err := RunWorkload(OursRemote, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
			if _, err := fio.Run(p, env.Queue, spec); err != nil {
				return err
			}
			qv := env.Client.QueueView()
			sqSaved, cqSaved = qv.SQDoorbellsSaved, qv.CQRingsSaved
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sqSaved, cqSaved
	}
	if sq, cq := run(1); sq != 0 || cq != 0 {
		t.Errorf("QD1: saved counters must be zero, got sq=%d cq=%d", sq, cq)
	}
	if sq, cq := run(8); sq == 0 || cq == 0 {
		t.Errorf("QD8: expected nonzero savings, got sq=%d cq=%d", sq, cq)
	}
}
