package cluster

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/fio"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The cross-core determinism contract: every artifact the repo treats as
// golden — fault transcripts, Chrome traces, telemetry dumps — must come
// out byte-identical no matter how many OS threads the Go runtime uses.
// Every scenario runs on a single kernel that hands control between
// process goroutines one at a time; pinning the artifacts at GOMAXPROCS
// 1 vs 8 makes a regression in that handoff's determinism fail loudly.

// atProcs runs fn under the given GOMAXPROCS and restores the ambient
// value afterwards.
func atProcs(procs int, fn func() []byte) []byte {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return fn()
}

// faultTranscript runs the crash-1-of-4 fault scenario with noise and a
// manager restart and returns its full JSON transcript.
func faultTranscript(t *testing.T) []byte {
	t.Helper()
	res, err := RunFaultScenario(FaultRunConfig{
		Hosts: 4, IOsPerHost: 120, Seed: 11,
		ManagerRestart: 40_000, ManagerRestartAtNs: 900_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestCrossCoreFaultTranscript(t *testing.T) {
	one := atProcs(1, func() []byte { return faultTranscript(t) })
	eight := atProcs(8, func() []byte { return faultTranscript(t) })
	if !bytes.Equal(one, eight) {
		t.Fatalf("fault transcript differs between GOMAXPROCS 1 and 8:\n1: %s\n8: %s", one, eight)
	}
}

// tracedClusterBytes returns the two golden artifacts of the traced
// cluster scenarios concatenated: the Chrome trace file of a traced
// ours-remote run, and the telemetry JSON dump of the 4-host multihost
// fairness run.
func tracedClusterBytes(t *testing.T) []byte {
	t.Helper()
	tr := trace.New()
	_, st, err := RunJobStats(OursRemote, ScenarioConfig{Tracer: tr}, fio.JobSpec{
		Name: "crosscore", Op: fio.RandRead, QueueDepth: 4,
		MaxIOs: 80, RangeBlocks: 1 << 14, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events == 0 {
		t.Fatal("traced run did no work")
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, tr.Spans(), map[string]string{"scenario": "crosscore"}); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 100_000})
	res, err := RunMultiHost(MultiHostConfig{
		Hosts: 4, QueueDepth: 4, IOsPerHost: 80, Seed: 7, Op: fio.RandRW,
		Registry: reg, Pipeline: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIOs == 0 {
		t.Fatal("multihost run did no work")
	}
	tel, err := pipe.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(tel)
	return buf.Bytes()
}

func TestCrossCoreTraceAndTelemetry(t *testing.T) {
	one := atProcs(1, func() []byte { return tracedClusterBytes(t) })
	eight := atProcs(8, func() []byte { return tracedClusterBytes(t) })
	if !bytes.Equal(one, eight) {
		t.Fatalf("trace+telemetry bytes differ between GOMAXPROCS 1 and 8 (%d vs %d bytes)", len(one), len(eight))
	}
}
