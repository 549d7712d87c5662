package cluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestFaultScenarioCrashRecovery is the subsystem's acceptance test:
// crash 1 of 4 client hosts mid-run and require that the manager
// reclaims the dead host's queue pair, the freed QID is re-granted to a
// probe client that completes a real I/O, every survivor finishes its
// full budget with zero timeouts, and the fault/recovery counters
// surface in both the Prometheus text and the telemetry JSON dump.
func TestFaultScenarioCrashRecovery(t *testing.T) {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 25_000})
	cfg := FaultRunConfig{Seed: 7, Registry: reg, Pipeline: pipe}
	res, err := RunFaultScenario(cfg)
	if err != nil {
		t.Fatalf("RunFaultScenario: %v", err)
	}
	cfg = cfg.withDefaults()

	if res.Fault.HostCrashes != 1 {
		t.Fatalf("host crashes = %d, want 1", res.Fault.HostCrashes)
	}
	if len(res.Reclaims) != 1 {
		t.Fatalf("reclaim events = %d, want 1: %+v", len(res.Reclaims), res.Reclaims)
	}
	ev := res.Reclaims[0]
	if int(ev.Host) != faultCrashHost {
		t.Errorf("reclaimed host = %d, want %d", ev.Host, faultCrashHost)
	}
	if ev.Err != "" {
		t.Errorf("reclaim error: %s", ev.Err)
	}
	if !res.ReuseOK {
		t.Errorf("reclaimed QID %d not reusable", res.ReusedQID)
	}
	for _, h := range res.PerHost {
		if h.Host == faultCrashHost {
			if !h.Crashed {
				t.Errorf("host %d should have crashed", h.Host)
			}
			if h.IOs >= cfg.IOsPerHost {
				t.Errorf("crashed host %d completed full budget (%d)", h.Host, h.IOs)
			}
			continue
		}
		if h.Crashed {
			t.Errorf("survivor host %d marked crashed", h.Host)
		}
		if h.IOs != cfg.IOsPerHost {
			t.Errorf("survivor host %d completed %d/%d IOs (errors=%d, err=%q)",
				h.Host, h.IOs, cfg.IOsPerHost, h.Errors, h.Err)
		}
		if h.Timeouts != 0 {
			t.Errorf("survivor host %d saw %d timeouts, want 0", h.Host, h.Timeouts)
		}
	}
	if res.CrashAfterBudget {
		t.Error("the crash host is reported to have finished its budget before the crash")
	}
	if res.Heartbeats == 0 {
		t.Error("manager saw no heartbeats")
	}
	if res.JainAfter < 0.9 {
		t.Errorf("post-crash survivor fairness = %.3f, want >= 0.9", res.JainAfter)
	}

	var prom bytes.Buffer
	pipe.WriteProm(&prom)
	for _, want := range []string{"fault_host_crashes", "core_manager_reclaims",
		"core_manager_reclaim_latency", "core_client_retries"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus text missing %s", want)
		}
	}
	dump, err := json.Marshal(pipe.Snapshot())
	if err != nil {
		t.Fatalf("telemetry snapshot: %v", err)
	}
	for _, want := range []string{"fault.host_crashes", "core.manager.reclaims"} {
		if !strings.Contains(string(dump), want) {
			t.Errorf("telemetry dump missing %s", want)
		}
	}
	snap := reg.Snapshot()
	found := false
	for _, mv := range snap {
		if mv.Name == "fault.host_crashes" && mv.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Error("registry snapshot missing fault.host_crashes=1")
	}
}

// TestFaultScenarioCrashAfterBudget: at 40 IOs per host every host
// finishes before the crash, 500 µs after client start. The crash is
// still detected and its queue reclaimed, but the result must say that it
// interrupted no IO, and the after-crash window, which holds no
// completion, has no Jain index (0).
func TestFaultScenarioCrashAfterBudget(t *testing.T) {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 25_000})
	res, err := RunFaultScenario(FaultRunConfig{IOsPerHost: 40, Seed: 7, Registry: reg, Pipeline: pipe})
	if err != nil {
		t.Fatalf("RunFaultScenario: %v", err)
	}
	if len(res.Reclaims) != 1 || !res.ReuseOK {
		t.Fatalf("reclaims %+v, reuse ok %v: want one reclaim and a reused QID", res.Reclaims, res.ReuseOK)
	}
	if h := res.PerHost[faultCrashHost-1]; h.Crashed || h.IOs != 40 {
		t.Fatalf("crash host did %d IOs, crashed %v: want all 40 before the crash", h.IOs, h.Crashed)
	}
	if !res.CrashAfterBudget {
		t.Error("CrashAfterBudget is false for a crash after the crash host's last IO")
	}
	if res.JainAfter != 0 {
		t.Errorf("after-crash Jain index = %.4f over a window with no completion, want 0", res.JainAfter)
	}
}
