package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// faultSchemaVersion tags the -faults JSON report. Bump when the shape
// changes so downstream diffing notices: a field removed, renamed or
// given a new meaning. An omitempty field that a run at the default flags
// never writes, such as crash_after_budget, leaves those reports byte for
// byte as they were and is ignored by a reader of the older shape, so it
// keeps the version.
const faultSchemaVersion = 1

// faultReport is the deterministic -faults artifact: scenario echo,
// per-host outcomes, the reclamation log, the armed fault plan and the
// final metric snapshot. It holds virtual-time state only — no
// wall-clock fields — so a fixed seed reproduces it byte for byte.
type faultReport struct {
	Schema     int                     `json:"schema_version"`
	Seed       int64                   `json:"seed"`
	Hosts      int                     `json:"hosts"`
	QueueDepth int                     `json:"queue_depth"`
	IOsPerHost int                     `json:"ios_per_host"`
	Result     *cluster.FaultRunResult `json:"result"`
	Metrics    []trace.MetricValue     `json:"metrics"`
}

// runFaults executes the fault/recovery scenario — one host crash, a
// manager restart and seed-derived fabric noise — with the telemetry
// pipeline attached, prints a recovery transcript and writes the
// deterministic JSON report.
func runFaults(w io.Writer, seed int64, hosts, qd, ios int, intervalNs int64, out string) error {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: intervalNs})
	cfg := cluster.FaultRunConfig{
		Hosts: hosts, QueueDepth: qd, IOsPerHost: ios, Seed: seed,
		ManagerRestart: 50 * sim.Microsecond, ManagerRestartAtNs: 150 * sim.Microsecond,
		Noise: fault.PlanSpec{
			StartNs: 50 * sim.Microsecond, EndNs: 900 * sim.Microsecond,
			LinkStalls: 2, StallExtraNs: 2 * sim.Microsecond, StallNs: 20 * sim.Microsecond,
			DoorbellDrops: 2, CQEDrops: 2,
		},
		Registry: reg, Pipeline: pipe,
	}
	res, err := cluster.RunFaultScenario(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fault scenario: %d client hosts, QD %d, %d IOs/host, seed %d\n",
		hosts, qd, ios, seed)
	fmt.Fprintf(w, "injected: %d crash, %d restart, %d stalls, %d doorbell drops, %d cqe drops (%d skipped)\n",
		res.Fault.HostCrashes, res.Fault.ManagerRestarts, res.Fault.LinkStalls,
		res.Fault.DoorbellDrops, res.Fault.CQEDrops, res.Fault.Skipped)
	for _, ev := range res.Reclaims {
		fmt.Fprintf(w, "host %d crashed: lease expired, manager reclaimed qid %d at t=%.0fµs in %.2fµs\n",
			ev.Host, ev.QID, float64(ev.DetectedNs)/1e3, float64(ev.DurationNs)/1e3)
	}
	if res.CrashAfterBudget {
		fmt.Fprintf(w, "the crash landed after the crashed host's last IO: it had finished all %d, so no IO was interrupted\n", ios)
	}
	if res.ReuseOK {
		fmt.Fprintf(w, "reclaimed qid %d re-granted to probe client and verified with a live read\n", res.ReusedQID)
	}
	fmt.Fprintf(w, "\n%-5s %6s %6s %6s %8s %7s %7s %6s %8s\n",
		"host", "qid", "ios", "errs", "timeouts", "retries", "aborts", "late", "crashed")
	for _, h := range res.PerHost {
		fmt.Fprintf(w, "%-5d %6d %6d %6d %8d %7d %7d %6d %8v\n",
			h.Host, h.QID, h.IOs, h.Errors, h.Timeouts, h.Retries, h.Aborts,
			h.LateCompletions, h.Crashed)
	}
	fmt.Fprintf(w, "\nsurvivor fairness (Jain): %s before crash, %s after\n",
		jain(res.JainBefore), jain(res.JainAfter))
	fmt.Fprintf(w, "elapsed: %.2f virtual ms, %d heartbeats, %d manager restarts\n",
		float64(res.ElapsedNs)/1e6, res.Heartbeats, res.Restarts)

	rep := faultReport{
		Schema: faultSchemaVersion, Seed: seed, Hosts: hosts,
		QueueDepth: qd, IOsPerHost: ios, Result: res, Metrics: reg.Snapshot(),
	}
	data, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", out)
	return nil
}

// jain formats a Jain index, or n/a for the 0 of a window that holds no
// completion: an index over at least one completion is positive.
func jain(v float64) string {
	if v == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.4f", v)
}
