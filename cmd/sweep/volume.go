package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// volumeSchemaVersion tags the -volume JSON report. Bump when the shape
// changes so downstream diffing notices.
const volumeSchemaVersion = 1

// volumeReport is the deterministic -volume artifact: config echo, the
// scenario result and the final metric snapshot. Virtual-time facts
// only — no wall-clock fields — so a fixed seed reproduces it byte for
// byte at any GOMAXPROCS.
type volumeReport struct {
	Schema     int                      `json:"schema_version"`
	Seed       int64                    `json:"seed"`
	Workers    int                      `json:"workers"`
	QueueDepth int                      `json:"queue_depth"`
	IOsPerWkr  int                      `json:"ios_per_worker"`
	Result     *cluster.VolumeRunResult `json:"result"`
	Metrics    []trace.MetricValue      `json:"metrics"`
}

// runVolume executes the nexus-volume path-death scenario — mirrored
// writes over two controllers, an NTB link outage killing one path
// mid-traffic, a reservation-preempt fence, and an end-to-end data
// integrity sweep — prints the failover transcript and writes the
// deterministic JSON report.
func runVolume(w io.Writer, seed int64, workers, qd, ios int, intervalNs int64, out string) error {
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: intervalNs})
	cfg := cluster.VolumeRunConfig{
		Workers: workers, QueueDepth: qd, IOsPerWorker: ios, Seed: seed,
		Registry: reg, Pipeline: pipe,
	}
	res, err := cluster.RunVolumeScenario(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "volume scenario: 2 controllers, %d writers, QD %d, %d IOs/writer/phase, seed %d\n",
		workers, qd, ios, seed)
	fmt.Fprintf(w, "phase 1 (mirrored): %d writes acked\n", res.Phase1Acked)
	fmt.Fprintf(w, "phase 2 (link down on device host A): %d writes acked, %d degraded\n",
		res.Phase2Acked, res.DegradedWrites)
	fmt.Fprintf(w, "fence: path A preempt-and-abort (resv gen %d, %d registrant(s), %d preempt)\n",
		res.ResvGen, res.ResvRegs, res.ResvPreempts)
	fmt.Fprintf(w, "paths: A %s, B %s\n", res.PathStates[0], res.PathStates[1])
	fmt.Fprintf(w, "stale writer: conflict=%v data-absent=%v (%d conflicts at controller A)\n",
		res.StaleWriteConflict, res.StaleDataAbsent, res.ResvConflicts)
	fmt.Fprintf(w, "integrity: %d blocks verified, %d lost, digest %#x\n",
		res.VerifiedBlocks, res.LostWrites, res.Digest)
	fmt.Fprintf(w, "controller A: fatal=%v, %d link retries ridden out; path A: %d timeouts, %d late CQEs, %d abandoned\n",
		res.CtrlAFatal, res.CtrlALinkRetries, res.PathATimeouts, res.PathALateCQEs, res.PathAAbandoned)
	fmt.Fprintf(w, "elapsed: %.2f virtual ms\n", float64(res.ElapsedNs)/1e6)
	if res.LostWrites > 0 || !res.StaleWriteConflict || !res.StaleDataAbsent {
		return fmt.Errorf("volume scenario failed acceptance: lost=%d conflict=%v absent=%v",
			res.LostWrites, res.StaleWriteConflict, res.StaleDataAbsent)
	}

	rep := volumeReport{
		Schema: volumeSchemaVersion, Seed: seed, Workers: workers,
		QueueDepth: qd, IOsPerWkr: ios, Result: res, Metrics: reg.Snapshot(),
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
