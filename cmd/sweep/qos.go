package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/attr"
	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// qosSchemaVersion tags the -qos JSON report. v2: cpus_online is
// removed.
const qosSchemaVersion = 2

// qosPoint is one evaluated load level of the rate sweep.
type qosPoint struct {
	RateScalePct int     `json:"rate_scale_pct"`
	OfferedIOPS  float64 `json:"offered_iops"`
	SLOMet       bool    `json:"slo_met"`
	// Violations/Windows are the latency-sensitive class's SLO windows.
	Violations uint64 `json:"violations"`
	Windows    uint64 `json:"windows"`
	// P99Ns is the latency class's worst-tenant lifetime p99.
	P99Ns       float64 `json:"p99_ns"`
	ClientSheds uint64  `json:"client_sheds"`
}

// qosEntry is one (scenario, qos-mode) search outcome: the evaluated
// ladder and the max sustainable arrival rate before SLO violation.
type qosEntry struct {
	Scenario string `json:"scenario"`
	QoS      bool   `json:"qos"`
	// MaxSustainPct/IOPS describe the highest evaluated rate scale whose
	// latency class stayed within its violation budget (0 if none did).
	MaxSustainPct  int     `json:"max_sustainable_pct"`
	MaxSustainIOPS float64 `json:"max_sustainable_iops"`
	// ArrivalDigest is the arrival-stream digest at the max sustainable
	// point — the cross-GOMAXPROCS determinism witness.
	ArrivalDigest string     `json:"arrival_digest"`
	Points        []qosPoint `json:"points"`
}

// qosReport is the deterministic -qos artifact. Virtual-time facts only
// — no timestamps, no wall-clock, nothing about the machine — so a
// golden pins it byte for byte.
type qosReport struct {
	Schema     int        `json:"schema_version"`
	DurationNs int64      `json:"duration_ns"`
	QoS        []qosEntry `json:"qos"`
}

// qosLadder returns the rate-scale percentages to evaluate, ascending.
// The noisy-neighbor ladder brackets the interference knee (the
// baseline collapses near 100%); the homogeneous scenario needs a far
// higher range because nothing interferes until the device itself
// saturates around 800k IOPS.
func qosLadder(scenario string) []int {
	if scenario == cluster.QoSLatencySensitive {
		return []int{200, 400, 600, 800, 1000}
	}
	return []int{25, 50, 75, 100, 125, 150}
}

// qosSearch walks each scenario's ladder with and without the QoS stack,
// printing one line per evaluated level to w, and records the max
// sustainable rate. The walk stops at the first failing level: offered
// load only grows along the ladder, so once the latency class blows its
// budget, higher levels cannot recover it.
func qosSearch(w io.Writer) ([]qosEntry, error) {
	var entries []qosEntry
	for _, sc := range cluster.QoSScenarios() {
		for _, mode := range []bool{false, true} {
			e := qosEntry{Scenario: sc, QoS: mode}
			for _, pct := range qosLadder(sc) {
				res, err := cluster.RunQoSScenario(cluster.QoSRunConfig{
					Scenario: sc, QoS: mode, RateScale: float64(pct) / 100,
				})
				if err != nil {
					return nil, err
				}
				lat := res.Classes[0]
				e.Points = append(e.Points, qosPoint{
					RateScalePct: pct,
					OfferedIOPS:  res.OfferedIOPS,
					SLOMet:       res.SLOMet,
					Violations:   lat.Violations,
					Windows:      lat.Windows,
					P99Ns:        lat.P99Ns,
					ClientSheds:  res.ClientSheds,
				})
				fmt.Fprintf(w, "qos %-17s %-6s scale %4d%%  %7.0f IOPS offered  p99 %6.1fµs  viol %3d/%3d  shed %6d  %s\n",
					sc, qosModeName(mode), pct, res.OfferedIOPS,
					lat.P99Ns/1e3, lat.Violations, lat.Windows, res.ClientSheds,
					map[bool]string{true: "SLO met", false: "SLO VIOLATED"}[res.SLOMet])
				if !res.SLOMet {
					break
				}
				e.MaxSustainPct = pct
				e.MaxSustainIOPS = res.OfferedIOPS
				e.ArrivalDigest = res.ArrivalDigest
			}
			entries = append(entries, e)
		}
	}
	return entries, nil
}

func qosModeName(on bool) string {
	if on {
		return "qos"
	}
	return "no-qos"
}

// runQoS executes the max-sustainable-rate search, prints the summary
// table, writes the deterministic JSON report, and — with -trace — also
// writes a Chrome trace of one QoS run with qos.*/arrival.*/nvme.arb.*
// counter lanes next to the I/O spans.
func runQoS(w io.Writer, out, traceOut string) error {
	entries, err := qosSearch(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n%-18s %-7s %8s %14s\n", "scenario", "mode", "max_pct", "max_iops")
	for _, e := range entries {
		fmt.Fprintf(w, "%-18s %-7s %7d%% %14.0f\n",
			e.Scenario, qosModeName(e.QoS), e.MaxSustainPct, e.MaxSustainIOPS)
	}
	for _, sc := range cluster.QoSScenarios() {
		var base, qos *qosEntry
		for i := range entries {
			if entries[i].Scenario != sc {
				continue
			}
			if entries[i].QoS {
				qos = &entries[i]
			} else {
				base = &entries[i]
			}
		}
		if base != nil && qos != nil && qos.MaxSustainIOPS > base.MaxSustainIOPS {
			fmt.Fprintf(w, "%s: WRR+admission sustains %.0f IOPS vs %.0f without — %.1fx\n",
				sc, qos.MaxSustainIOPS, base.MaxSustainIOPS,
				qos.MaxSustainIOPS/base.MaxSustainIOPS)
		}
	}

	rep := qosReport{
		Schema:     qosSchemaVersion,
		DurationNs: 20_000_000,
		QoS:        entries,
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

	if traceOut != "" {
		return writeQoSTrace(w, traceOut)
	}
	return nil
}

// writeQoSTrace runs one short traced noisy-neighbor QoS run and writes
// the Chrome trace with span-derived occupancy tracks plus the sampled
// control-plane counter lanes, validated like -trace's file.
func writeQoSTrace(w io.Writer, path string) error {
	tr := trace.New()
	reg := trace.NewRegistry()
	pipe := telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 100_000})
	res, err := cluster.RunQoSScenario(cluster.QoSRunConfig{
		Scenario: cluster.QoSNoisyNeighbor, QoS: true,
		DurationNs: 5_000_000,
		Tracer:     tr, Registry: reg, Pipeline: pipe,
	})
	if err != nil {
		return err
	}
	spans := tr.Spans()
	tracks := attr.CounterTracks(spans)
	// The control-plane lanes land on their own synthetic pid, clear of
	// the per-queue span processes.
	tracks = append(tracks, pipe.CounterLanes(1000, "qos.", "arrival.", "nvme.arb.")...)
	meta := map[string]string{
		"scenario": res.Scenario,
		"qos":      "wrr+admission",
		"digest":   res.ArrivalDigest,
	}
	if _, err := writeChrome(path, spans, meta, tracks); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d spans, %d counter tracks)\n", path, len(spans), len(tracks))
	return nil
}
