package main

import (
	"strings"
	"testing"
)

// benchFixture builds a small but fully-populated report: two runs, two
// QoS entries, and the top-level host-environment fields.
func benchFixture() *benchReport {
	return &benchReport{
		SchemaVersion: benchSchemaVersion,
		GeneratedUnix: 1_700_000_000,
		CPUsOnline:    8,
		Runs: []benchRun{
			{Scenario: "ours-remote", Op: "read", QueueDepth: 4, IOs: 400,
				Events: 120_000, VirtualNs: 9_000_000},
			{Scenario: "nvmeof", Op: "read", QueueDepth: 4, IOs: 400,
				Events: 150_000, VirtualNs: 14_000_000},
		},
		QoS: []qosEntry{
			{Scenario: "noisy-neighbor", QoS: false,
				MaxSustainPct: 50, MaxSustainIOPS: 270_000, ArrivalDigest: "aaaa"},
			{Scenario: "noisy-neighbor", QoS: true,
				MaxSustainPct: 100, MaxSustainIOPS: 540_000, ArrivalDigest: "bbbb"},
		},
	}
}

// TestBenchcmpIgnoresWallClock pins the flake-proofing contract: two
// reports generated at different wall times on different machines — both
// host-environment fields differ, every virtual-time fact identical —
// must compare clean. A timestamp or core-count delta failing CI would
// make the gate flaky by construction.
func TestBenchcmpIgnoresWallClock(t *testing.T) {
	oldRep := benchFixture()
	newRep := benchFixture()
	// Everything a different machine at a different time would change.
	newRep.GeneratedUnix = 1_800_000_000 // report generated later
	newRep.CPUsOnline = 2                // smaller machine

	regressions, _ := compareBench(oldRep, newRep, "new.json", 0.05)
	if len(regressions) != 0 {
		t.Fatalf("host-environment-only differences flagged as regressions:\n%s",
			strings.Join(regressions, "\n"))
	}
}

// TestBenchcmpGatesVirtualTime is the counter-pin: the same comparison
// DOES fail when a virtual-time fact drifts beyond tolerance.
func TestBenchcmpGatesVirtualTime(t *testing.T) {
	oldRep := benchFixture()
	newRep := benchFixture()
	newRep.Runs[0].VirtualNs += newRep.Runs[0].VirtualNs / 2 // +50%

	regressions, _ := compareBench(oldRep, newRep, "new.json", 0.05)
	if len(regressions) != 1 {
		t.Fatalf("virtual_ns drift produced %d regressions, want 1: %v",
			len(regressions), regressions)
	}
	if !strings.Contains(regressions[0], "virtual_ns") {
		t.Errorf("regression does not name virtual_ns: %s", regressions[0])
	}
}

// TestBenchcmpMissingRun: a run present in the baseline but absent from
// the new report is a regression (coverage shrank); new-only runs are
// fine (schemas grow).
func TestBenchcmpMissingRun(t *testing.T) {
	oldRep := benchFixture()
	newRep := benchFixture()
	newRep.Runs = newRep.Runs[:1]

	regressions, _ := compareBench(oldRep, newRep, "new.json", 0.05)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "missing") {
		t.Fatalf("dropped run not flagged: %v", regressions)
	}

	// The mirror image: extra runs on the new side are not regressions.
	regressions, _ = compareBench(newRep, oldRep, "old.json", 0.05)
	if len(regressions) != 0 {
		t.Fatalf("new-only run flagged: %v", regressions)
	}
}

// TestBenchcmpGatesQoS: a drop in max sustainable rate is a regression;
// an increase is only informational.
func TestBenchcmpGatesQoS(t *testing.T) {
	oldRep := benchFixture()
	newRep := benchFixture()
	newRep.QoS[1].MaxSustainPct = 75
	newRep.QoS[1].MaxSustainIOPS = 405_000

	regressions, _ := compareBench(oldRep, newRep, "new.json", 0.05)
	if len(regressions) != 2 {
		t.Fatalf("qos capacity drop produced %d regressions, want 2 (pct + iops): %v",
			len(regressions), regressions)
	}
	for _, r := range regressions {
		if !strings.Contains(r, "qos noisy-neighbor mode=qos") {
			t.Errorf("regression does not name the qos entry: %s", r)
		}
	}

	// Improvement direction: more sustainable load must not fail the gate.
	regressions, infos := compareBench(newRep, oldRep, "old.json", 0.05)
	hasImproved := false
	for _, m := range infos {
		if strings.Contains(m, "improved") {
			hasImproved = true
		}
	}
	// The iops drift still flags symmetrically — capacity change in either
	// direction beyond tolerance deserves a fresh committed baseline — but
	// the pct direction is one-sided.
	for _, r := range regressions {
		if strings.Contains(r, "max_sustainable_pct") {
			t.Errorf("pct increase flagged as regression: %s", r)
		}
	}
	if !hasImproved {
		t.Error("pct increase not reported as improvement")
	}
}
