package cluster

import (
	"testing"

	"repro/internal/nvme"
	"repro/internal/trace"
)

// TestVolumeScenarioPathDeath is the acceptance run for the nexus
// volume: one path dies mid-traffic (NTB link outage on the device
// host), the nexus fences it through a reservation preempt, I/O
// continues on the survivor, a stale write is refused with Reservation
// Conflict and never lands, and every acknowledged write byte-verifies.
func TestVolumeScenarioPathDeath(t *testing.T) {
	reg := trace.NewRegistry()
	res, err := RunVolumeScenario(VolumeRunConfig{Seed: 7, Registry: reg})
	if err != nil {
		t.Fatalf("RunVolumeScenario: %v", err)
	}

	// The path died and exactly one fence ran; the survivor carried on.
	if res.Fences != 1 {
		t.Errorf("Fences = %d, want 1", res.Fences)
	}
	if res.PathStates[0] != "inaccessible" {
		t.Errorf("path A state %q, want inaccessible", res.PathStates[0])
	}
	if res.PathStates[1] == "inaccessible" {
		t.Errorf("survivor path B ended inaccessible")
	}
	if res.MirroredWrites == 0 {
		t.Error("no mirrored writes before the outage")
	}
	if res.DegradedWrites == 0 {
		t.Error("no degraded writes: the outage never bit")
	}

	// Zero lost writes: every acknowledged write read back exactly.
	if res.LostWrites != 0 {
		t.Errorf("LostWrites = %d, want 0", res.LostWrites)
	}
	if res.VerifiedBlocks == 0 {
		t.Error("verification sweep covered nothing")
	}
	if res.Phase2Acked == 0 {
		t.Error("phase 2 acknowledged nothing: no I/O continued through the outage")
	}

	// The stale writer was fenced: conflict status, data never landed.
	if !res.StaleWriteConflict {
		t.Error("stale write did not return Reservation Conflict")
	}
	if !res.StaleDataAbsent {
		t.Error("stale write's data reached the medium")
	}
	if res.ResvConflicts == 0 {
		t.Error("controller A counted no reservation conflicts")
	}
	if res.ResvPreempts != 1 {
		t.Errorf("ResvPreempts = %d, want 1", res.ResvPreempts)
	}
	if res.ResvRType != nvme.ResvWriteExclusive {
		t.Errorf("reservation type %d, want Write Exclusive", res.ResvRType)
	}

	// The outage was ridden out, not fatal: both controllers alive, the
	// fenced client's quarantined slots drained (nothing abandoned).
	if res.CtrlAFatal || res.CtrlBFatal {
		t.Errorf("controller fatal: A=%v B=%v", res.CtrlAFatal, res.CtrlBFatal)
	}
	if res.PathAAbandoned != 0 {
		t.Errorf("path A abandoned %d slots, want 0", res.PathAAbandoned)
	}

	// The nexus metrics are visible through the registry.
	snap := reg.Snapshot()
	found := false
	for _, m := range snap {
		if m.Name == "volume.nexus.fences" {
			found = true
			if m.Value != 1 {
				t.Errorf("volume.nexus.fences gauge = %v, want 1", m.Value)
			}
		}
	}
	if !found {
		t.Error("volume.nexus.fences not in registry snapshot")
	}
}
