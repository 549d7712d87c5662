package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/nvme"
)

// TestExtensionsThroughFullStack runs the fio workload through the
// ours-remote scenario with every future-work extension enabled at once —
// interrupts, IOMMU zero-copy and SQ-in-CMB — confirming they compose
// under the block layer and a mixed workload.
func TestExtensionsThroughFullStack(t *testing.T) {
	res, err := RunJob(OursRemote, ScenarioConfig{
		NVMe: NVMeConfig{Ctrl: nvme.Params{CMBBytes: 16 << 10}},
		Client: core.ClientParams{
			UseInterrupts: true,
			ZeroCopy:      true,
			Placement:     core.SQCMB,
		},
		Manager: core.ManagerParams{EnableIOMMU: true},
	}, fio.JobSpec{
		Name: "ext", Op: fio.RandRW, QueueDepth: 4,
		MaxIOs: 300, RangeBlocks: 1 << 14, Seed: 5, Prefill: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors with extensions enabled", res.Errors)
	}
	if res.IOs != 300 {
		t.Fatalf("%d ios", res.IOs)
	}
}

// TestTailWhiskerShape: Figure 10's whiskers (min..p99) sit clearly below
// occasional tail events (max), reproducing the boxplot geometry the
// Optane's tight-but-tailed distribution produces.
func TestTailWhiskerShape(t *testing.T) {
	res, err := RunJob(LinuxLocal, ScenarioConfig{}, fio.JobSpec{
		Name: "tail", Op: fio.RandRead, MaxIOs: 3000, RangeBlocks: 1 << 16, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := res.ReadLat.Box()
	if !(b.Min < b.Median && b.Median < b.P99 && b.P99 < b.Max) {
		t.Fatalf("degenerate distribution: %+v", b)
	}
	// The box is tight (Optane consistency): IQR well under 1 us...
	if b.Q3-b.Q1 > 1000 {
		t.Errorf("IQR %.0f ns too wide for an Optane-class medium", b.Q3-b.Q1)
	}
	// ...while tail events reach microseconds beyond the box.
	if b.Max-b.P99 < 500 {
		t.Errorf("no visible tail: max-p99 = %.0f ns", b.Max-b.P99)
	}
}
