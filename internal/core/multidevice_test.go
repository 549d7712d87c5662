package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestTwoDevicesTwoManagers: the SmartIO registry is cluster-wide; two
// single-function NVMe devices on different hosts are shared through two
// independent managers, and one client host attaches to both.
func TestTwoDevicesTwoManagers(t *testing.T) {
	// Device A on host 0; device B on host 1 (same BAR address: separate
	// domains).
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: 3, AdapterWindows: 256},
		NVMe:    []cluster.NVMeConfig{{Seed: 1}, {Seed: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Svc.Devices()) != 2 {
		t.Fatalf("registry has %d devices", len(r.Svc.Devices()))
	}
	err = r.Run("main", func(p *sim.Proc) error {
		mgrA, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return fmt.Errorf("manager A: %w", err)
		}
		mgrB, err := r.Manager(p, 1, core.ManagerParams{})
		if err != nil {
			return fmt.Errorf("manager B: %w", err)
		}
		// Host 2 attaches to both devices at once.
		clA, err := core.NewClient(p, "dA", r.Svc, r.Hosts[2].Node, mgrA, core.ClientParams{})
		if err != nil {
			return fmt.Errorf("client A: %w", err)
		}
		clB, err := core.NewClient(p, "dB", r.Svc, r.Hosts[2].Node, mgrB, core.ClientParams{})
		if err != nil {
			return fmt.Errorf("client B: %w", err)
		}
		// Same LBA, different devices, different data: no cross-talk.
		patA := bytes.Repeat([]byte{0xAA}, 4096)
		patB := bytes.Repeat([]byte{0xBB}, 4096)
		if err := clA.WriteBlocks(p, 10, 8, patA); err != nil {
			return fmt.Errorf("write A: %w", err)
		}
		if err := clB.WriteBlocks(p, 10, 8, patB); err != nil {
			return fmt.Errorf("write B: %w", err)
		}
		got := make([]byte, 4096)
		if err := clA.ReadBlocks(p, 10, 8, got); err != nil || !bytes.Equal(got, patA) {
			t.Errorf("device A cross-talk (err=%v)", err)
		}
		if err := clB.ReadBlocks(p, 10, 8, got); err != nil || !bytes.Equal(got, patB) {
			t.Errorf("device B cross-talk (err=%v)", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestClientChurnLeaksNothing attaches and closes clients repeatedly and
// asserts the device host's adapter LUT returns to its baseline — window
// leaks would exhaust the 32-entry LUT of real hardware within seconds.
func TestClientChurnLeaksNothing(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	deviceAdapter := r.c.Hosts[0].Adapter
	clientAdapter := r.c.Hosts[1].Adapter
	var baseDev, baseCli int
	r.start(t, func(p *sim.Proc) {
		// Baseline after manager setup.
		baseDev = deviceAdapter.Windows()
		baseCli = clientAdapter.Windows()
		for i := 0; i < 20; i++ {
			cl, err := core.NewClient(p, "churn", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
			if err != nil {
				t.Errorf("attach %d: %v", i, err)
				return
			}
			buf := make([]byte, 4096)
			if err := cl.ReadBlocks(p, 0, 8, buf); err != nil {
				t.Errorf("io %d: %v", i, err)
				return
			}
			if err := cl.Close(p); err != nil {
				t.Errorf("close %d: %v", i, err)
				return
			}
		}
		if got := deviceAdapter.Windows(); got != baseDev {
			t.Errorf("device-host adapter leaked windows: %d -> %d", baseDev, got)
		}
		if got := clientAdapter.Windows(); got != baseCli {
			t.Errorf("client adapter leaked windows: %d -> %d", baseCli, got)
		}
	})
	if r.mgr.GrantedQueues != 0 {
		t.Fatalf("queue pairs leaked: %d", r.mgr.GrantedQueues)
	}
}
