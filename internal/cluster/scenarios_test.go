package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/sim"
)

// runScenario executes one 4 kB QD1 job (the paper's workload shape) and
// returns min latency in ns for the requested op.
func runScenario(t *testing.T, s Scenario, op fio.Op, ios int) (minNs, medNs float64) {
	t.Helper()
	res, err := RunJob(s, ScenarioConfig{}, fio.JobSpec{
		Name: string(s), Op: op, MaxIOs: ios, WarmupIOs: 20,
		RangeBlocks: 1 << 16, Seed: 7,
	})
	if err != nil {
		t.Fatalf("%s %s: %v", s, op, err)
	}
	lat := res.ReadLat
	if op == fio.RandWrite {
		lat = res.WriteLat
	}
	if lat.Count() != ios {
		t.Fatalf("%s %s: %d samples, want %d", s, op, lat.Count(), ios)
	}
	if res.Errors != 0 {
		t.Fatalf("%s %s: %d errors", s, op, res.Errors)
	}
	return lat.Min(), lat.Median()
}

// TestFig10Read reproduces the shape of Figure 10 (read): the minimum-
// latency deltas the paper reports in §VI. "The difference in minimum
// read latency is 7.7 us for NVMe-oF vs. local, while it is around 1 us
// for our implementation."
func TestFig10Read(t *testing.T) {
	const ios = 500
	linux, _ := runScenario(t, LinuxLocal, fio.RandRead, ios)
	fabrics, _ := runScenario(t, NVMeoFRemote, fio.RandRead, ios)
	oursL, _ := runScenario(t, OursLocal, fio.RandRead, ios)
	oursR, _ := runScenario(t, OursRemote, fio.RandRead, ios)

	nvmeofDelta := (fabrics - linux) / 1000
	oursDelta := (oursR - oursL) / 1000
	t.Logf("read: nvmeof-vs-local=%.2fus (paper 7.7), ours remote-vs-local=%.2fus (paper ~1)",
		nvmeofDelta, oursDelta)
	if nvmeofDelta < 6.9 || nvmeofDelta > 8.5 {
		t.Errorf("NVMe-oF read delta %.2f us outside [6.9, 8.5] (paper: 7.7)", nvmeofDelta)
	}
	if oursDelta < 0.6 || oursDelta > 1.6 {
		t.Errorf("ours read delta %.2f us outside [0.6, 1.6] (paper: ~1)", oursDelta)
	}
	// Our driver is naive: higher local baseline than the stock driver.
	if oursL <= linux {
		t.Errorf("ours-local (%.2f) not above stock local (%.2f)", oursL/1000, linux/1000)
	}
	// But remote through PCIe still beats NVMe-oF by a wide margin.
	if oursR >= fabrics {
		t.Errorf("ours-remote (%.2f) not below NVMe-oF (%.2f)", oursR/1000, fabrics/1000)
	}
}

// TestFig10Write reproduces the shape of Figure 10 (write): "for write,
// the difference in the minimum latency is 7.5 us for NVMe-oF vs. local
// and around 2 us for our implementation."
func TestFig10Write(t *testing.T) {
	const ios = 500
	linux, _ := runScenario(t, LinuxLocal, fio.RandWrite, ios)
	fabrics, _ := runScenario(t, NVMeoFRemote, fio.RandWrite, ios)
	oursL, _ := runScenario(t, OursLocal, fio.RandWrite, ios)
	oursR, _ := runScenario(t, OursRemote, fio.RandWrite, ios)

	nvmeofDelta := (fabrics - linux) / 1000
	oursDelta := (oursR - oursL) / 1000
	t.Logf("write: nvmeof-vs-local=%.2fus (paper 7.5), ours remote-vs-local=%.2fus (paper ~2)",
		nvmeofDelta, oursDelta)
	if nvmeofDelta < 6.7 || nvmeofDelta > 8.3 {
		t.Errorf("NVMe-oF write delta %.2f us outside [6.7, 8.3] (paper: 7.5)", nvmeofDelta)
	}
	if oursDelta < 1.4 || oursDelta > 3.0 {
		t.Errorf("ours write delta %.2f us outside [1.4, 3.0] (paper: ~2)", oursDelta)
	}
	// Write deltas exceed read deltas for our driver: the controller's
	// bounce-buffer fetch is a non-posted read across the NTB.
	oursReadL, _ := runScenario(t, OursLocal, fio.RandRead, ios)
	oursReadR, _ := runScenario(t, OursRemote, fio.RandRead, ios)
	if (oursR - oursL) <= (oursReadR - oursReadL) {
		t.Error("write delta not above read delta; posted/non-posted asymmetry lost")
	}
}

// TestScenarioDataIntegrity pushes a prefilled random-read job through
// every scenario and demands zero errors — the full stack moves real
// bytes in every configuration.
func TestScenarioDataIntegrity(t *testing.T) {
	for _, s := range Scenarios() {
		res, err := RunJob(s, ScenarioConfig{}, fio.JobSpec{
			Name: string(s), Op: fio.RandRW, MaxIOs: 200,
			RangeBlocks: 1 << 12, Seed: 3, Prefill: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.Errors != 0 {
			t.Errorf("%s: %d errors", s, res.Errors)
		}
		if res.IOs != 200 {
			t.Errorf("%s: %d ios", s, res.IOs)
		}
	}
}

// TestQD32ReachesController checks that nothing between fio and the
// driver caps the requests in flight: each of a QD32 job's 32 processes
// runs its own request, so the three PCIe scenarios hold 32 commands in
// the controller at once. On nvmeof-remote some of the 32 are always in
// the fabric or the target's software, so fewer reach the controller
// together, but more than 16, the cap a pool of 16 block workers set.
func TestQD32ReachesController(t *testing.T) {
	for _, s := range Scenarios() {
		t.Run(string(s), func(t *testing.T) {
			var peak int64
			err := RunWorkload(s, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
				_, err := fio.Run(p, env.Queue, fio.JobSpec{
					Name: string(s), Op: fio.RandRead, QueueDepth: 32, MaxIOs: 2000, Seed: 7,
				})
				peak = env.Ctrl.BusyOcc.MaxLevel()
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d commands in the controller at most", peak)
			if s == NVMeoFRemote {
				if peak <= 16 {
					t.Errorf("%d commands in the controller at most, want more than 16", peak)
				}
			} else if peak != 32 {
				t.Errorf("%d commands in the controller at most, want 32", peak)
			}
		})
	}
}

// TestE4ThirtyOneHostSharing reproduces the §VI claim: "The P4800X ...
// supports up to 32 queue pairs (where one pair is reserved for the admin
// queues), and we have confirmed that it can be shared by up to 31 hosts
// simultaneously."
func TestE4ThirtyOneHostSharing(t *testing.T) {
	const hosts = 32 // host 0 runs the manager; hosts 1..31 are clients
	r, err := NewRig(RigConfig{Cluster: Config{Hosts: hosts}, NVMe: []NVMeConfig{{}}})
	if err != nil {
		t.Fatal(err)
	}
	okCount := 0
	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}
		done := make([]*sim.Event, 0, hosts-1)
		for i := 1; i < hosts; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go("client", func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				cl, err := core.NewClient(cp, "cl", r.Svc, r.Hosts[host].Node, mgr,
					core.ClientParams{QueueDepth: 8, PartitionBytes: 8192})
				if err != nil {
					t.Errorf("client %d: %v", host, err)
					return
				}
				pat := make([]byte, 4096)
				for j := range pat {
					pat[j] = byte(host)
				}
				lba := uint64(host) * 1000
				if err := cl.WriteBlocks(cp, lba, 8, pat); err != nil {
					t.Errorf("client %d write: %v", host, err)
					return
				}
				got := make([]byte, 4096)
				if err := cl.ReadBlocks(cp, lba, 8, got); err != nil {
					t.Errorf("client %d read: %v", host, err)
					return
				}
				for j := range got {
					if got[j] != byte(host) {
						t.Errorf("client %d data corrupted", host)
						return
					}
				}
				okCount++
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
		// A 32nd client must be refused: no queue pairs left.
		if _, err := core.NewClient(p, "cl32", r.Svc, r.Hosts[1].Node, mgr,
			core.ClientParams{QueueDepth: 8, PartitionBytes: 8192}); err == nil {
			t.Error("32nd simultaneous client admitted; device has only 31 I/O queue pairs")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if okCount != 31 {
		t.Fatalf("%d/31 clients completed verified I/O", okCount)
	}
	if ctrl := r.Ctrls[0]; ctrl.Stats.ReadCmds != 31 || ctrl.Stats.WriteCmds != 31 {
		t.Fatalf("controller stats %+v", ctrl.Stats)
	}
}

// TestE6SwitchHopCost reproduces the §VI claim that "each PCIe switch
// chip in the path adds between 100 and 150 ns delay (in one direction)
// for each PCIe transaction".
func TestE6SwitchHopCost(t *testing.T) {
	// Direct fabric measurement: read latency across k extra switch
	// chips grows by 2 * PerSwitchNs per chip (both directions).
	base := measureHops(t, 0)
	for _, k := range []int{1, 2, 4} {
		lat := measureHops(t, k)
		perChipOneWay := float64(lat-base) / float64(2*k)
		if perChipOneWay < 100 || perChipOneWay > 150 {
			t.Errorf("%d chips: %.0f ns per chip per direction, outside the paper's 100-150", k, perChipOneWay)
		}
	}
}

func measureHops(t *testing.T, extra int) int64 {
	t.Helper()
	c, err := New(Config{Hosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := c.AttachNVMe(0, NVMeConfig{ExtraSwitches: extra})
	if err != nil {
		t.Fatal(err)
	}
	lat, err := c.Hosts[0].Dom.ReadLatency(ctrl.Node(), DRAMBase, 64)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}
