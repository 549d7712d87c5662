// Command experiments runs the complete evaluation-reproduction suite
// (E1–E13, see EXPERIMENTS.md) and prints a paper-vs-measured table.
// This is the one-shot artifact regeneration entry point. It exits 1 if
// any row mismatches.
//
// Usage:
//
//	experiments [-ios N] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/nvme"
	"repro/internal/sim"
)

var ios = flag.Int("ios", 1000, "measured I/Os per scenario run")

func main() {
	quick := flag.Bool("quick", false, "reduce sample counts for a fast pass")
	flag.Parse()
	if *quick {
		*ios = 200
	}

	fmt.Println("Reproduction suite: Multi-Host Sharing of a Single-Function NVMe Device (SC 2024)")
	fmt.Println()
	fmt.Printf("%-44s %-18s %-18s %s\n", "experiment", "paper", "measured", "verdict")
	mismatch := false
	line := func(name, paper, measured string, ok bool) {
		verdict := "OK"
		if !ok {
			verdict = "MISMATCH"
			mismatch = true
		}
		fmt.Printf("%-44s %-18s %-18s %s\n", name, paper, measured, verdict)
	}

	// E1-E3: Fig. 10 minimum-latency deltas.
	mins := map[string]float64{}
	for _, s := range cluster.Scenarios() {
		for _, op := range []fio.Op{fio.RandRead, fio.RandWrite} {
			mins[string(s)+"/"+op.String()] = minLatency(s, op)
		}
	}
	d := func(op string, a, b cluster.Scenario) float64 {
		return (mins[string(b)+"/"+op] - mins[string(a)+"/"+op]) / 1000
	}
	rd := d("randread", cluster.LinuxLocal, cluster.NVMeoFRemote)
	line("E1/E3 read: NVMe-oF vs local min latency", "7.7 us", fmt.Sprintf("%.2f us", rd), rd > 6.9 && rd < 8.5)
	ro := d("randread", cluster.OursLocal, cluster.OursRemote)
	line("E1/E3 read: ours remote vs local", "~1 us", fmt.Sprintf("%.2f us", ro), ro > 0.6 && ro < 1.6)
	wd := d("randwrite", cluster.LinuxLocal, cluster.NVMeoFRemote)
	line("E2/E3 write: NVMe-oF vs local min latency", "7.5 us", fmt.Sprintf("%.2f us", wd), wd > 6.7 && wd < 8.3)
	wo := d("randwrite", cluster.OursLocal, cluster.OursRemote)
	line("E2/E3 write: ours remote vs local", "~2 us", fmt.Sprintf("%.2f us", wo), wo > 1.4 && wo < 3.0)

	// E4: 31-host sharing.
	n, refused := thirtyOneHosts()
	line("E4 simultaneous hosts on one controller", "31", fmt.Sprintf("%d (32nd refused: %v)", n, refused), n == 31 && refused)

	// E5: Fig. 8 queue placement.
	devSide := placementLatency(core.SQDeviceSide)
	cliLocal := placementLatency(core.SQClientLocal)
	line("E5 Fig.8: device-side SQ saves", "fetch RT", fmt.Sprintf("%.2f us/cmd", (cliLocal-devSide)/1000), devSide < cliLocal)

	// E6: per-switch-chip cost.
	per := hopCost()
	line("E6 per switch chip per direction", "100-150 ns", fmt.Sprintf("%.0f ns", per), per >= 100 && per <= 150)

	// E8: bounce vs dynamic remap.
	bounce := modeLatency(core.ClientParams{})
	remap := modeLatency(core.ClientParams{RemapPerIO: true})
	line("E8 dynamic NTB remap penalty vs bounce", "infeasible (§V)", fmt.Sprintf("+%.1f us/IO", (remap-bounce)/1000), remap > bounce+10_000)

	// E11: bandwidth parity at QD32.
	localBW := qd32IOPS(cluster.LinuxLocal)
	fabricBW := qd32IOPS(cluster.NVMeoFRemote)
	oursBW := qd32IOPS(cluster.OursRemote)
	parity := fabricBW > 0.9*localBW && oursBW > 0.9*localBW
	line("E11 QD32 bandwidth parity (local/nvmeof/ours)", "comparable",
		fmt.Sprintf("%.0fk/%.0fk/%.0fk IOPS", localBW/1000, fabricBW/1000, oursBW/1000), parity)

	// E12: zero-copy crossover.
	b4, z4 := zeroCopyPair(4096)
	b128, z128 := zeroCopyPair(128 << 10)
	line("E12 IOMMU zero-copy at 4 KiB", "bounce wins", fmt.Sprintf("%.2f vs %.2f us", b4/1000, z4/1000), b4 < z4)
	line("E12 IOMMU zero-copy at 128 KiB", "zero-copy wins", fmt.Sprintf("%.2f vs %.2f us", b128/1000, z128/1000), z128 < b128)

	fmt.Println()
	fmt.Println("E7 (component breakdown): run `fiobench -breakdown`.")
	fmt.Println("E9/E10 (QD and host scaling), E13 (target offload): run `go test -bench . -benchmem .`")
	if mismatch {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

func minLatency(s cluster.Scenario, op fio.Op) float64 {
	res, err := cluster.RunJob(s, cluster.ScenarioConfig{}, fio.JobSpec{
		Name: string(s), Op: op, MaxIOs: *ios, WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
	})
	if err != nil {
		fatal(err)
	}
	if op == fio.RandWrite {
		return res.WriteLat.Min()
	}
	return res.ReadLat.Min()
}

func placementLatency(pl core.SQPlacement) float64 {
	res, err := cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{
		Client: core.ClientParams{Placement: pl},
		NVMe:   cluster.NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
	}, fio.JobSpec{Name: "pl", Op: fio.RandRead, MaxIOs: 100, WarmupIOs: 10, RangeBlocks: 1 << 16, Seed: 7})
	if err != nil {
		fatal(err)
	}
	return res.ReadLat.Median()
}

func modeLatency(params core.ClientParams) float64 {
	res, err := cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{
		Client: params,
		NVMe:   cluster.NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
	}, fio.JobSpec{Name: "mode", Op: fio.RandWrite, MaxIOs: 100, WarmupIOs: 10, RangeBlocks: 1 << 16, Seed: 7})
	if err != nil {
		fatal(err)
	}
	return res.WriteLat.Median()
}

func qd32IOPS(s cluster.Scenario) float64 {
	res, err := cluster.RunJob(s, cluster.ScenarioConfig{}, fio.JobSpec{
		Name: string(s), Op: fio.RandRead, QueueDepth: 32,
		MaxIOs: 2 * *ios, WarmupIOs: 50, RangeBlocks: 1 << 18, Seed: 7,
	})
	if err != nil {
		fatal(err)
	}
	return res.IOPS()
}

func zeroCopyPair(n int) (bounce, zerocopy float64) {
	for _, zc := range []bool{false, true} {
		res, err := cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{
			Client:  core.ClientParams{ZeroCopy: zc, PartitionBytes: 256 << 10},
			Manager: core.ManagerParams{EnableIOMMU: zc},
			NVMe:    cluster.NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
		}, fio.JobSpec{Name: "zc", Op: fio.RandWrite, BlockSize: n,
			MaxIOs: 50, WarmupIOs: 5, RangeBlocks: 1 << 18, Seed: 7})
		if err != nil {
			fatal(err)
		}
		if zc {
			zerocopy = res.WriteLat.Median()
		} else {
			bounce = res.WriteLat.Median()
		}
	}
	return
}

func thirtyOneHosts() (int, bool) {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: 32, MemBytes: 8 << 20},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	if err != nil {
		fatal(err)
	}
	ok := 0
	refused := false
	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}
		done := make([]*sim.Event, 0, 31)
		for i := 1; i < 32; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go("client", func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				cl, err := core.NewClient(cp, "cl", r.Svc, r.Hosts[host].Node, mgr,
					core.ClientParams{QueueDepth: 8, PartitionBytes: 8192})
				if err != nil {
					return
				}
				buf := make([]byte, 4096)
				if cl.WriteBlocks(cp, uint64(host*1000), 8, buf) == nil &&
					cl.ReadBlocks(cp, uint64(host*1000), 8, buf) == nil {
					ok++
				}
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
		if _, err := core.NewClient(p, "extra", r.Svc, r.Hosts[1].Node, mgr,
			core.ClientParams{QueueDepth: 8, PartitionBytes: 8192}); err != nil {
			refused = true
		}
		return nil
	})
	if err != nil {
		fatal(err)
	}
	return ok, refused
}

func hopCost() float64 {
	lat := func(extra int) int64 {
		c, err := cluster.New(cluster.Config{Hosts: 1})
		if err != nil {
			fatal(err)
		}
		ctrl, err := c.AttachNVMe(0, cluster.NVMeConfig{ExtraSwitches: extra})
		if err != nil {
			fatal(err)
		}
		l, err := c.Hosts[0].Dom.ReadLatency(ctrl.Node(), cluster.DRAMBase, 64)
		if err != nil {
			fatal(err)
		}
		return l
	}
	return float64(lat(4)-lat(0)) / 8 // 4 chips x 2 directions
}
