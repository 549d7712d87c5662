// Command experiments runs the evaluation-reproduction suite (E1–E14,
// see EXPERIMENTS.md) and prints a paper-vs-measured table: one verdict
// row per number EXPERIMENTS.md cites, with the latency summaries,
// component costs and curves behind a row indented below it. This is the
// one command per experiment; it exits 1 if any row mismatches.
//
// Usage:
//
//	experiments [-ios N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/nvme"
	"repro/internal/nvmeof"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/stats"
)

// flat de-jitters the medium so ablation medians differ only by the
// mechanism under test.
var flat = nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}

// errUsage marks a bad command line, on which main exits 2 as flag does.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// failure carries a simulation error from a helper up to run, which
// recovers it and returns it.
type failure struct{ err error }

// check aborts the suite with err, if any.
func check(err error) {
	if err != nil {
		panic(failure{err})
	}
}

// run parses args, prints the paper-vs-measured table to stdout and
// returns an error if any row mismatches or a run fails.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	ios := fs.Int("ios", 1000, "measured I/Os per scenario run")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 before Parse returns
	if *ios < 1 {
		return fmt.Errorf("%w: -ios must be at least 1 (got %d)", errUsage, *ios)
	}
	defer func() {
		switch r := recover().(type) {
		case nil:
		case failure:
			err = r.err
		default:
			panic(r)
		}
	}()

	mismatches := 0
	// row prints one paper-vs-measured verdict line.
	row := func(name, paper, measured string, ok bool) {
		verdict := "OK"
		if !ok {
			verdict = "MISMATCH"
			mismatches++
		}
		fmt.Fprintf(stdout, "%-44s %-18s %-18s %s\n", name, paper, measured, verdict)
	}
	// detail prints one indented line of the data behind the row above it.
	detail := func(format string, args ...any) {
		fmt.Fprintf(stdout, "    "+format+"\n", args...)
	}

	fmt.Fprintln(stdout, "Reproduction suite: Multi-Host Sharing of a Single-Function NVMe Device (SC 2024)")
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-44s %-18s %-18s %s\n", "experiment", "paper", "measured", "verdict")

	// E1-E3: Fig. 10 latency boxplots and the minimum-latency deltas.
	ops := []fio.Op{fio.RandRead, fio.RandWrite}
	boxes := map[fio.Op]map[cluster.Scenario]stats.Boxplot{}
	for i, op := range ops {
		boxes[op] = map[cluster.Scenario]stats.Boxplot{}
		for _, s := range cluster.Scenarios() {
			boxes[op][s] = fig10(s, op, *ios)
		}
		b := boxes[op]
		order := []cluster.Scenario{cluster.LinuxLocal, cluster.OursLocal, cluster.OursRemote, cluster.NVMeoFRemote}
		ordered := true
		for j := 1; j < len(order); j++ {
			lo, hi := b[order[j-1]], b[order[j]]
			ordered = ordered && lo.Min < hi.Min && lo.Median < hi.Median
		}
		row(fmt.Sprintf("E%d Fig.10 %s: latency ordering", i+1, op), "local<ours<NVMe-oF",
			fmt.Sprintf("%.2f<%.2f<%.2f<%.2f us", b[order[0]].Min/1000, b[order[1]].Min/1000,
				b[order[2]].Min/1000, b[order[3]].Min/1000), ordered)
		for _, s := range cluster.Scenarios() {
			detail("%-14s %s", s, b[s])
		}
	}
	d := func(op fio.Op, a, b cluster.Scenario) float64 {
		return (boxes[op][b].Min - boxes[op][a].Min) / 1000
	}
	rd := d(fio.RandRead, cluster.LinuxLocal, cluster.NVMeoFRemote)
	row("E1/E3 read: NVMe-oF vs local min latency", "7.7 us", fmt.Sprintf("%.2f us", rd), rd > 6.9 && rd < 8.5)
	ro := d(fio.RandRead, cluster.OursLocal, cluster.OursRemote)
	row("E1/E3 read: ours remote vs local", "~1 us", fmt.Sprintf("%.2f us", ro), ro > 0.6 && ro < 1.6)
	wd := d(fio.RandWrite, cluster.LinuxLocal, cluster.NVMeoFRemote)
	row("E2/E3 write: NVMe-oF vs local min latency", "7.5 us", fmt.Sprintf("%.2f us", wd), wd > 6.7 && wd < 8.3)
	wo := d(fio.RandWrite, cluster.OursLocal, cluster.OursRemote)
	row("E2/E3 write: ours remote vs local", "~2 us", fmt.Sprintf("%.2f us", wo), wo > 1.4 && wo < 3.0)

	// E4: 31-host sharing.
	n, refused := thirtyOneHosts()
	row("E4 simultaneous hosts on one controller", "31", fmt.Sprintf("%d (32nd refused: %v)", n, refused), n == 31 && refused)

	// E5: Fig. 8 queue placement, plus the controller memory buffer.
	devSide := placementLatency(core.SQDeviceSide)
	cliLocal := placementLatency(core.SQClientLocal)
	cmb := placementLatency(core.SQCMB)
	row("E5 Fig.8: device-side SQ saves", "fetch RT",
		fmt.Sprintf("%.2f us (%.2f vs %.2f)", (cliLocal-devSide)/1000, devSide/1000, cliLocal/1000), devSide < cliLocal)
	row("E5 CMB SQ saves a further (beyond paper)", "-",
		fmt.Sprintf("%.2f us (%.2f)", (devSide-cmb)/1000, cmb/1000), cmb < devSide)

	// E6: per-switch-chip cost, directly and on QD1 read latency.
	per := hopCost()
	row("E6 per switch chip per direction", "100-150 ns", fmt.Sprintf("%.0f ns", per), per >= 100 && per <= 150)
	hops := []int{0, 1, 2, 4}
	hopLat := make([]float64, len(hops))
	perChipOK := true
	for i, k := range hops {
		hopLat[i] = hopLatency(k)
		if k > 0 {
			// A QD1 read crosses each chip four times on its critical
			// path: doorbell, SQE fetch request and completion, and the
			// posted data/CQE writes.
			perChip := (hopLat[i] - hopLat[0]) / float64(k)
			perChipOK = perChipOK && perChip >= 4*100 && perChip <= 4*150
		}
	}
	last := len(hops) - 1
	row("E6 QD1 read latency per extra chip", "4 x 100-150 ns",
		fmt.Sprintf("+%.0f ns", (hopLat[last]-hopLat[0])/float64(hops[last])), perChipOK)
	for i, k := range hops {
		detail("%d extra chips  median %.2f us", k, hopLat[i]/1000)
	}

	// E7: NVMe-oF critical-path components and our measured phases.
	msg := rdma.TxNs + rdma.WireNs + rdma.RxNs
	ser := 4096 / rdma.BytesPerNs
	sum := float64(nvmeof.InitiatorSubmitNs+2*msg+nvmeof.TargetPollNs+nvmeof.TargetCapsuleProcNs+
		nvmeof.TargetSubmitNs+nvmeof.TargetCplProcNs+nvmeof.InitiatorIRQEntryNs+nvmeof.InitiatorCompleteNs) + ser
	row("E7 NVMe-oF sw + NIC costs per 4 KiB read", "Fig.3: sw in path",
		fmt.Sprintf("%.2f of %.2f us", sum/1000, rd), sum/1000 <= rd && sum/1000 >= 0.75*rd)
	detail("initiator submit sw        %5d ns", nvmeof.InitiatorSubmitNs)
	detail("NIC tx + wire + NIC rx     %5d ns per message (one way, x2)", msg)
	detail("target poll pickup         %5d ns", nvmeof.TargetPollNs)
	detail("target capsule processing  %5d ns (+%d ns for in-capsule data)", nvmeof.TargetCapsuleProcNs, nvmeof.TargetDataCapsuleNs)
	detail("target NVMe submit (SPDK)  %5d ns", nvmeof.TargetSubmitNs)
	detail("target completion path     %5d ns", nvmeof.TargetCplProcNs)
	detail("initiator IRQ + complete   %5d ns", nvmeof.InitiatorIRQEntryNs+nvmeof.InitiatorCompleteNs)
	detail("4 KiB serialization        %5.0f ns at %.1f B/ns", ser, rdma.BytesPerNs)
	rdPh, wrPh := phaseMeans(fio.RandRead), phaseMeans(fio.RandWrite)
	swSame := rdPh[0] == wrPh[0] && rdPh[1] == wrPh[1] && rdPh[3] == wrPh[3]
	row("E7 ours-remote write vs read phases", "non-posted fetch",
		fmt.Sprintf("device +%.2f us", (wrPh[2]-rdPh[2])/1000), swSame && wrPh[2] > rdPh[2])
	detail("%-22s %9s %9s", "mean ns per I/O", "read", "write")
	for i, name := range []string{"driver submit sw", "bounce copy", "device (incl. fabric)", "completion sw"} {
		detail("%-22s %9.0f %9.0f", name, rdPh[i], wrPh[i])
	}

	// E8: bounce vs dynamic remap.
	bounce := modeLatency(core.ClientParams{})
	remap := modeLatency(core.ClientParams{RemapPerIO: true})
	row("E8 dynamic NTB remap penalty vs bounce", "infeasible (§V)",
		fmt.Sprintf("%.2f vs %.2f us", bounce/1000, remap/1000), remap > bounce+10_000)

	// E9: queue-depth scaling on ours-remote.
	qds := []int{1, 2, 4, 8, 16, 32}
	qdIOPS := map[int]float64{}
	qdMed := map[int]float64{}
	for _, qd := range qds {
		qdIOPS[qd], qdMed[qd] = qdRun(qd, *ios)
	}
	row("E9 ours-remote QD1->8 IOPS", "beyond paper",
		fmt.Sprintf("%.1fk->%.1fk", qdIOPS[1]/1000, qdIOPS[8]/1000),
		qdIOPS[8] >= 7*qdIOPS[1] && qdMed[8] <= 1.01*qdMed[1])
	row("E9 ours-remote QD16->32 saturation", "beyond paper",
		fmt.Sprintf("%.1fk->%.1fk", qdIOPS[16]/1000, qdIOPS[32]/1000), within(qdIOPS[32], qdIOPS[16], 0.02))
	for _, qd := range qds {
		detail("qd=%-2d  %7.1fk IOPS  median %6.2f us", qd, qdIOPS[qd]/1000, qdMed[qd]/1000)
	}

	// E10: multi-host aggregate scaling.
	hostCounts := []int{1, 2, 4, 8, 16, 31}
	agg := map[int]float64{}
	for _, k := range hostCounts {
		agg[k] = multiHostIOPS(k)
	}
	row("E10 aggregate IOPS, 1->8 hosts", "31 hosts share",
		fmt.Sprintf("%.1fk->%.1fk", agg[1]/1000, agg[8]/1000), agg[8] >= 7*agg[1])
	row("E10 aggregate IOPS, 16->31 hosts", "31 hosts share",
		fmt.Sprintf("%.1fk->%.1fk", agg[16]/1000, agg[31]/1000), within(agg[31], agg[16], 0.05))
	for _, k := range hostCounts {
		detail("hosts=%-2d  %7.1fk IOPS", k, agg[k]/1000)
	}

	// E11: bandwidth parity at QD32.
	localBW := qd32IOPS(cluster.LinuxLocal, *ios)
	fabricBW := qd32IOPS(cluster.NVMeoFRemote, *ios)
	oursBW := qd32IOPS(cluster.OursRemote, *ios)
	parity := fabricBW > 0.9*localBW && oursBW > 0.9*localBW
	row("E11 QD32 bandwidth parity (local/nvmeof/ours)", "comparable",
		fmt.Sprintf("%.0fk/%.0fk/%.0fk IOPS", localBW/1000, fabricBW/1000, oursBW/1000), parity)

	// E12: zero-copy crossover.
	for _, kb := range []int{4, 16, 64, 128} {
		b, z := zeroCopyLatency(kb<<10, false), zeroCopyLatency(kb<<10, true)
		want, ok := "bounce wins", b < z
		if kb >= 64 {
			want, ok = "zero-copy wins", z < b
		}
		row(fmt.Sprintf("E12 IOMMU zero-copy at %d KiB", kb), want,
			fmt.Sprintf("%.2f vs %.2f us", b/1000, z/1000), ok)
	}

	// E13: target offload moves the target's work off the host CPU
	// without changing latency.
	plainLat, plainBusy := offloadRun(false)
	offLat, offBusy := offloadRun(true)
	row("E13 target offload: mean read latency", "unchanged (§VI)",
		fmt.Sprintf("%.2f vs %.2f us", plainLat/1000, offLat/1000), plainLat == offLat)
	row("E13 target offload: target CPU per IO", "reduced (§VI)",
		fmt.Sprintf("%.0f -> %.0f ns", plainBusy, offBusy), plainBusy > 0 && offBusy == 0)

	// E14: four tenants share the device on each technology.
	oursMed, oursIOPS := oursTenants(4, 120)
	fabMed, fabIOPS := fabricsTenants(4, 120)
	row("E14 4 tenants: per-host median, ours/NVMe-oF", "beyond paper",
		fmt.Sprintf("%.2f vs %.2f us", oursMed/1000, fabMed/1000), fabMed-oursMed >= 3000)
	row("E14 4 tenants: aggregate IOPS, ours/NVMe-oF", "beyond paper",
		fmt.Sprintf("%.1fk vs %.1fk IOPS", oursIOPS/1000, fabIOPS/1000), oursIOPS >= 0.8*fabIOPS)

	if mismatches > 0 {
		return fmt.Errorf("%d rows mismatch", mismatches)
	}
	return nil
}

// within reports whether v is within frac of ref.
func within(v, ref, frac float64) bool {
	return v >= (1-frac)*ref && v <= (1+frac)*ref
}

// job executes one fio job on scenario s.
func job(s cluster.Scenario, cfg cluster.ScenarioConfig, spec fio.JobSpec) *fio.Result {
	res, err := cluster.RunJob(s, cfg, spec)
	check(err)
	return res
}

func fig10(s cluster.Scenario, op fio.Op, ios int) stats.Boxplot {
	res := job(s, cluster.ScenarioConfig{}, fio.JobSpec{
		Name: string(s), Op: op, MaxIOs: ios, WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
	})
	if op == fio.RandWrite {
		return res.WriteLat.Box()
	}
	return res.ReadLat.Box()
}

func placementLatency(pl core.SQPlacement) float64 {
	return job(cluster.OursRemote, cluster.ScenarioConfig{
		Client: core.ClientParams{Placement: pl},
		NVMe:   cluster.NVMeConfig{Ctrl: nvme.Params{CMBBytes: 16 << 10}, Flash: flat},
	}, fio.JobSpec{Name: "pl", Op: fio.RandRead, MaxIOs: 100, WarmupIOs: 10, RangeBlocks: 1 << 16, Seed: 7},
	).ReadLat.Median()
}

func hopLatency(chips int) float64 {
	return job(cluster.LinuxLocal, cluster.ScenarioConfig{
		NVMe: cluster.NVMeConfig{ExtraSwitches: chips, Flash: flat},
	}, fio.JobSpec{Name: "hops", Op: fio.RandRead, MaxIOs: 200, WarmupIOs: 10, RangeBlocks: 1 << 16, Seed: 7},
	).ReadLat.Median()
}

// phaseMeans runs ours-remote and returns the client's mean submit,
// bounce-copy, device and completion time per I/O.
func phaseMeans(op fio.Op) [4]float64 {
	var phases core.PhaseStats
	err := cluster.RunWorkload(cluster.OursRemote, cluster.ScenarioConfig{},
		func(p *sim.Proc, env *cluster.Env) error {
			_, err := fio.Run(p, env.Queue, fio.JobSpec{
				Name: "phases", Op: op, MaxIOs: 300, RangeBlocks: 1 << 16, Seed: 7,
			})
			phases = env.Client.Phases
			return err
		})
	check(err)
	submit, move, device, complete := phases.Mean()
	return [4]float64{submit, move, device, complete}
}

func modeLatency(params core.ClientParams) float64 {
	return job(cluster.OursRemote, cluster.ScenarioConfig{
		Client: params,
		NVMe:   cluster.NVMeConfig{Flash: flat},
	}, fio.JobSpec{Name: "mode", Op: fio.RandWrite, MaxIOs: 100, WarmupIOs: 10, RangeBlocks: 1 << 16, Seed: 7},
	).WriteLat.Median()
}

func qdRun(qd, ios int) (iops, median float64) {
	res := job(cluster.OursRemote, cluster.ScenarioConfig{}, fio.JobSpec{
		Name: "qd", Op: fio.RandRead, QueueDepth: qd,
		MaxIOs: ios, WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
	})
	return res.IOPS(), res.ReadLat.Median()
}

func multiHostIOPS(hosts int) float64 {
	res, err := cluster.RunMultiHost(cluster.MultiHostConfig{
		Hosts: hosts, QueueDepth: 1, IOsPerHost: 100, Seed: 7, Op: fio.RandRead,
		Client: core.ClientParams{QueueDepth: 8, PartitionBytes: 8192},
	})
	check(err)
	return res.AggIOPS()
}

func qd32IOPS(s cluster.Scenario, ios int) float64 {
	return job(s, cluster.ScenarioConfig{}, fio.JobSpec{
		Name: string(s), Op: fio.RandRead, QueueDepth: 32,
		MaxIOs: 2 * ios, WarmupIOs: 50, RangeBlocks: 1 << 18, Seed: 7,
	}).IOPS()
}

// zeroCopyLatency is the median write latency of n-byte writes through
// the bounce buffer or, with zc, through per-request IOMMU mappings.
func zeroCopyLatency(n int, zc bool) float64 {
	return job(cluster.OursRemote, cluster.ScenarioConfig{
		Client:  core.ClientParams{ZeroCopy: zc, PartitionBytes: 256 << 10},
		Manager: core.ManagerParams{EnableIOMMU: zc},
		NVMe:    cluster.NVMeConfig{Flash: flat},
	}, fio.JobSpec{Name: "zc", Op: fio.RandWrite, BlockSize: n,
		MaxIOs: 50, WarmupIOs: 5, RangeBlocks: 1 << 18, Seed: 7},
	).WriteLat.Median()
}

func thirtyOneHosts() (int, bool) {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: 32},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	check(err)
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
				cl, err := r.Client(cp, host, mgr, "cl",
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
		if _, err := r.Client(p, 1, mgr, "extra",
			core.ClientParams{QueueDepth: 8, PartitionBytes: 8192}); err != nil {
			refused = true
		}
		return nil
	})
	check(err)
	return ok, refused
}

func hopCost() float64 {
	lat := func(extra int) int64 {
		c, err := cluster.New(cluster.Config{Hosts: 1})
		check(err)
		ctrl, err := c.AttachNVMe(0, cluster.NVMeConfig{ExtraSwitches: extra})
		check(err)
		l, err := c.Hosts[0].Dom.ReadLatency(ctrl.Node(), cluster.DRAMBase, 64)
		check(err)
		return l
	}
	return float64(lat(4)-lat(0)) / 8 // 4 chips x 2 directions
}

// offloadRun runs QD1 nvmeof-remote reads on the flat medium with the
// target's offload off or on. It returns the mean read latency and the
// target software's host-CPU time per IO.
func offloadRun(offload bool) (meanNs, busyNsPerIO float64) {
	var res *fio.Result
	var busy int64
	check(cluster.RunWorkload(cluster.NVMeoFRemote, cluster.ScenarioConfig{
		NVMe:   cluster.NVMeConfig{Flash: flat},
		Target: nvmeof.TargetParams{Offload: offload},
	}, func(p *sim.Proc, env *cluster.Env) error {
		var err error
		res, err = fio.Run(p, env.Queue, fio.JobSpec{
			Name: "offload", Op: fio.RandRead, MaxIOs: 200, RangeBlocks: 1 << 16, Seed: 7,
		})
		busy = env.Target.CPUBusyNs
		return err
	}))
	return res.ReadLat.Mean(), float64(busy) / float64(res.IOs)
}

// oursTenants shares the controller among k distributed-driver clients,
// one per host, each running QD2 random reads on the flat medium. It
// returns the mean of the per-host median latencies and the aggregate
// IOPS.
func oursTenants(k, ios int) (medianNs, iops float64) {
	mh, err := cluster.RunMultiHost(cluster.MultiHostConfig{
		Hosts: k, QueueDepth: 2, IOsPerHost: ios, Op: fio.RandRead,
		NVMe:   cluster.NVMeConfig{Flash: flat},
		Client: core.ClientParams{QueueDepth: 8, PartitionBytes: 8192},
	})
	check(err)
	var res []*fio.Result
	for _, h := range mh.PerHost {
		check(h.Err)
		res = append(res, h.Res)
	}
	return tenantSummary(res, mh.ElapsedNs)
}

// fabricsTenants is oursTenants over NVMe-oF: one target on the device
// host serves k initiators, one per client host, each on its own RDMA
// queue pair.
func fabricsTenants(k, ios int) (medianNs, iops float64) {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: k + 1},
		NVMe:    []cluster.NVMeConfig{{Flash: flat}},
	})
	check(err)
	nicT, err := r.Hosts[0].AttachNIC("cx5-t")
	check(err)
	var tq, iq []*rdma.QP
	for i := 1; i <= k; i++ {
		nicI, err := r.Hosts[i].AttachNIC(fmt.Sprintf("cx5-%d", i))
		check(err)
		a, b := nicT.NewQP(), nicI.NewQP()
		rdma.Connect(a, b)
		tq = append(tq, a)
		iq = append(iq, b)
	}
	var res []*fio.Result
	var elapsed sim.Duration
	check(r.Run("main", func(p *sim.Proc) error {
		tgt, err := nvmeof.NewTarget(p, r.Hosts[0].Port, cluster.NVMeBARBase,
			nvmeof.TargetParams{QueueDepth: 16, StagingBytes: 16 << 10})
		if err != nil {
			return err
		}
		for _, qp := range tq {
			if err := tgt.Serve(p, qp); err != nil {
				return err
			}
		}
		start := p.Now()
		done := make([]*sim.Event, 0, k)
		var tenantErr error
		for i := 1; i <= k; i++ {
			host, qp := i, iq[i-1]
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("t%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				ini, err := nvmeof.NewInitiator(cp, "n", r.Hosts[host].Port, qp,
					nvmeof.InitiatorParams{QueueDepth: 8, SlotBytes: 8192})
				if err != nil {
					tenantErr = err
					return
				}
				out, err := fio.Run(cp, block.NewQueue(ini), fio.JobSpec{
					Name: fmt.Sprintf("t%d", host), Op: fio.RandRead, QueueDepth: 2,
					MaxIOs: ios, RangeBlocks: 1 << 14, Seed: int64(host),
				})
				if err != nil {
					tenantErr = err
					return
				}
				res = append(res, out)
			})
		}
		p.WaitAll(done...)
		elapsed = p.Now() - start
		return tenantErr
	}))
	return tenantSummary(res, elapsed)
}

// tenantSummary returns the mean of the tenants' median read latencies
// and their aggregate IOPS over elapsed.
func tenantSummary(res []*fio.Result, elapsed sim.Duration) (medianNs, iops float64) {
	total := 0
	for _, r := range res {
		medianNs += r.ReadLat.Median()
		total += r.IOs
	}
	return medianNs / float64(len(res)), float64(total) / (float64(elapsed) / float64(sim.Second))
}
