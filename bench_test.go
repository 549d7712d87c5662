// Package repro's benchmarks regenerate every quantitative artifact of
// the paper's evaluation (§VI). The simulation runs in virtual time, so
// each benchmark executes a bounded workload and reports *virtual*
// latency metrics (vmin/vmed/vp99 in microseconds, viops) alongside the
// meaningless wall-clock ns/op. Read EXPERIMENTS.md for the mapping from
// benchmarks to the paper's figures and claims.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fig10IOs bounds each scenario run; enough for stable min/median/p99.
const fig10IOs = 1000

func runFig10(b *testing.B, s cluster.Scenario, op fio.Op) *stats.Sample {
	lat, _ := runFig10Stats(b, s, op)
	return lat
}

func runFig10Stats(b *testing.B, s cluster.Scenario, op fio.Op) (*stats.Sample, cluster.SimStats) {
	b.Helper()
	res, st, err := cluster.RunJobStats(s, cluster.ScenarioConfig{}, fio.JobSpec{
		Name: string(s), Op: op, MaxIOs: fig10IOs, WarmupIOs: 20,
		RangeBlocks: 1 << 16, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	if op == fio.RandWrite {
		return res.WriteLat, st
	}
	return res.ReadLat, st
}

// reportWallThroughput turns accumulated kernel event counts into the
// simulator's wall-clock performance numbers: events dispatched per real
// second and real nanoseconds spent per simulated I/O.
func reportWallThroughput(b *testing.B, events uint64, ios int) {
	sec := b.Elapsed().Seconds()
	if sec <= 0 {
		return
	}
	b.ReportMetric(float64(events)/sec, "events/sec")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(ios), "ns/IO")
}

func reportLatency(b *testing.B, lat *stats.Sample) {
	box := lat.Box()
	b.ReportMetric(box.Min/1000, "vmin_us")
	b.ReportMetric(box.Median/1000, "vmed_us")
	b.ReportMetric(box.P99/1000, "vp99_us")
	b.ReportMetric(box.Max/1000, "vmax_us")
}

// BenchmarkFig10Read regenerates Figure 10's four read boxplots: I/O
// command completion latency, random read 4 kB QD1, for linux-local,
// nvmeof-remote, ours-local and ours-remote.
func BenchmarkFig10Read(b *testing.B) {
	for _, s := range cluster.Scenarios() {
		b.Run(string(s), func(b *testing.B) {
			var lat *stats.Sample
			var events uint64
			for i := 0; i < b.N; i++ {
				var st cluster.SimStats
				lat, st = runFig10Stats(b, s, fio.RandRead)
				events += st.Events
			}
			reportLatency(b, lat)
			reportWallThroughput(b, events, b.N*fig10IOs)
		})
	}
}

// BenchmarkFig10Write regenerates Figure 10's four write boxplots.
func BenchmarkFig10Write(b *testing.B) {
	for _, s := range cluster.Scenarios() {
		b.Run(string(s), func(b *testing.B) {
			var lat *stats.Sample
			var events uint64
			for i := 0; i < b.N; i++ {
				var st cluster.SimStats
				lat, st = runFig10Stats(b, s, fio.RandWrite)
				events += st.Events
			}
			reportLatency(b, lat)
			reportWallThroughput(b, events, b.N*fig10IOs)
		})
	}
}

// BenchmarkMinLatencyDeltas regenerates the §VI text claims directly:
// minimum-latency differences (read: 7.7 us NVMe-oF vs ~1 us ours; write:
// 7.5 us vs ~2 us), reported as vdelta_us metrics.
func BenchmarkMinLatencyDeltas(b *testing.B) {
	type pair struct {
		name        string
		op          fio.Op
		base, other cluster.Scenario
	}
	pairs := []pair{
		{"read/nvmeof-vs-local", fio.RandRead, cluster.LinuxLocal, cluster.NVMeoFRemote},
		{"read/ours-remote-vs-local", fio.RandRead, cluster.OursLocal, cluster.OursRemote},
		{"write/nvmeof-vs-local", fio.RandWrite, cluster.LinuxLocal, cluster.NVMeoFRemote},
		{"write/ours-remote-vs-local", fio.RandWrite, cluster.OursLocal, cluster.OursRemote},
	}
	for _, pr := range pairs {
		b.Run(pr.name, func(b *testing.B) {
			var delta float64
			for i := 0; i < b.N; i++ {
				base := runFig10(b, pr.base, pr.op)
				other := runFig10(b, pr.other, pr.op)
				delta = (other.Min() - base.Min()) / 1000
			}
			b.ReportMetric(delta, "vdelta_us")
		})
	}
}

// BenchmarkQueuePlacement is the Figure 8 ablation: remote-client read
// latency with the SQ on the device host (preferred), on the client
// (controller fetches across the NTB with non-posted reads), or inside
// the controller memory buffer (internal fetch — beyond the paper).
func BenchmarkQueuePlacement(b *testing.B) {
	for _, placement := range []core.SQPlacement{core.SQDeviceSide, core.SQClientLocal, core.SQCMB} {
		b.Run(placement.String(), func(b *testing.B) {
			var lat *stats.Sample
			for i := 0; i < b.N; i++ {
				res, err := cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{
					Client: core.ClientParams{Placement: placement},
					NVMe: cluster.NVMeConfig{
						Ctrl:  nvme.Params{CMBBytes: 16 << 10},
						Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
				}, fio.JobSpec{
					Name: "placement", Op: fio.RandRead, MaxIOs: 300, WarmupIOs: 10,
					RangeBlocks: 1 << 16, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.ReadLat
			}
			reportLatency(b, lat)
		})
	}
}

// BenchmarkBounceBuffer is the §V design-decision ablation: the static
// bounce buffer (one extra memcpy) versus reprogramming an NTB window
// per request (the rejected alternative, charged at the LUT programming
// cost).
func BenchmarkBounceBuffer(b *testing.B) {
	for _, mode := range []string{"static-bounce", "dynamic-remap"} {
		b.Run(mode, func(b *testing.B) {
			params := core.ClientParams{}
			if mode == "dynamic-remap" {
				params.RemapPerIO = true
			}
			var lat *stats.Sample
			for i := 0; i < b.N; i++ {
				res, err := cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{
					Client: params,
					NVMe:   cluster.NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
				}, fio.JobSpec{
					Name: mode, Op: fio.RandWrite, MaxIOs: 300, WarmupIOs: 10,
					RangeBlocks: 1 << 16, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.WriteLat
			}
			reportLatency(b, lat)
		})
	}
}

// BenchmarkZeroCopyIOMMU sweeps transfer size for the §V future-work
// design (per-request IOMMU mapping) against the shipped bounce buffer:
// copying wins at 4 kB, mapping wins for large transfers.
func BenchmarkZeroCopyIOMMU(b *testing.B) {
	for _, mode := range []string{"bounce", "iommu-zerocopy"} {
		for _, kb := range []int{4, 16, 64, 128} {
			b.Run(fmt.Sprintf("%s/%dKiB", mode, kb), func(b *testing.B) {
				n := kb << 10
				var lat *stats.Sample
				for i := 0; i < b.N; i++ {
					res, err := cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{
						Client: core.ClientParams{
							ZeroCopy:       mode == "iommu-zerocopy",
							PartitionBytes: 256 << 10,
						},
						Manager: core.ManagerParams{EnableIOMMU: mode == "iommu-zerocopy"},
						NVMe:    cluster.NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
					}, fio.JobSpec{
						Name: mode, Op: fio.RandWrite, BlockSize: n,
						MaxIOs: 100, WarmupIOs: 5, RangeBlocks: 1 << 18, Seed: 7,
					})
					if err != nil {
						b.Fatal(err)
					}
					lat = res.WriteLat
				}
				reportLatency(b, lat)
			})
		}
	}
}

// BenchmarkSwitchHops regenerates the §VI claim that each switch chip in
// the path adds 100-150 ns per direction: QD1 read latency with k extra
// switch chips between the root complex and the device.
func BenchmarkSwitchHops(b *testing.B) {
	for _, hops := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("chips-%d", hops), func(b *testing.B) {
			var lat *stats.Sample
			for i := 0; i < b.N; i++ {
				res, err := cluster.RunJob(cluster.LinuxLocal, cluster.ScenarioConfig{
					NVMe: cluster.NVMeConfig{ExtraSwitches: hops,
						Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
				}, fio.JobSpec{
					Name: "hops", Op: fio.RandRead, MaxIOs: 200, WarmupIOs: 10,
					RangeBlocks: 1 << 16, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.ReadLat
			}
			reportLatency(b, lat)
		})
	}
}

// BenchmarkQueueDepth sweeps queue depth on ours-remote (beyond the
// paper's QD1, which isolates network latency): throughput should rise
// with depth while per-I/O latency grows.
func BenchmarkQueueDepth(b *testing.B) {
	for _, qd := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("qd-%d", qd), func(b *testing.B) {
			var res *fio.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.RunJob(cluster.OursRemote, cluster.ScenarioConfig{},
					fio.JobSpec{
						Name: "qd", Op: fio.RandRead, QueueDepth: qd,
						MaxIOs: 500, WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
					})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.IOPS(), "viops")
			b.ReportMetric(res.ReadLat.Median()/1000, "vmed_us")
		})
	}
}

// BenchmarkBandwidthParity reproduces the evaluation's premise ("by using
// modern networking technologies ... NVMe-oF using RDMA can provide very
// high throughput, which is comparable to that of local PCIe", §VI):
// at high queue depth all three stacks saturate the medium, so the
// latency difference — not bandwidth — is where the paper's benefit lies.
func BenchmarkBandwidthParity(b *testing.B) {
	for _, s := range []cluster.Scenario{cluster.LinuxLocal, cluster.NVMeoFRemote, cluster.OursRemote} {
		b.Run(string(s), func(b *testing.B) {
			var res *fio.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = cluster.RunJob(s, cluster.ScenarioConfig{}, fio.JobSpec{
					Name: string(s), Op: fio.RandRead, QueueDepth: 32,
					MaxIOs: 2000, WarmupIOs: 50, RangeBlocks: 1 << 18, Seed: 7,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.IOPS(), "viops")
			b.ReportMetric(res.Bandwidth()/1e6, "vMBps")
		})
	}
}

// BenchmarkMultiHostScaling shares one controller among k simultaneous
// client hosts (the capability §VI validates with 31 hosts) and reports
// aggregate virtual IOPS.
func BenchmarkMultiHostScaling(b *testing.B) {
	for _, clients := range []int{1, 2, 4, 8, 16, 31} {
		b.Run(fmt.Sprintf("hosts-%d", clients), func(b *testing.B) {
			var aggregate float64
			for i := 0; i < b.N; i++ {
				aggregate = runMultiHost(b, clients)
			}
			b.ReportMetric(aggregate, "viops")
		})
	}
}

func runMultiHost(b *testing.B, clients int) float64 {
	b.Helper()
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: clients + 1},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	if err != nil {
		b.Fatal(err)
	}
	const iosPerClient = 100
	totalIOs := 0
	var elapsed sim.Duration
	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}
		start := p.Now()
		done := make([]*sim.Event, 0, clients)
		for i := 1; i <= clients; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go("client", func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				cl, err := core.NewClient(cp, "cl", r.Svc, r.Hosts[host].Node, mgr,
					core.ClientParams{QueueDepth: 8, PartitionBytes: 8192})
				if err != nil {
					b.Error(err)
					return
				}
				buf := make([]byte, 4096)
				for k := 0; k < iosPerClient; k++ {
					lba := uint64(host*100000 + k*8)
					if err := cl.ReadBlocks(cp, lba, 8, buf); err != nil {
						b.Error(err)
						return
					}
					totalIOs++
				}
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
		elapsed = p.Now() - start
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if elapsed == 0 {
		return 0
	}
	return float64(totalIOs) / (float64(elapsed) / float64(sim.Second))
}
