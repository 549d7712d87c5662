package cluster

import (
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/nvme"
	"repro/internal/nvmeof"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// tenantResult is one sharing technology's outcome with k hosts.
type tenantResult struct {
	perHostMedianNs float64
	aggIOPS         float64
}

// runOursTenants shares the controller among k distributed-driver clients
// and returns per-host median latency plus aggregate IOPS.
func runOursTenants(t *testing.T, k, iosPerHost int) tenantResult {
	t.Helper()
	mh, err := RunMultiHost(MultiHostConfig{
		Hosts: k, QueueDepth: 2, IOsPerHost: iosPerHost, Op: fio.RandRead,
		NVMe:   NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}},
		Client: core.ClientParams{QueueDepth: 8, PartitionBytes: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	var res []*fio.Result
	for _, h := range mh.PerHost {
		if h.Err != nil {
			t.Fatalf("host %d: %v", h.Host, h.Err)
		}
		res = append(res, h.Res)
	}
	return summarize(t, res, mh.ElapsedNs, k, iosPerHost)
}

// runFabricsTenants does the same over NVMe-oF: one target, k initiators.
func runFabricsTenants(t *testing.T, k, iosPerHost int) tenantResult {
	t.Helper()
	c, err := New(Config{Hosts: k + 1, MemBytes: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachNVMe(0, NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}}); err != nil {
		t.Fatal(err)
	}
	attach := func(h *Host, name string) *rdma.NIC {
		ep := h.Dom.AddNode(pcie.Endpoint, name)
		if err := h.Dom.Connect(h.RC, ep); err != nil {
			t.Fatal(err)
		}
		return rdma.NewNIC(name, h.Port, ep, rdma.Params{})
	}
	nicT := attach(c.Hosts[0], "cx5-t")
	var tq, iq []*rdma.QP
	for i := 1; i <= k; i++ {
		nicI := attach(c.Hosts[i], fmt.Sprintf("cx5-%d", i))
		a, b := nicT.NewQP(), nicI.NewQP()
		rdma.Connect(a, b)
		tq = append(tq, a)
		iq = append(iq, b)
	}
	var res []*fio.Result
	var elapsed sim.Duration
	c.Go("main", func(p *sim.Proc) {
		tgt, err := nvmeof.NewTarget(p, c.Hosts[0].Port, NVMeBARBase,
			nvmeof.TargetParams{QueueDepth: 16, StagingBytes: 16 << 10})
		if err != nil {
			t.Errorf("target: %v", err)
			return
		}
		for _, qp := range tq {
			if err := tgt.Serve(p, qp); err != nil {
				t.Errorf("serve: %v", err)
				return
			}
		}
		start := p.Now()
		done := make([]*sim.Event, 0, k)
		for i := 1; i <= k; i++ {
			host := i
			qp := iq[i-1]
			fin := sim.NewEvent(c.K)
			done = append(done, fin)
			c.Go(fmt.Sprintf("t%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				ini, err := nvmeof.NewInitiator(cp, "n", c.Hosts[host].Port, qp,
					nvmeof.InitiatorParams{QueueDepth: 8, SlotBytes: 8192})
				if err != nil {
					t.Errorf("initiator %d: %v", host, err)
					return
				}
				q := block.NewQueue(c.K, ini, block.QueueParams{})
				r, err := fio.Run(cp, q, fio.JobSpec{
					Name: fmt.Sprintf("t%d", host), Op: fio.RandRead, QueueDepth: 2,
					MaxIOs: iosPerHost, RangeBlocks: 1 << 14, Seed: int64(host),
				})
				if err != nil {
					t.Errorf("fio %d: %v", host, err)
					return
				}
				res = append(res, r)
			})
		}
		p.WaitAll(done...)
		elapsed = p.Now() - start
	})
	c.Run()
	return summarize(t, res, elapsed, k, iosPerHost)
}

func summarize(t *testing.T, res []*fio.Result, elapsed sim.Duration, k, iosPerHost int) tenantResult {
	t.Helper()
	if len(res) != k {
		t.Fatalf("%d results for %d tenants", len(res), k)
	}
	var medianSum float64
	total := 0
	for _, r := range res {
		medianSum += r.ReadLat.Median()
		total += r.IOs
	}
	if total != k*iosPerHost {
		t.Fatalf("total IOs %d, want %d", total, k*iosPerHost)
	}
	return tenantResult{
		perHostMedianNs: medianSum / float64(k),
		aggIOPS:         float64(total) / (float64(elapsed) / float64(sim.Second)),
	}
}

// TestMultiTenantComparison runs four tenants on each technology: the
// PCIe-native driver must keep per-host latency several microseconds
// below NVMe-oF while matching aggregate throughput — the paper's benefit
// holds under multi-host sharing, not just point-to-point.
func TestMultiTenantComparison(t *testing.T) {
	const tenants, ios = 4, 120
	ours := runOursTenants(t, tenants, ios)
	fabrics := runFabricsTenants(t, tenants, ios)
	t.Logf("ours:    per-host median %.2f us, aggregate %.0f IOPS", ours.perHostMedianNs/1000, ours.aggIOPS)
	t.Logf("nvmeof:  per-host median %.2f us, aggregate %.0f IOPS", fabrics.perHostMedianNs/1000, fabrics.aggIOPS)
	if fabrics.perHostMedianNs-ours.perHostMedianNs < 3000 {
		t.Errorf("latency advantage under multi-tenancy is only %.2f us",
			(fabrics.perHostMedianNs-ours.perHostMedianNs)/1000)
	}
	if ours.aggIOPS < 0.8*fabrics.aggIOPS {
		t.Errorf("ours lost aggregate throughput: %.0f vs %.0f IOPS", ours.aggIOPS, fabrics.aggIOPS)
	}
}
