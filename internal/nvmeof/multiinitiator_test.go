package nvmeof_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nvme"
	"repro/internal/nvmeof"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// TestMultipleInitiators: one target serves three initiator hosts, each
// with its own connection and bound NVMe queue pair — NVMe-oF's version
// of multi-host sharing, for comparison with the distributed driver's.
func TestMultipleInitiators(t *testing.T) {
	const initiators = 3
	c, err := cluster.New(cluster.Config{Hosts: initiators + 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := c.AttachNVMe(0, cluster.NVMeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	attach := func(h *cluster.Host, name string) *rdma.NIC {
		ep := h.Dom.AddNode(pcie.Endpoint, name)
		if err := h.Dom.Connect(h.RC, ep); err != nil {
			t.Fatal(err)
		}
		return rdma.NewNIC(name, h.Port, ep)
	}
	nicT := attach(c.Hosts[0], "cx5-target")
	var tgtQPs, iniQPs []*rdma.QP
	for i := 1; i <= initiators; i++ {
		nicI := attach(c.Hosts[i], fmt.Sprintf("cx5-i%d", i))
		qpT := nicT.NewQP()
		qpI := nicI.NewQP()
		rdma.Connect(qpT, qpI)
		tgtQPs = append(tgtQPs, qpT)
		iniQPs = append(iniQPs, qpI)
	}
	verified := 0
	c.Go("main", func(p *sim.Proc) {
		tgt, err := nvmeof.NewTarget(p, c.Hosts[0].Port, cluster.NVMeBARBase, nvmeof.TargetParams{})
		if err != nil {
			t.Errorf("target: %v", err)
			return
		}
		for _, qp := range tgtQPs {
			if err := tgt.Serve(p, qp); err != nil {
				t.Errorf("serve: %v", err)
				return
			}
		}
		if tgt.Served != initiators {
			t.Errorf("served %d connections", tgt.Served)
		}
		done := make([]*sim.Event, 0, initiators)
		for i := 1; i <= initiators; i++ {
			host := i
			qp := iniQPs[i-1]
			fin := sim.NewEvent(c.K)
			done = append(done, fin)
			c.Go(fmt.Sprintf("ini%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				ini, err := nvmeof.NewInitiator(cp, fmt.Sprintf("n%d", host),
					c.Hosts[host].Port, qp, nvmeof.InitiatorParams{})
				if err != nil {
					t.Errorf("initiator %d: %v", host, err)
					return
				}
				pat := bytes.Repeat([]byte{byte(host * 31)}, 4096)
				lba := uint64(host * 4000)
				for k := 0; k < 4; k++ {
					if err := ini.WriteBlocks(cp, lba+uint64(k*8), 8, pat); err != nil {
						t.Errorf("w%d/%d: %v", host, k, err)
						return
					}
				}
				got := make([]byte, 4096)
				for k := 0; k < 4; k++ {
					if err := ini.ReadBlocks(cp, lba+uint64(k*8), 8, got); err != nil {
						t.Errorf("r%d/%d: %v", host, k, err)
						return
					}
					if !bytes.Equal(got, pat) {
						t.Errorf("initiator %d data mismatch", host)
						return
					}
				}
				verified++
			})
		}
		p.WaitAll(done...)
	})
	c.Run()
	if verified != initiators {
		t.Fatalf("%d/%d initiators verified", verified, initiators)
	}
	if ctrl.Stats.ReadCmds != 4*initiators || ctrl.Stats.WriteCmds != 4*initiators {
		t.Fatalf("controller stats %+v", ctrl.Stats)
	}
}

// TestChainedPRPList drives transfers large enough that the PRP list
// itself spans chained pages (more than 512 entries), through the fabrics
// path, which builds lists in staging memory: 513 pages fill exactly one
// list page, 520 chain to a second, and 1024 fill the second exactly.
func TestChainedPRPList(t *testing.T) {
	for _, pages := range []int{513, 520, 1024} {
		t.Run(fmt.Sprintf("%d pages", pages), func(t *testing.T) {
			r := newRig(t, cluster.NVMeConfig{})
			r.start(t,
				nvmeof.TargetParams{StagingBytes: 4 << 20, QueueDepth: 8},
				nvmeof.InitiatorParams{SlotBytes: 4 << 20, QueueDepth: 4},
				func(p *sim.Proc, ini *nvmeof.Initiator) {
					n := pages * nvme.PageSize
					want := make([]byte, n)
					for i := range want {
						want[i] = byte(i*7 + 1)
					}
					if err := ini.WriteBlocks(p, 0, n/512, want); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					got := make([]byte, n)
					if err := ini.ReadBlocks(p, 0, n/512, got); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Error("chained PRP list corrupted data")
					}
				})
			if r.ctrl.Stats.ErrorCmds != 0 {
				t.Fatalf("controller errors: %+v", r.ctrl.Stats)
			}
		})
	}
}
