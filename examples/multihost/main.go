// Multihost: eight hosts operate one single-function NVMe controller in
// parallel — the paper's core capability ("software-enabled MR-IOV").
// Each client owns a private I/O queue pair, runs without any cross-host
// locking, writes a distinct pattern to its own LBA region, and verifies
// it back while all the others hammer the same controller. A ninth
// late-joining client demonstrates dynamic attach while I/O is running.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

const clients = 8

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "multihost:", err)
		os.Exit(1)
	}
}

// run drives every client and the late joiner and prints what each
// verified to w.
func run(w io.Writer) error {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: clients + 2, AdapterWindows: 512},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	if err != nil {
		return err
	}
	ctrl := r.Ctrls[0]

	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}

		done := make([]*sim.Event, 0, clients)
		errs := make([]error, clients)
		for i := 1; i <= clients; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("host%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				errs[host-1] = stripes(cp, r, mgr, host, w)
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}

		// Late join: a new host attaches while the cluster is live.
		late, err := r.Client(p, clients+1, mgr, "dnvme-late", core.ClientParams{})
		if err != nil {
			return err
		}
		probe := make([]byte, 4096)
		if err := late.ReadBlocks(p, 1*16384, 8, probe); err != nil { // host 1's first stripe
			return err
		}
		for j := range probe {
			if probe[j] != pattern(1, 0, j) {
				return errors.New("late client read wrong data")
			}
		}
		fmt.Fprintf(w, "late-joining host %d attached (queue pair %d) and read host 1's data — shared-disk semantics hold\n",
			clients+1, late.QID())
		return late.Close(p)
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%d/%d clients verified; controller executed %d reads, %d writes, 0 interrupts (pure polling)\n",
		clients, clients, ctrl.Stats.ReadCmds, ctrl.Stats.WriteCmds)
	return nil
}

// stripes attaches host's client, which owns LBAs [host*16384, ...),
// writes a unique pattern across 32 stripes there and verifies every
// stripe.
func stripes(p *sim.Proc, r *cluster.Rig, mgr *core.Manager, host int, w io.Writer) error {
	cl, err := r.Client(p, host, mgr, fmt.Sprintf("dnvme%d", host),
		core.ClientParams{QueueDepth: 16, PartitionBytes: 16 << 10})
	if err != nil {
		return err
	}
	base := uint64(host) * 16384
	buf := make([]byte, 4096)
	for s := 0; s < 32; s++ {
		for j := range buf {
			buf[j] = pattern(host, s, j)
		}
		if err := cl.WriteBlocks(p, base+uint64(s*8), 8, buf); err != nil {
			return err
		}
	}
	for s := 0; s < 32; s++ {
		if err := cl.ReadBlocks(p, base+uint64(s*8), 8, buf); err != nil {
			return err
		}
		for j := range buf {
			if buf[j] != pattern(host, s, j) {
				return fmt.Errorf("host %d stripe %d corrupted", host, s)
			}
		}
	}
	fmt.Fprintf(w, "host %d: 32 stripes written and verified (queue pair %d)\n", host, cl.QID())
	return nil
}

// pattern is byte j of host's stripe s.
func pattern(host, s, j int) byte { return byte(host*31 + s*7 + j%13) }
