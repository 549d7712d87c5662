// Sharedjournal demonstrates the workload the paper built a *block*
// device driver for (§V): shared-disk data structures, in the spirit of
// GFS/OCFS. Four hosts share one NVMe device through the distributed
// driver; each appends to its own on-disk journal extent (no cross-host
// locks — mirroring the per-host queue pairs underneath), then an auditor
// host reads every journal back and verifies all records.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shareddisk"
	"repro/internal/sim"
)

const (
	writers      = 4
	recsPerHost  = 10
	extentBlocks = 64
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sharedjournal:", err)
		os.Exit(1)
	}
}

// run formats the device, appends every writer's records, audits them
// and prints each step to w.
func run(w io.Writer) error {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: writers + 2, AdapterWindows: 512},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	if err != nil {
		return err
	}

	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}

		newQueue := func(host int) (*block.Queue, error) {
			cl, err := r.Client(p, host, mgr, fmt.Sprintf("dnvme%d", host), core.ClientParams{})
			if err != nil {
				return nil, err
			}
			return block.NewQueue(cl), nil
		}

		// Host 1 formats the shared device.
		fmtQ, err := newQueue(1)
		if err != nil {
			return err
		}
		if err := shareddisk.Format(p, fmtQ, writers, extentBlocks); err != nil {
			return err
		}
		fmt.Fprintf(w, "formatted shared journal: %d hosts x %d blocks\n", writers, extentBlocks)

		// Writers on hosts 1..writers (host 1 reuses its queue).
		queues := map[int]*block.Queue{1: fmtQ}
		done := make([]*sim.Event, 0, writers)
		errs := make([]error, writers)
		for idx := 0; idx < writers; idx++ {
			host := idx + 1
			if _, ok := queues[host]; !ok {
				if queues[host], err = newQueue(host); err != nil {
					return err
				}
			}
			q := queues[host]
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("writer%d", idx), func(wp *sim.Proc) {
				defer fin.Trigger(nil)
				errs[idx] = appendRecords(wp, q, idx)
				if errs[idx] == nil {
					fmt.Fprintf(w, "host %d appended %d records to extent %d\n", host, recsPerHost, idx)
				}
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}

		// A separate auditor host reads everything back.
		auditQ, err := newQueue(writers + 1)
		if err != nil {
			return err
		}
		j, err := shareddisk.Open(p, auditQ, 0)
		if err != nil {
			return err
		}
		total := 0
		for idx := 0; idx < writers; idx++ {
			recs, err := j.ReadAll(p, idx)
			if err != nil {
				return err
			}
			for k, rec := range recs {
				if want := record(idx, k); string(rec) != want {
					return fmt.Errorf("corrupt record %d/%d: %q", idx, k, rec)
				}
			}
			total += len(recs)
		}
		fmt.Fprintf(w, "auditor on host %d verified %d records across %d journals (checksums OK)\n",
			writers+1, total, writers)
		if total != writers*recsPerHost {
			return fmt.Errorf("expected %d records", writers*recsPerHost)
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "shared-disk semantics verified over one single-function NVMe device")
	return nil
}

// appendRecords appends writer idx's records to its own journal extent.
func appendRecords(p *sim.Proc, q *block.Queue, idx int) error {
	j, err := shareddisk.Open(p, q, idx)
	if err != nil {
		return err
	}
	for k := 0; k < recsPerHost; k++ {
		if err := j.Append(p, []byte(record(idx, k))); err != nil {
			return err
		}
	}
	return nil
}

// record is writer idx's k-th journal record.
func record(idx, k int) string { return fmt.Sprintf("event host=%d seq=%d", idx, k) }
