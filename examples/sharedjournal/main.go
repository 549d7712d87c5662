// Sharedjournal demonstrates the workload the paper built a *block*
// device driver for (§V): shared-disk data structures, in the spirit of
// GFS/OCFS. Four hosts share one NVMe device through the distributed
// driver; each appends to its own on-disk journal extent (no cross-host
// locks — mirroring the per-host queue pairs underneath), then an auditor
// host reads every journal back and verifies all records.
package main

import (
	"fmt"
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
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: writers + 2, AdapterWindows: 512},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	check(err)

	check(r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		check(err)

		newQueue := func(host int) *block.Queue {
			cl, err := r.Client(p, host, mgr, fmt.Sprintf("dnvme%d", host), core.ClientParams{})
			check(err)
			return block.NewQueue(r.K, cl, block.QueueParams{})
		}

		// Host 1 formats the shared device.
		fmtQ := newQueue(1)
		check(shareddisk.Format(p, fmtQ, writers, extentBlocks))
		fmt.Printf("formatted shared journal: %d hosts x %d blocks\n", writers, extentBlocks)

		// Writers on hosts 1..writers (host 1 reuses its queue).
		queues := map[int]*block.Queue{1: fmtQ}
		done := make([]*sim.Event, 0, writers)
		for w := 0; w < writers; w++ {
			host := w + 1
			if _, ok := queues[host]; !ok {
				queues[host] = newQueue(host)
			}
			q := queues[host]
			idx := w
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("writer%d", idx), func(wp *sim.Proc) {
				defer fin.Trigger(nil)
				j, err := shareddisk.Open(wp, q, idx)
				check(err)
				for k := 0; k < recsPerHost; k++ {
					check(j.Append(wp, []byte(fmt.Sprintf("event host=%d seq=%d", idx, k))))
				}
				fmt.Printf("host %d appended %d records to extent %d\n", host, recsPerHost, idx)
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}

		// A separate auditor host reads everything back.
		auditQ := newQueue(writers + 1)
		j, err := shareddisk.Open(p, auditQ, 0)
		check(err)
		total := 0
		for w := 0; w < writers; w++ {
			recs, err := j.ReadAll(p, w)
			check(err)
			for k, rec := range recs {
				want := fmt.Sprintf("event host=%d seq=%d", w, k)
				if string(rec) != want {
					fmt.Fprintf(os.Stderr, "corrupt record %d/%d: %q\n", w, k, rec)
					os.Exit(1)
				}
			}
			total += len(recs)
		}
		fmt.Printf("auditor on host %d verified %d records across %d journals (checksums OK)\n",
			writers+1, total, writers)
		if total != writers*recsPerHost {
			fmt.Fprintf(os.Stderr, "expected %d records\n", writers*recsPerHost)
			os.Exit(1)
		}
		return nil
	}))
	fmt.Println("shared-disk semantics verified over one single-function NVMe device")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharedjournal:", err)
		os.Exit(1)
	}
}
