// Futurework demonstrates the paper's stated future directions, built and
// working in this reproduction: device-generated interrupts delivered
// across the NTB (§V: "does not currently support device-generated
// interrupts"), IOMMU-backed zero-copy replacing the bounce buffer
// (§V future work), and submission queues in the controller memory
// buffer (one step past Fig. 8's placement spectrum). A baseline client
// and an all-extensions client run the same workload side by side.
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
)

func main() {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: 3, AdapterWindows: 512},
		NVMe: []cluster.NVMeConfig{{
			Ctrl:  nvme.Params{CMBBytes: 16 << 10},
			Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12},
		}},
	})
	check(err)

	check(r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{EnableIOMMU: true})
		check(err)
		fmt.Printf("manager up with IOMMU domain and %d B of controller memory buffer\n\n",
			mgr.CMBBytes())

		type variant struct {
			name   string
			params core.ClientParams
			host   int
		}
		variants := []variant{
			{"paper's prototype (poll, bounce, device-side SQ)", core.ClientParams{}, 1},
			{"all extensions (interrupts, zero-copy, SQ in CMB)", core.ClientParams{
				UseInterrupts: true,
				ZeroCopy:      true,
				Placement:     core.SQCMB,
			}, 2},
		}
		for _, v := range variants {
			cl, err := core.NewClient(p, v.name, r.Svc, r.Hosts[v.host].Node, mgr, v.params)
			check(err)
			want := bytes.Repeat([]byte{0xF7}, 4096)
			check(cl.WriteBlocks(p, 123, 8, want))
			got := make([]byte, 4096)
			check(cl.ReadBlocks(p, 123, 8, got))
			if !bytes.Equal(got, want) {
				fmt.Fprintln(os.Stderr, "data mismatch for", v.name)
				os.Exit(1)
			}
			buf := make([]byte, 4096)
			start := p.Now()
			const n = 30
			for i := 0; i < n; i++ {
				check(cl.ReadBlocks(p, uint64(i*8), 8, buf))
			}
			readLat := float64(p.Now()-start) / n / 1000
			start = p.Now()
			for i := 0; i < n; i++ {
				check(cl.WriteBlocks(p, uint64(i*8), 8, buf))
			}
			writeLat := float64(p.Now()-start) / n / 1000
			fmt.Printf("%-52s  read %6.2f us   write %6.2f us  (verified)\n",
				v.name, readLat, writeLat)
			check(cl.Close(p))
		}
		fmt.Println()
		fmt.Println("At 4 kB the extensions roughly break even: interrupts cost IRQ latency")
		fmt.Println("that polling avoids, while zero-copy saves the bounce memcpy and the")
		fmt.Println("CMB saves the SQE fetch. The wins compound for large transfers")
		fmt.Println("(see experiment E12) and for CPU efficiency (no poll burn).")
		return nil
	}))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "futurework:", err)
		os.Exit(1)
	}
}
