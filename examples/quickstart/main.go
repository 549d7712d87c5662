// Quickstart: two hosts in a PCIe cluster share one single-function NVMe
// device. Host 0 has the device and runs the manager; host 1 attaches a
// distributed-driver client, gets its own I/O queue pair, and performs
// block I/O on the remote device as if it were local — no RDMA, no
// target software in the data path.
package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

func main() {
	// 1. Build a two-host PCIe cluster (NTB adapters + cluster switch)
	//    and plug an Optane-class NVMe device into host 0.
	// 2. Register the device with the SmartIO service: its BAR becomes a
	//    shared-memory segment any host can map.
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: 2},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	check(err)

	check(r.Run("main", func(p *sim.Proc) error {
		// 3. The manager (on the device host) initializes the controller
		//    and publishes the metadata segment.
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		check(err)
		fmt.Printf("manager up: %s, %d I/O queue pairs available\n",
			mgr.Metadata().Serial, mgr.Metadata().MaxQueues)

		// 4. A client on host 1 bootstraps from the metadata segment and
		//    receives its own queue pair. Its submission queue lands in
		//    device-host memory (Fig. 8 placement), its completion queue
		//    stays local for polling.
		cl, err := r.Client(p, 1, mgr, "dnvme1", core.ClientParams{})
		check(err)
		fmt.Printf("client on host 1: queue pair %d, SQ placement %s\n", cl.QID(), cl.Placement())

		// 5. Block I/O straight to the remote device.
		want := bytes.Repeat([]byte("shared-nvme!"), 342)[:4096]
		check(cl.WriteBlocks(p, 2048, 8, want))
		got := make([]byte, 4096)
		check(cl.ReadBlocks(p, 2048, 8, got))
		if !bytes.Equal(got, want) {
			fmt.Fprintln(os.Stderr, "data mismatch!")
			os.Exit(1)
		}
		fmt.Println("wrote and read back 4 kB through the shared controller — data verified")

		// 6. Measure the QD1 latency over 50 reads.
		start := p.Now()
		for i := 0; i < 50; i++ {
			check(cl.ReadBlocks(p, uint64(i*8), 8, got))
		}
		fmt.Printf("remote 4 kB QD1 read latency: %.2f us average\n",
			float64(p.Now()-start)/50/1000)
		return nil
	}))
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
