// Package attr is the resource-accounting and bottleneck-attribution
// layer: it turns the simulator's traces and counters into an answer to
// "which shared resource is costing each IO its latency".
//
// Two complementary views, reconciled against each other:
//
//   - Occupancy accounting (Occ, Window): every contended resource —
//     per-queue SQ/CQ entries, controller command slots, admin service,
//     NTB DMA windows, link transactions, client bounce slots —
//     keeps busy/idle interval accounting on the sim clock. Occ
//     maintains the exact time integral of its level, so Little's law
//     (L = λW) holds as an identity, not an estimate: once arrivals
//     equal departures, ∫level·dt equals the summed residence time to
//     the nanosecond. Tests assert it with zero tolerance.
//
//   - Critical-path blame (BlameSet): each trace span's [Start, End]
//     window is partitioned — exactly, with 0 ns residual — into
//     (resource, service|queue) segments by sweeping the client stages
//     and the fabric/controller sub-stages recorded inside the device
//     window. Gaps between sub-stages are queueing, blamed on the
//     resource the command was waiting for next. Per-resource blame
//     sums therefore reconcile exactly with end-to-end latency, the
//     same discipline the stage breakdown (trace.Breakdown) follows.
//
// Everything here is plain arithmetic over virtual-time state: updates
// never sleep, yield or touch the event kernel, so accounting is
// perturbation-free by construction and results are byte-identical at
// any GOMAXPROCS.
package attr

// Resource names blamed by the critical-path walk and measured by the
// occupancy layer. Stable identifiers: reports, the bottleneck rows of
// BENCH_sim.json and the metric namespace (attr.*) key on them.
const (
	// ResHostCPU is host-side software: submission glue, completion
	// reap, poll sweeps, and the synthetic remainder of a span not
	// covered by any recorded stage.
	ResHostCPU = "host.cpu"
	// ResHostData is host-side data movement: bounce-buffer copies or
	// IOMMU map/unmap on the submit and complete paths.
	ResHostData = "host.data"
	// ResNVMeSQ is submission-queue residency: SQE writes plus time
	// queued in the SQ waiting for controller arbitration and a free
	// command slot.
	ResNVMeSQ = "nvme.sq"
	// ResNVMeCtrl is controller firmware: command decode/setup and the
	// completion path.
	ResNVMeCtrl = "nvme.ctrl"
	// ResNVMeMedium is the flash medium: service time plus channel
	// queueing.
	ResNVMeMedium = "nvme.medium"
	// ResNVMeCQ is completion-queue residency: waiting for CQ space and
	// the CQE post.
	ResNVMeCQ = "nvme.cq"
	// ResFabricLink is the PCIe/NTB fabric: doorbell flight, SQE fetch
	// DMA, payload transfer — every hop that serializes onto the
	// cluster link.
	ResFabricLink = "fabric.link"
	// ResDevice is the opaque device window of spans recorded without
	// fabric/controller sub-stages (e.g. the NVMe-oF initiator's view).
	ResDevice = "device"
)
