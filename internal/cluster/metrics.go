package cluster

import (
	"repro/internal/core"
	"repro/internal/hostdriver"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Metric wiring: every layer keeps plain counter fields on its own
// structs (zero-dependency, zero run-time overhead) and the cluster
// registers gauge callbacks that read them at snapshot/sample time.
// Per-host attribution uses labels — `pcie.posted_writes{host="2"}` —
// rather than name-embedded host indices, so exposition endpoints can
// group and the fairness layer can pivot on the `host` dimension.
//
// Naming scheme (stable; golden-tested):
//
//	sim.*                unlabeled kernel accounting
//	pcie.*{host}         per-host TLP routing
//	ntb.*{host}          per-host adapter LUT activity
//	nvme.ctrl.*          controller aggregates (the shared device)
//	nvme.queue.*{host,qid}       controller-side per-queue attribution
//	hostdriver.queue.*{host,qid} stock-driver per-queue counters
//	core.client.*{host}  distributed-driver client counters
//	nvmeof.*{host}       fabrics target/initiator counters
//	host.*{host}         fairness inputs (ios_completed, latency)
//	attr.*               resource-occupancy accounting (internal/attr
//	                     instruments: levels, busy time, residence)

// WireKernelMetrics registers the simulation kernel's own accounting.
func WireKernelMetrics(reg *trace.Registry, k *sim.Kernel) {
	reg.GaugeFunc("sim.events_executed", func() float64 { return float64(k.Stats().Executed) })
	reg.GaugeFunc("sim.events_scheduled", func() float64 { return float64(k.Stats().Scheduled) })
	reg.GaugeFunc("sim.events_run_queued", func() float64 { return float64(k.Stats().RunQueued) })
	reg.GaugeFunc("sim.pool_misses", func() float64 { return float64(k.Stats().PoolMisses) })
	reg.GaugeFunc("sim.inline_sleeps", func() float64 { return float64(k.Stats().InlineSleeps) })
	reg.GaugeFunc("sim.ticks", func() float64 { return float64(k.Stats().Ticks) })
}

// WireHostMetrics registers one host's fabric-side counters (PCIe
// domain and NTB adapter), labeled host="N".
func WireHostMetrics(reg *trace.Registry, h *Host) {
	host := trace.L("host", h.Index)
	dom := h.Dom
	reg.GaugeFunc("pcie.posted_writes", func() float64 { return float64(dom.Stats().PostedWrites) }, host)
	reg.GaugeFunc("pcie.mmio_writes", func() float64 { return float64(dom.Stats().MMIOWrites) }, host)
	reg.GaugeFunc("pcie.reads", func() float64 { return float64(dom.Stats().Reads) }, host)
	reg.GaugeFunc("pcie.bytes_written", func() float64 { return float64(dom.Stats().BytesWritten) }, host)
	reg.GaugeFunc("pcie.bytes_read", func() float64 { return float64(dom.Stats().BytesRead) }, host)
	reg.GaugeFunc("pcie.crossings", func() float64 { return float64(dom.Stats().Crossings) }, host)
	ad := h.Adapter
	reg.GaugeFunc("ntb.translations", func() float64 { return float64(ad.Translations) }, host)
	reg.GaugeFunc("ntb.windows_programmed", func() float64 { return float64(ad.Programmed) }, host)
	reg.GaugeFunc("ntb.windows_live", func() float64 { return float64(ad.Windows()) }, host)
	k := dom.Kernel()
	reg.GaugeFunc("attr.link.tlps", func() float64 { return float64(dom.Link().Count) }, host)
	reg.GaugeFunc("attr.link.bytes", func() float64 { return float64(dom.Link().Bytes) }, host)
	reg.GaugeFunc("attr.link.busy_ns", func() float64 { return float64(dom.Link().TotalNs) }, host)
	reg.GaugeFunc("attr.ntb.windows_level", func() float64 { return float64(ad.WinOcc.Level()) }, host)
	reg.GaugeFunc("attr.ntb.windows_busy_ns", func() float64 { return float64(ad.WinOcc.BusyAsOf(int64(k.Now()))) }, host)
}

// WireControllerMetrics registers the shared controller's aggregate
// command/doorbell counters (unlabeled: there is one device).
func WireControllerMetrics(reg *trace.Registry, ctrl *nvme.Controller) {
	reg.GaugeFunc("nvme.ctrl.read_cmds", func() float64 { return float64(ctrl.Stats.ReadCmds) })
	reg.GaugeFunc("nvme.ctrl.write_cmds", func() float64 { return float64(ctrl.Stats.WriteCmds) })
	reg.GaugeFunc("nvme.ctrl.flush_cmds", func() float64 { return float64(ctrl.Stats.FlushCmds) })
	reg.GaugeFunc("nvme.ctrl.admin_cmds", func() float64 { return float64(ctrl.Stats.AdminCmds) })
	reg.GaugeFunc("nvme.ctrl.error_cmds", func() float64 { return float64(ctrl.Stats.ErrorCmds) })
	reg.GaugeFunc("nvme.ctrl.fetches", func() float64 { return float64(ctrl.Stats.Fetches) })
	reg.GaugeFunc("nvme.ctrl.completions", func() float64 { return float64(ctrl.Stats.Completions) })
	reg.GaugeFunc("nvme.ctrl.interrupts", func() float64 { return float64(ctrl.Stats.Interrupts) })
	reg.GaugeFunc("nvme.ctrl.sq_doorbell_writes", func() float64 { return float64(ctrl.Stats.SQDoorbellWrites) })
	reg.GaugeFunc("nvme.ctrl.cq_doorbell_writes", func() float64 { return float64(ctrl.Stats.CQDoorbellWrites) })
	k := ctrl.Domain().Kernel()
	reg.GaugeFunc("attr.ctrl.busy_ns", func() float64 { return float64(ctrl.BusyOcc.BusyAsOf(int64(k.Now()))) })
	reg.GaugeFunc("attr.ctrl.inflight", func() float64 { return float64(ctrl.BusyOcc.Level()) })
	reg.GaugeFunc("attr.ctrl.max_inflight", func() float64 { return float64(ctrl.BusyOcc.MaxLevel()) })
	reg.GaugeFunc("attr.ctrl.admin_busy_ns", func() float64 { return float64(ctrl.AdminOcc.BusyAsOf(int64(k.Now()))) })
	reg.GaugeFunc("attr.ctrl.admin_svcs", func() float64 { return float64(ctrl.AdminOcc.Departures) })
	reg.GaugeFunc("nvme.arb.urgent_fetched", func() float64 { return float64(ctrl.Stats.ArbFetched[nvme.QPrioUrgent]) })
	reg.GaugeFunc("nvme.arb.high_fetched", func() float64 { return float64(ctrl.Stats.ArbFetched[nvme.QPrioHigh]) })
	reg.GaugeFunc("nvme.arb.medium_fetched", func() float64 { return float64(ctrl.Stats.ArbFetched[nvme.QPrioMedium]) })
	reg.GaugeFunc("nvme.arb.low_fetched", func() float64 { return float64(ctrl.Stats.ArbFetched[nvme.QPrioLow]) })
	reg.GaugeFunc("nvme.arb.wrr_rounds", func() float64 { return float64(ctrl.Stats.ArbRounds) })
}

// WireControllerQueueMetrics registers the controller-side counters of
// one I/O queue pair, attributed to the host that owns it.
func WireControllerQueueMetrics(reg *trace.Registry, ctrl *nvme.Controller, qid uint16, host int) {
	labels := []trace.Label{trace.L("host", host), trace.L("qid", qid)}
	reg.GaugeFunc("nvme.queue.fetched", func() float64 { return float64(ctrl.QueueStats(qid).Fetched) }, labels...)
	reg.GaugeFunc("nvme.queue.read_cmds", func() float64 { return float64(ctrl.QueueStats(qid).ReadCmds) }, labels...)
	reg.GaugeFunc("nvme.queue.write_cmds", func() float64 { return float64(ctrl.QueueStats(qid).WriteCmds) }, labels...)
	reg.GaugeFunc("nvme.queue.completions", func() float64 { return float64(ctrl.QueueStats(qid).Completions) }, labels...)
	reg.GaugeFunc("nvme.queue.sq_doorbells", func() float64 { return float64(ctrl.QueueStats(qid).SQDoorbells) }, labels...)
	k := ctrl.Domain().Kernel()
	reg.GaugeFunc("attr.queue.sq_level", func() float64 { return float64(ctrl.QueueStats(qid).SQOcc.Level()) }, labels...)
	reg.GaugeFunc("attr.queue.sq_max_level", func() float64 { return float64(ctrl.QueueStats(qid).SQOcc.MaxLevel()) }, labels...)
	reg.GaugeFunc("attr.queue.sq_busy_ns", func() float64 { return float64(ctrl.QueueStats(qid).SQOcc.BusyAsOf(int64(k.Now()))) }, labels...)
	reg.GaugeFunc("attr.queue.sq_integral_ns", func() float64 { return float64(ctrl.QueueStats(qid).SQOcc.IntegralAsOf(int64(k.Now()))) }, labels...)
	reg.GaugeFunc("attr.queue.sq_residence_ns", func() float64 { return float64(ctrl.QueueStats(qid).SQOcc.ResidenceNs()) }, labels...)
	reg.GaugeFunc("attr.queue.cq_busy_ns", func() float64 { return float64(ctrl.QueueStats(qid).CQOcc.BusyAsOf(int64(k.Now()))) }, labels...)
}

// WireClientMetrics registers one distributed-driver client's counters
// plus the host.* fairness inputs: ios_completed (monotone gauge the
// sampler differentiates) and an end-to-end latency histogram attached
// to the client.
func WireClientMetrics(reg *trace.Registry, cl *core.Client, host int) {
	hl := trace.L("host", host)
	reg.GaugeFunc("core.client.reads", func() float64 { return float64(cl.Reads) }, hl)
	reg.GaugeFunc("core.client.writes", func() float64 { return float64(cl.Writes) }, hl)
	reg.GaugeFunc("core.client.polls", func() float64 { return float64(cl.Polls()) }, hl)
	reg.GaugeFunc("core.client.bounce_bytes", func() float64 { return float64(cl.BounceBytes) }, hl)
	qv := cl.QueueView()
	reg.GaugeFunc("core.client.sq_doorbells", func() float64 { return float64(qv.SQDoorbells) }, hl)
	reg.GaugeFunc("core.client.sq_doorbells_saved", func() float64 { return float64(qv.SQDoorbellsSaved) }, hl)
	reg.GaugeFunc("core.client.cq_doorbells", func() float64 { return float64(qv.CQDoorbells) }, hl)
	reg.GaugeFunc("core.client.cq_rings_saved", func() float64 { return float64(qv.CQRingsSaved) }, hl)
	reg.GaugeFunc("core.client.inflight", func() float64 { return float64(qv.Inflight()) }, hl)
	reg.GaugeFunc("attr.client.slots_level", func() float64 { return float64(cl.SlotOcc.Level()) }, hl)
	reg.GaugeFunc("attr.client.slots_max_level", func() float64 { return float64(cl.SlotOcc.MaxLevel()) }, hl)
	k := cl.Kernel()
	reg.GaugeFunc("attr.client.slots_busy_ns", func() float64 { return float64(cl.SlotOcc.BusyAsOf(int64(k.Now()))) }, hl)
	reg.GaugeFunc("host.ios_completed", func() float64 { return float64(cl.Reads + cl.Writes + cl.Flushes) }, hl)
	cl.SetLatencyHist(reg.Histogram("host.latency", hl).Hist())
}

// WireHostDriverMetrics registers the stock driver's per-queue counters
// and its host.* fairness input.
func WireHostDriverMetrics(reg *trace.Registry, drv *hostdriver.Driver, host int) {
	hl := trace.L("host", host)
	for _, qs := range drv.QueueStats() {
		qid := qs.QID
		labels := []trace.Label{hl, trace.L("qid", qid)}
		reg.GaugeFunc("hostdriver.queue.submitted", func() float64 { return float64(drv.QueueStat(qid).Submitted) }, labels...)
		reg.GaugeFunc("hostdriver.queue.completed", func() float64 { return float64(drv.QueueStat(qid).Completed) }, labels...)
		reg.GaugeFunc("hostdriver.queue.sq_doorbells", func() float64 { return float64(drv.QueueStat(qid).SQDoorbells) }, labels...)
		reg.GaugeFunc("hostdriver.queue.sq_doorbells_saved", func() float64 { return float64(drv.QueueStat(qid).SQDoorbellsSaved) }, labels...)
		reg.GaugeFunc("hostdriver.queue.cq_doorbells", func() float64 { return float64(drv.QueueStat(qid).CQDoorbells) }, labels...)
		reg.GaugeFunc("hostdriver.queue.cq_rings_saved", func() float64 { return float64(drv.QueueStat(qid).CQRingsSaved) }, labels...)
		reg.GaugeFunc("hostdriver.queue.inflight", func() float64 { return float64(drv.QueueStat(qid).Inflight) }, labels...)
	}
	reg.GaugeFunc("host.ios_completed", func() float64 {
		var n uint64
		for _, qs := range drv.QueueStats() {
			n += qs.Completed
		}
		return float64(n)
	}, hl)
}

// clientHost returns the host index the scenario's client stack runs on.
func (e *Env) clientHost() int {
	switch e.Scenario {
	case OursRemote, NVMeoFRemote:
		return 1
	}
	return 0
}

// hostOfQID attributes a controller I/O queue to the host whose driver
// stack owns it: the distributed-driver client's queue belongs to the
// client host; everything else (stock driver, NVMe-oF target acting for
// its initiator) is driven from the scenario's client side too.
func (e *Env) hostOfQID(qid uint16) int {
	if e.Client != nil && qid == e.Client.QID() {
		return e.clientHost()
	}
	if e.Driver != nil {
		return 0 // stock driver runs on the device host
	}
	return e.clientHost()
}

// WireMetrics registers gauge callbacks over every layer of the
// assembled scenario into reg: sim-kernel event accounting, per-host
// PCIe TLP routing and NTB adapter LUT activity, controller aggregates
// plus per-queue attribution, and the driver-stack counters of
// whichever stack the scenario built.
//
// Registration order is fixed (kernel, hosts, controller, queues,
// driver stack) so Snapshot output is deterministic. Call it after the
// scenario's driver stack is up (inside RunWorkload's fn) so the
// controller's I/O queues exist and can be attributed.
func (e *Env) WireMetrics(reg *trace.Registry) {
	WireKernelMetrics(reg, e.Cluster.K)
	for _, h := range e.Cluster.Hosts {
		WireHostMetrics(reg, h)
	}
	WireControllerMetrics(reg, e.Ctrl)
	for _, qid := range e.Ctrl.ActiveIOQueues() {
		WireControllerQueueMetrics(reg, e.Ctrl, qid, e.hostOfQID(qid))
	}
	if cl := e.Client; cl != nil {
		WireClientMetrics(reg, cl, e.clientHost())
	}
	if drv := e.Driver; drv != nil {
		WireHostDriverMetrics(reg, drv, 0)
	}
	if tgt := e.Target; tgt != nil {
		hl := trace.L("host", 0)
		reg.GaugeFunc("nvmeof.target.polls", func() float64 { return float64(tgt.Polls) }, hl)
		reg.GaugeFunc("nvmeof.target.staged_bytes", func() float64 { return float64(tgt.StagedBytes) }, hl)
		reg.GaugeFunc("nvmeof.target.cpu_busy_ns", func() float64 { return float64(tgt.CPUBusyNs) }, hl)
	}
	if ini := e.Initiator; ini != nil {
		hl := trace.L("host", e.clientHost())
		reg.GaugeFunc("nvmeof.initiator.reads", func() float64 { return float64(ini.Reads) }, hl)
		reg.GaugeFunc("nvmeof.initiator.writes", func() float64 { return float64(ini.Writes) }, hl)
		reg.GaugeFunc("nvmeof.initiator.submissions", func() float64 { return float64(ini.Submissions) }, hl)
		reg.GaugeFunc("host.ios_completed", func() float64 { return float64(ini.Reads + ini.Writes) }, hl)
	}
}
