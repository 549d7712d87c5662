package cluster

import (
	"repro/internal/attr"
	"repro/internal/nvme"
)

// UtilWindow is an occupancy baseline captured at workload start, so
// scenario utilizations cover only the measured window rather than the
// whole virtual timeline (bring-up can include long discovery timers —
// ours-remote idles ~10 virtual seconds before the first I/O — which
// would otherwise dilute every busy fraction toward zero). The zero
// value measures from virtual time zero.
type UtilWindow struct {
	startNs    int64
	ctrlBusyNs int64
	sqBusyNs   map[uint16]int64
	cqBusyNs   map[uint16]int64
	linkNs     int64
}

// StartUtilWindow snapshots the scenario's occupancy instruments at the
// current virtual time. Call it just before the workload starts.
func (e *Env) StartUtilWindow() *UtilWindow {
	now := int64(e.Cluster.K.Now())
	w := &UtilWindow{
		startNs:    now,
		ctrlBusyNs: e.Ctrl.BusyOcc.BusyAsOf(now),
		sqBusyNs:   make(map[uint16]int64),
		cqBusyNs:   make(map[uint16]int64),
	}
	for _, qid := range e.Ctrl.ActiveIOQueues() {
		qs := e.Ctrl.QueueStats(qid)
		w.sqBusyNs[qid] = qs.SQOcc.BusyAsOf(now)
		w.cqBusyNs[qid] = qs.CQOcc.BusyAsOf(now)
	}
	for _, h := range e.Cluster.Hosts {
		w.linkNs += h.Dom.Link().TotalNs
	}
	return w
}

// ResourceUtils measures the assembled scenario's per-resource busy
// fraction between the window baseline and the current virtual time
// (usually right after the workload drained). A nil window measures
// from virtual time zero. Pair it with an attr.BlameSet over the same
// run's spans to build a ranked bottleneck report.
func (e *Env) ResourceUtils(w *UtilWindow) map[string]float64 {
	if w == nil {
		w = &UtilWindow{}
	}
	return w.utils(e.Ctrl, e.Cluster.Hosts, int64(e.Cluster.K.Now()))
}

// utils measures busy-fraction utilization from the window's start to
// nowNs for the resources the attribution layer (internal/attr) blames,
// keyed by attr.Res* name. Only instrumented resources appear: the
// controller's command-execution busy time, the hottest SQ/CQ among the
// active I/O queues, and the cluster link's offered busy time summed
// over every host domain's cross-NTB traffic. Resources without an
// occupancy instrument (host software, the flash medium) are absent and
// reports render them as "-".
func (w UtilWindow) utils(ctrl *nvme.Controller, hosts []*Host, nowNs int64) map[string]float64 {
	elapsed := nowNs - w.startNs
	u := make(map[string]float64)
	if elapsed <= 0 {
		return u
	}
	u[attr.ResNVMeCtrl] = float64(ctrl.BusyOcc.BusyAsOf(nowNs)-w.ctrlBusyNs) / float64(elapsed)
	qids := ctrl.ActiveIOQueues()
	if len(qids) > 0 {
		var sqMax, cqMax float64
		for _, qid := range qids {
			qs := ctrl.QueueStats(qid)
			if v := float64(qs.SQOcc.BusyAsOf(nowNs)-w.sqBusyNs[qid]) / float64(elapsed); v > sqMax {
				sqMax = v
			}
			if v := float64(qs.CQOcc.BusyAsOf(nowNs)-w.cqBusyNs[qid]) / float64(elapsed); v > cqMax {
				cqMax = v
			}
		}
		u[attr.ResNVMeSQ] = sqMax
		u[attr.ResNVMeCQ] = cqMax
	}
	var linkNs int64
	for _, h := range hosts {
		linkNs += h.Dom.Link().TotalNs
	}
	u[attr.ResFabricLink] = float64(linkNs-w.linkNs) / float64(elapsed)
	return u
}
