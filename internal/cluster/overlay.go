package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/hostdriver"
	"repro/internal/nvme"
	"repro/internal/pcie"
)

// Latency-overlay knobs: every calibrated latency/service constant the
// counterfactual engine (internal/whatif) can scale. A LatencyOverlay
// maps knob name -> multiplicative factor; the appliers below
// materialize the calibration defaults first and then scale, so a knob
// behaves identically whether the caller left the field zero ("use
// default") or set it explicitly. Stable identifiers: the what-if
// sensitivity matrix and its report (sweep -whatif) key on them.
const (
	// KnobNTBCross scales the cluster-switch+LUT crossing cost
	// (Config.CrossNs) — the NTB hop the CXL-pool roadmap item would
	// eliminate.
	KnobNTBCross = "ntb.cross"
	// KnobSwitchHop scales the per-switch-chip traversal cost
	// (pcie.LinkParams.PerSwitchNs) on every fabric path.
	KnobSwitchHop = "pcie.switch_hop"
	// KnobCtrlDecode scales controller firmware decode/setup per command
	// (nvme.Params.CmdOverheadNs).
	KnobCtrlDecode = "ctrl.decode"
	// KnobCtrlCpl scales controller firmware completion-path cost
	// (nvme.Params.CplOverheadNs).
	KnobCtrlCpl = "ctrl.cpl"
	// KnobMedium scales the flash medium service time (read/write base
	// plus the per-block increment; the seeded jitter and tail are NOT
	// scaled, so counterfactual runs keep the baseline's random draws).
	KnobMedium = "medium.service"
	// KnobHostMMIO scales the CPU cost of issuing a posted store
	// (pcie.LinkParams.MMIOIssueNs) — doorbells and CQ head rings.
	KnobHostMMIO = "host.mmio"
	// KnobHostSubmit scales host-side submission software (the
	// distributed client's SubmitOverheadNs, the stock driver's
	// SubmitNs).
	KnobHostSubmit = "host.submit"
	// KnobHostComplete scales host-side completion software (the
	// client's CompleteOverheadNs, the stock driver's ISRNs).
	KnobHostComplete = "host.complete"
	// KnobAdmin scales admin-queue service: per-admin-command firmware
	// overhead (nvme.Params.AdminOverheadNs, derived from the base
	// command overhead) and the CC.EN->CSTS.RDY enable delay. Steady-
	// state I/O never touches these; bring-up does.
	KnobAdmin = "admin.service"
)

// OverlayKnobs lists every knob in the canonical report order.
func OverlayKnobs() []string {
	return []string{
		KnobNTBCross, KnobSwitchHop,
		KnobCtrlDecode, KnobCtrlCpl, KnobMedium,
		KnobHostMMIO, KnobHostSubmit, KnobHostComplete,
		KnobAdmin,
	}
}

// LatencyOverlay maps knob names to multiplicative scale factors. A nil
// or empty overlay is the identity; so is a factor of exactly 1. Every
// scaled value is clamped to >= 1 ns so aggressive shrink factors never
// round a calibrated cost to 0, which the withDefaults convention would
// reinterpret as "use the default".
type LatencyOverlay map[string]float64

// Validate rejects unknown knobs and non-positive or non-finite
// factors.
func (o LatencyOverlay) Validate() error {
	known := make(map[string]bool)
	for _, k := range OverlayKnobs() {
		known[k] = true
	}
	names := make([]string, 0, len(o))
	for k := range o {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if !known[k] {
			return fmt.Errorf("cluster: unknown overlay knob %q", k)
		}
		f := o[k]
		if !(f > 0) || math.IsInf(f, 0) || math.IsNaN(f) {
			return fmt.Errorf("cluster: overlay knob %q needs a positive finite factor, got %v", k, f)
		}
	}
	return nil
}

// active reports whether knob carries a non-identity factor.
func (o LatencyOverlay) active(knob string) (float64, bool) {
	f, ok := o[knob]
	if !ok || f == 1 {
		return 1, false
	}
	return f, true
}

// ScaleNs scales a calibrated cost, rounding to the nearest ns and
// clamping positive inputs to >= 1 so a scaled knob can never collapse
// to the zero value that means "use the default".
func ScaleNs(ns int64, f float64) int64 {
	if ns <= 0 {
		return ns
	}
	v := int64(math.Round(float64(ns) * f))
	if v < 1 {
		v = 1
	}
	return v
}

// applyCluster scales the fabric knobs, materializing the cluster and
// link defaults the zero values stand for.
func (o LatencyOverlay) applyCluster(cc Config) Config {
	dl := pcie.DefaultLinkParams()
	if f, ok := o.active(KnobNTBCross); ok {
		if cc.CrossNs == 0 {
			cc.CrossNs = DefaultCrossNs
		}
		cc.CrossNs = ScaleNs(cc.CrossNs, f)
	}
	if f, ok := o.active(KnobSwitchHop); ok {
		if cc.Link.PerSwitchNs == 0 {
			cc.Link.PerSwitchNs = dl.PerSwitchNs
		}
		cc.Link.PerSwitchNs = ScaleNs(cc.Link.PerSwitchNs, f)
	}
	if f, ok := o.active(KnobHostMMIO); ok {
		if cc.Link.MMIOIssueNs == 0 {
			cc.Link.MMIOIssueNs = dl.MMIOIssueNs
		}
		cc.Link.MMIOIssueNs = ScaleNs(cc.Link.MMIOIssueNs, f)
	}
	return cc
}

// applyNVMe scales the controller and medium knobs.
func (o LatencyOverlay) applyNVMe(nc NVMeConfig) NVMeConfig {
	dc := nvme.DefaultParams()
	df := nvme.DefaultFlashParams()
	// The admin base derives from the pre-overlay command overhead, so
	// admin.service composes with ctrl.decode instead of double-scaling.
	adminBase := nc.Ctrl.AdminOverheadNs
	if adminBase == 0 {
		adminBase = nc.Ctrl.CmdOverheadNs
	}
	if adminBase == 0 {
		adminBase = dc.CmdOverheadNs
	}
	if f, ok := o.active(KnobCtrlDecode); ok {
		if nc.Ctrl.CmdOverheadNs == 0 {
			nc.Ctrl.CmdOverheadNs = dc.CmdOverheadNs
		}
		nc.Ctrl.CmdOverheadNs = ScaleNs(nc.Ctrl.CmdOverheadNs, f)
	}
	if f, ok := o.active(KnobCtrlCpl); ok {
		if nc.Ctrl.CplOverheadNs == 0 {
			nc.Ctrl.CplOverheadNs = dc.CplOverheadNs
		}
		nc.Ctrl.CplOverheadNs = ScaleNs(nc.Ctrl.CplOverheadNs, f)
	}
	if f, ok := o.active(KnobAdmin); ok {
		nc.Ctrl.AdminOverheadNs = ScaleNs(adminBase, f)
		if nc.Ctrl.EnableDelayNs == 0 {
			nc.Ctrl.EnableDelayNs = dc.EnableDelayNs
		}
		nc.Ctrl.EnableDelayNs = ScaleNs(nc.Ctrl.EnableDelayNs, f)
	}
	if f, ok := o.active(KnobMedium); ok {
		if nc.Flash.ReadBaseNs == 0 {
			nc.Flash.ReadBaseNs = df.ReadBaseNs
		}
		if nc.Flash.WriteBaseNs == 0 {
			nc.Flash.WriteBaseNs = df.WriteBaseNs
		}
		if nc.Flash.PerBlockNs == 0 {
			nc.Flash.PerBlockNs = df.PerBlockNs
		}
		nc.Flash.ReadBaseNs = ScaleNs(nc.Flash.ReadBaseNs, f)
		nc.Flash.WriteBaseNs = ScaleNs(nc.Flash.WriteBaseNs, f)
		nc.Flash.PerBlockNs = ScaleNs(nc.Flash.PerBlockNs, f)
	}
	return nc
}

// applyClient scales the distributed client's software-path knobs.
func (o LatencyOverlay) applyClient(cp core.ClientParams) core.ClientParams {
	d := core.DefaultClientParams()
	if f, ok := o.active(KnobHostSubmit); ok {
		if cp.SubmitOverheadNs == 0 {
			cp.SubmitOverheadNs = d.SubmitOverheadNs
		}
		cp.SubmitOverheadNs = ScaleNs(cp.SubmitOverheadNs, f)
	}
	if f, ok := o.active(KnobHostComplete); ok {
		if cp.CompleteOverheadNs == 0 {
			cp.CompleteOverheadNs = d.CompleteOverheadNs
		}
		cp.CompleteOverheadNs = ScaleNs(cp.CompleteOverheadNs, f)
	}
	return cp
}

// applyHostDriver scales the stock driver's software-path knobs.
func (o LatencyOverlay) applyHostDriver(hp hostdriver.Params) hostdriver.Params {
	d := hostdriver.DefaultParams()
	if f, ok := o.active(KnobHostSubmit); ok {
		if hp.SubmitNs == 0 {
			hp.SubmitNs = d.SubmitNs
		}
		hp.SubmitNs = ScaleNs(hp.SubmitNs, f)
	}
	if f, ok := o.active(KnobHostComplete); ok {
		if hp.ISRNs == 0 {
			hp.ISRNs = d.ISRNs
		}
		hp.ISRNs = ScaleNs(hp.ISRNs, f)
	}
	return hp
}
