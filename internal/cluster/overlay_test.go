package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hostdriver"
	"repro/internal/nvme"
	"repro/internal/pcie"
)

func TestOverlayValidate(t *testing.T) {
	cases := []struct {
		name string
		o    LatencyOverlay
		ok   bool
	}{
		{"nil", nil, true},
		{"empty", LatencyOverlay{}, true},
		{"known", LatencyOverlay{KnobMedium: 0.5}, true},
		{"all knobs", func() LatencyOverlay {
			o := LatencyOverlay{}
			for _, k := range OverlayKnobs() {
				o[k] = 1.1
			}
			return o
		}(), true},
		{"unknown knob", LatencyOverlay{"flux.capacitor": 2}, false},
		{"zero factor", LatencyOverlay{KnobMedium: 0}, false},
		{"negative factor", LatencyOverlay{KnobMedium: -1}, false},
		{"nan", LatencyOverlay{KnobMedium: nan()}, false},
		{"inf", LatencyOverlay{KnobMedium: inf()}, false},
	}
	for _, tc := range cases {
		if err := tc.o.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestScaleNsClampsAndRounds(t *testing.T) {
	cases := []struct {
		ns   int64
		f    float64
		want int64
	}{
		{100, 2, 200},
		{100, 0.5, 50},
		{125, 0.9, 113}, // rounds to nearest
		{3, 0.1, 1},     // clamps: never collapses to the 0 "use default"
		{1, 0.01, 1},
		{0, 2, 0},   // zero stays zero (still means "use default")
		{-5, 2, -5}, // negative sentinel untouched
	}
	for _, tc := range cases {
		if got := ScaleNs(tc.ns, tc.f); got != tc.want {
			t.Errorf("ScaleNs(%d, %v) = %d, want %d", tc.ns, tc.f, got, tc.want)
		}
	}
}

// TestOverlayMaterializesDefaults checks the central convention: a zero
// config field means "use the calibrated default", so scaling must
// materialize the default first — a 0.5x knob over an all-zero config
// must equal 0.5x the documented calibration.
func TestOverlayMaterializesDefaults(t *testing.T) {
	o := LatencyOverlay{
		KnobNTBCross: 0.5, KnobSwitchHop: 0.5, KnobHostMMIO: 0.5,
		KnobCtrlDecode: 0.5, KnobCtrlCpl: 0.5, KnobMedium: 0.5,
		KnobHostSubmit: 0.5, KnobHostComplete: 0.5, KnobAdmin: 0.5,
	}
	cc := o.applyCluster(Config{})
	nc := o.applyNVMe(NVMeConfig{})
	cp := o.applyClient(core.ClientParams{})
	hp := o.applyHostDriver(hostdriver.Params{})

	dl := pcie.DefaultLinkParams()
	dc := nvme.DefaultParams()
	df := nvme.DefaultFlashParams()
	dcl := core.DefaultClientParams()
	dhd := hostdriver.DefaultParams()

	if got, want := cc.CrossNs, ScaleNs(DefaultCrossNs, 0.5); got != want {
		t.Errorf("CrossNs = %d, want %d", got, want)
	}
	if got, want := cc.Link.PerSwitchNs, ScaleNs(dl.PerSwitchNs, 0.5); got != want {
		t.Errorf("PerSwitchNs = %d, want %d", got, want)
	}
	if got, want := cc.Link.MMIOIssueNs, ScaleNs(dl.MMIOIssueNs, 0.5); got != want {
		t.Errorf("MMIOIssueNs = %d, want %d", got, want)
	}
	if got, want := nc.Ctrl.CmdOverheadNs, ScaleNs(dc.CmdOverheadNs, 0.5); got != want {
		t.Errorf("CmdOverheadNs = %d, want %d", got, want)
	}
	if got, want := nc.Ctrl.CplOverheadNs, ScaleNs(dc.CplOverheadNs, 0.5); got != want {
		t.Errorf("CplOverheadNs = %d, want %d", got, want)
	}
	if got, want := nc.Ctrl.AdminOverheadNs, ScaleNs(dc.CmdOverheadNs, 0.5); got != want {
		t.Errorf("AdminOverheadNs = %d, want %d", got, want)
	}
	if got, want := nc.Ctrl.EnableDelayNs, ScaleNs(dc.EnableDelayNs, 0.5); got != want {
		t.Errorf("EnableDelayNs = %d, want %d", got, want)
	}
	if got, want := nc.Flash.ReadBaseNs, ScaleNs(df.ReadBaseNs, 0.5); got != want {
		t.Errorf("ReadBaseNs = %d, want %d", got, want)
	}
	// Jitter and tail keep the baseline draws on purpose.
	if nc.Flash.JitterNs != 0 || nc.Flash.TailProb != 0 {
		t.Errorf("jitter/tail scaled: %+v", nc.Flash)
	}
	if got, want := cp.SubmitOverheadNs, ScaleNs(dcl.SubmitOverheadNs, 0.5); got != want {
		t.Errorf("SubmitOverheadNs = %d, want %d", got, want)
	}
	if got, want := cp.CompleteOverheadNs, ScaleNs(dcl.CompleteOverheadNs, 0.5); got != want {
		t.Errorf("CompleteOverheadNs = %d, want %d", got, want)
	}
	if got, want := hp.SubmitNs, ScaleNs(dhd.SubmitNs, 0.5); got != want {
		t.Errorf("SubmitNs = %d, want %d", got, want)
	}
	if got, want := hp.ISRNs, ScaleNs(dhd.ISRNs, 0.5); got != want {
		t.Errorf("ISRNs = %d, want %d", got, want)
	}
}

// TestOverlayExplicitFieldsScaleInPlace checks an explicitly set field
// scales from its set value, not the default.
func TestOverlayExplicitFieldsScaleInPlace(t *testing.T) {
	o := LatencyOverlay{KnobCtrlDecode: 2}
	nc := o.applyNVMe(NVMeConfig{Ctrl: nvme.Params{CmdOverheadNs: 1000}})
	if got := nc.Ctrl.CmdOverheadNs; got != 2000 {
		t.Errorf("CmdOverheadNs = %d, want 2000", got)
	}
}

// TestOverlayIdentity checks nil and factor-1 overlays leave configs
// bitwise untouched (baseline runs must stay byte-for-byte identical).
func TestOverlayIdentity(t *testing.T) {
	for _, o := range []LatencyOverlay{nil, {KnobMedium: 1, KnobCtrlDecode: 1}} {
		if got := o.applyCluster(Config{}); got != (Config{}) {
			t.Errorf("%v materialized cluster defaults: %+v", o, got)
		}
		if got := o.applyNVMe(NVMeConfig{}); got != (NVMeConfig{}) {
			t.Errorf("%v materialized controller defaults: %+v", o, got)
		}
		if got := o.applyClient(core.ClientParams{}); got != (core.ClientParams{}) {
			t.Errorf("%v materialized client defaults: %+v", o, got)
		}
		if got := o.applyHostDriver(hostdriver.Params{}); got != (hostdriver.Params{}) {
			t.Errorf("%v materialized driver defaults: %+v", o, got)
		}
	}
}
