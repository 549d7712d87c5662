package qos

import (
	"testing"

	"repro/internal/sim"
)

// feed records lat for tenant i across enough windows to move the loop.
func tickN(k *sim.Kernel, n int, winNs int64) {
	// Tickers only fire while the kernel runs; idle-spin a proc across
	// the windows.
	k.Spawn("drive", func(p *sim.Proc) {
		p.Sleep(sim.Time(n) * winNs)
	})
	k.RunAll()
}

func TestViolationTripsThrottleAndRecovers(t *testing.T) {
	k := sim.NewKernel()
	win := int64(windowNs)
	c := NewController(k, Params{ViolateAfter: 2, Decrease: 0.5, Increase: 0.25},
		[]TenantConfig{{Name: "lat", SLO: SLO{P99Ns: 100_000}}})
	defer c.Stop()

	// Phase 1: four windows of 1ms latencies — way over a 100µs p99 SLO.
	k.Spawn("load", func(p *sim.Proc) {
		for w := 0; w < 4; w++ {
			for i := 0; i < 50; i++ {
				c.Observe(0, int64(sim.Millisecond))
			}
			p.Sleep(win)
		}
	})
	k.RunAll()
	s := c.Snapshot(0)
	if s.Violations < 3 {
		t.Fatalf("violations = %d, want >= 3", s.Violations)
	}
	if !s.Throttled || s.Throttles == 0 {
		t.Fatalf("expected throttling after sustained violation: %+v", s)
	}
	fracAfterTrip := s.AdmitFrac

	// Phase 2: six clean windows — admit fraction must walk back up.
	k.Spawn("recover", func(p *sim.Proc) {
		for w := 0; w < 6; w++ {
			for i := 0; i < 50; i++ {
				c.Observe(0, int64(10*sim.Microsecond))
			}
			p.Sleep(win)
		}
	})
	k.RunAll()
	s = c.Snapshot(0)
	if s.AdmitFrac <= fracAfterTrip {
		t.Fatalf("admit fraction did not recover: %.2f -> %.2f", fracAfterTrip, s.AdmitFrac)
	}
}

func TestZeroSLONeverThrottles(t *testing.T) {
	k := sim.NewKernel()
	win := int64(windowNs)
	c := NewController(k, Params{}, []TenantConfig{{Name: "be"}})
	defer c.Stop()
	k.Spawn("load", func(p *sim.Proc) {
		for w := 0; w < 5; w++ {
			for i := 0; i < 20; i++ {
				c.Observe(0, int64(10*sim.Millisecond))
			}
			p.Sleep(win)
		}
	})
	k.RunAll()
	s := c.Snapshot(0)
	if s.Violations != 0 || s.Throttled {
		t.Fatalf("best-effort tenant must never violate or throttle: %+v", s)
	}
	if s.Windows == 0 {
		t.Fatal("windows were not evaluated")
	}
}

// TestAdmitPacingRatio: at admit fraction f the counted-ratio pacer
// must admit within one request of f*N over any prefix, deterministically.
func TestAdmitPacingRatio(t *testing.T) {
	k := sim.NewKernel()
	c := NewController(k, Params{}, []TenantConfig{{Name: "t", SLO: SLO{P99Ns: 1}}})
	defer c.Stop()
	c.tenants[0].admitFrac = 0.3
	admitted := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if c.Admit(0, int64(i)) {
			admitted++
		}
	}
	if admitted < 299 || admitted > 301 {
		t.Fatalf("admitted %d/%d at frac 0.3", admitted, n)
	}
	// Determinism: a second identical history gives identical decisions.
	c2 := NewController(k, Params{}, []TenantConfig{{Name: "t", SLO: SLO{P99Ns: 1}}})
	defer c2.Stop()
	c2.tenants[0].admitFrac = 0.3
	for i := 0; i < n; i++ {
		c2.Admit(0, int64(i))
	}
	if c2.TotalSheds() != c.TotalSheds() {
		t.Fatalf("pacer not deterministic: sheds %d vs %d", c.TotalSheds(), c2.TotalSheds())
	}
}

func TestMinAdmitFloor(t *testing.T) {
	k := sim.NewKernel()
	win := int64(windowNs)
	c := NewController(k, Params{ViolateAfter: 1, Decrease: 0.1},
		[]TenantConfig{{Name: "t", SLO: SLO{P99Ns: 1_000}}})
	defer c.Stop()
	k.Spawn("load", func(p *sim.Proc) {
		for w := 0; w < 10; w++ {
			for i := 0; i < 30; i++ {
				c.Observe(0, int64(sim.Millisecond))
			}
			p.Sleep(win)
		}
	})
	k.RunAll()
	// Two trips at Decrease 0.1 would reach 0.01; the floor holds it.
	if f := c.Snapshot(0).AdmitFrac; f != minAdmit {
		t.Fatalf("admit fraction %.3f, want the floor %.2f", f, minAdmit)
	}
	if c.MinAdmitFrac() != c.Snapshot(0).AdmitFrac {
		t.Fatal("MinAdmitFrac mismatch")
	}
}
