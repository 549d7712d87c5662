package arrival

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// runStream drives an engine over a fixed horizon with a synthetic
// 20µs-service submit and returns (digest, per-tenant stats).
func runStream(t *testing.T, seed uint64, tenants []TenantSpec) (uint64, []TenantStats) {
	t.Helper()
	k := sim.NewKernel()
	eng, err := New(Config{
		Seed:       seed,
		Tenants:    tenants,
		SpanBlocks: 1 << 20,
		Submit: func(p *sim.Proc, tenant int, read bool, lba uint64, nblk int) error {
			p.Sleep(20 * sim.Microsecond)
			return nil
		},
		HorizonNs: int64(50 * sim.Millisecond),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Spawn("gen", eng.Run)
	k.RunAll()
	k.Shutdown()
	stats := make([]TenantStats, len(tenants))
	for i := range tenants {
		stats[i] = eng.Stats(i)
	}
	return eng.Digest(), stats
}

func mixedTenants() []TenantSpec {
	specs := Fleet(40, TenantSpec{
		Name: "poisson", Kind: Poisson, RateHz: 2000, ReadFrac: 0.7,
		MaxOutstanding: 4,
	})
	specs = append(specs, Fleet(40, TenantSpec{
		Name: "burst", Kind: MMPP, RateHz: 20000, ReadFrac: 0.5,
		OnMeanNs: int64(2 * sim.Millisecond), OffMeanNs: int64(8 * sim.Millisecond),
		MaxOutstanding: 8,
	})...)
	return specs
}

// TestArrivalDeterministicAcrossGOMAXPROCS is the byte-reproducibility
// gate: the same seed must yield an identical arrival digest and
// identical per-tenant counters whether the Go runtime schedules on one
// OS thread or eight. (Virtual time is single-threaded either way; this
// pins that no map iteration or scheduler-order dependence leaked in.)
func TestArrivalDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	d1, s1 := runStream(t, 42, mixedTenants())
	runtime.GOMAXPROCS(8)
	d8, s8 := runStream(t, 42, mixedTenants())
	runtime.GOMAXPROCS(prev)
	if d1 != d8 {
		t.Fatalf("digest differs: GOMAXPROCS=1 %#x vs GOMAXPROCS=8 %#x", d1, d8)
	}
	for i := range s1 {
		if s1[i] != s8[i] {
			t.Fatalf("tenant %d stats differ: %+v vs %+v", i, s1[i], s8[i])
		}
	}
	if d1 == fnvOffset {
		t.Fatal("digest never advanced: no arrivals generated")
	}
}

func TestArrivalSeedSensitivity(t *testing.T) {
	d42, _ := runStream(t, 42, mixedTenants())
	d43, _ := runStream(t, 43, mixedTenants())
	if d42 == d43 {
		t.Fatalf("different seeds produced identical digest %#x", d42)
	}
}

// TestPoissonRateConvergence checks the generated rate is within 10% of
// the configured mean over a long horizon.
func TestPoissonRateConvergence(t *testing.T) {
	horizon := int64(200 * sim.Millisecond)
	k := sim.NewKernel()
	eng, err := New(Config{
		Seed:       7,
		Tenants:    []TenantSpec{{Name: "t", Kind: Poisson, RateHz: 50000, ReadFrac: 1}},
		SpanBlocks: 1 << 16,
		Submit: func(p *sim.Proc, tenant int, read bool, lba uint64, nblk int) error {
			return nil
		},
		HorizonNs: horizon,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Spawn("gen", eng.Run)
	k.RunAll()
	k.Shutdown()
	got := float64(eng.Stats(0).Issued) / (float64(horizon) / 1e9)
	if math.Abs(got-50000)/50000 > 0.10 {
		t.Fatalf("Poisson rate %.0f Hz, want 50000 ± 10%%", got)
	}
}

// TestMMPPBurstiness: an on/off source with a 20%% duty cycle must show
// higher variance across time slices than a Poisson source of the same
// average rate would — here we just assert it leaves clear idle slices.
func TestMMPPBurstiness(t *testing.T) {
	const slices = 40
	horizon := int64(80 * sim.Millisecond)
	sliceNs := horizon / slices
	counts := make([]uint64, slices)
	k := sim.NewKernel()
	eng, err := New(Config{
		Seed: 11,
		Tenants: []TenantSpec{{
			Name: "b", Kind: MMPP, RateHz: 50000, ReadFrac: 1,
			OnMeanNs: int64(2 * sim.Millisecond), OffMeanNs: int64(8 * sim.Millisecond),
		}},
		SpanBlocks: 1 << 16,
		Submit: func(p *sim.Proc, tenant int, read bool, lba uint64, nblk int) error {
			idx := int(p.Now() / sliceNs)
			if idx >= slices {
				idx = slices - 1
			}
			counts[idx]++
			return nil
		},
		HorizonNs: horizon,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Spawn("gen", eng.Run)
	k.RunAll()
	k.Shutdown()
	idle := 0
	for _, c := range counts {
		if c == 0 {
			idle++
		}
	}
	if idle < slices/4 {
		t.Fatalf("MMPP with 20%% duty cycle left only %d/%d idle slices; not bursty", idle, slices)
	}
}

// TestOutstandingBoundDrops: with service far slower than arrivals and a
// tight outstanding bound, most arrivals must be dropped, none lost.
func TestOutstandingBoundDrops(t *testing.T) {
	k := sim.NewKernel()
	eng, err := New(Config{
		Seed: 3,
		Tenants: []TenantSpec{{
			Name: "hot", Kind: Poisson, RateHz: 100000, ReadFrac: 1, MaxOutstanding: 2,
		}},
		SpanBlocks: 1 << 16,
		Submit: func(p *sim.Proc, tenant int, read bool, lba uint64, nblk int) error {
			p.Sleep(1 * sim.Millisecond)
			return nil
		},
		HorizonNs: int64(20 * sim.Millisecond),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Spawn("gen", eng.Run)
	k.RunAll()
	k.Shutdown()
	s := eng.Stats(0)
	if s.Dropped == 0 {
		t.Fatal("expected drops under a tight outstanding bound")
	}
	if s.Issued == 0 || s.Completed != s.Issued {
		t.Fatalf("accounting: %+v (Completed must equal Issued after drain)", s)
	}
	if eng.Outstanding(0) != 0 {
		t.Fatalf("outstanding %d after drain", eng.Outstanding(0))
	}
}

// TestShedClassification: errors matching Config.Shed count as Shed,
// others as Failed.
func TestShedClassification(t *testing.T) {
	shed := errors.New("shed")
	other := errors.New("boom")
	k := sim.NewKernel()
	n := 0
	eng, err := New(Config{
		Seed: 5,
		Tenants: []TenantSpec{{
			Name: "t", Kind: Poisson, RateHz: 10000, ReadFrac: 1,
		}},
		SpanBlocks: 1 << 16,
		Shed:       shed,
		Submit: func(p *sim.Proc, tenant int, read bool, lba uint64, nblk int) error {
			n++
			switch n % 3 {
			case 0:
				return fmt.Errorf("wrapped: %w", shed)
			case 1:
				return other
			}
			return nil
		},
		HorizonNs: int64(10 * sim.Millisecond),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k.Spawn("gen", eng.Run)
	k.RunAll()
	k.Shutdown()
	s := eng.Stats(0)
	if s.Shed == 0 || s.Failed == 0 || s.Completed == 0 {
		t.Fatalf("classification: %+v", s)
	}
	if s.Shed+s.Failed+s.Completed != s.Issued {
		t.Fatalf("accounting: %+v", s)
	}
}
