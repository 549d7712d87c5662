package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptySampleIsSafe(t *testing.T) {
	s := NewSample(0)
	if s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 ||
		s.Median() != 0 || s.StdDev() != 0 || s.Percentile(99) != 0 {
		t.Fatal("empty sample returned non-zero statistics")
	}
}

func TestSingleValue(t *testing.T) {
	s := NewSample(1)
	s.Add(7)
	for _, p := range []float64{0, 25, 50, 75, 99, 100} {
		if got := s.Percentile(p); got != 7 {
			t.Fatalf("P%.0f = %v, want 7", p, got)
		}
	}
	if s.Mean() != 7 || s.StdDev() != 0 {
		t.Fatalf("mean=%v stddev=%v, want 7/0", s.Mean(), s.StdDev())
	}
}

func TestKnownPercentiles(t *testing.T) {
	s := NewSample(5)
	for _, v := range []float64{10, 20, 30, 40, 50} {
		s.Add(v)
	}
	cases := []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {75, 40}, {100, 50},
		{12.5, 15}, // interpolated halfway between 10 and 20
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Fatalf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestMinMaxMean(t *testing.T) {
	s := NewSample(4)
	for _, v := range []float64{4, 1, 3, 2} {
		s.Add(v)
	}
	if s.Min() != 1 || s.Max() != 4 || s.Mean() != 2.5 {
		t.Fatalf("min=%v max=%v mean=%v", s.Min(), s.Max(), s.Mean())
	}
}

func TestAddAfterSortedQuery(t *testing.T) {
	s := NewSample(4)
	s.Add(5)
	_ = s.Min() // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Fatalf("Min after late Add = %v, want 1", s.Min())
	}
}

func TestStdDevKnown(t *testing.T) {
	s := NewSample(2)
	s.Add(2)
	s.Add(4)
	if got := s.StdDev(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("stddev = %v, want 1", got)
	}
}

func TestBoxplotOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSample(1000)
	for i := 0; i < 1000; i++ {
		s.Add(rng.Float64() * 100)
	}
	b := s.Box()
	if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.P99 && b.P99 <= b.Max) {
		t.Fatalf("boxplot not monotone: %+v", b)
	}
	if b.N != 1000 {
		t.Fatalf("N = %d, want 1000", b.N)
	}
}

func TestBoxplotString(t *testing.T) {
	s := NewSample(1)
	s.Add(12345) // ns
	got := s.Box().String()
	if got == "" {
		t.Fatal("empty string")
	}
}

// Property: percentile is monotone nondecreasing in p.
func TestPropPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
		}
		pa := math.Abs(math.Mod(a, 100))
		pb := math.Abs(math.Mod(b, 100))
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: min/max match a reference sort, and every percentile lies
// within [min, max].
func TestPropPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSample(len(raw))
		clean := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			s.Add(v)
			clean = append(clean, v)
		}
		sort.Float64s(clean)
		if s.Min() != clean[0] || s.Max() != clean[len(clean)-1] {
			return false
		}
		pp := math.Abs(math.Mod(p, 100))
		v := s.Percentile(pp)
		return v >= s.Min() && v <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
