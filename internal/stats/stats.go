// Package stats provides streaming latency statistics for the benchmark
// harness: exact-sample collectors, percentile extraction, and the boxplot
// summaries (min / quartiles / p99 / max) used to reproduce Figure 10 of
// the paper.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample collects float64 observations (latencies in nanoseconds). It keeps
// every observation; workloads in this repository produce at most a few
// million samples, which is cheap to hold and keeps percentiles exact.
type Sample struct {
	vals   []float64
	sum    float64
	sorted bool
}

// NewSample returns an empty collector with capacity hint n.
func NewSample(n int) *Sample {
	return &Sample{vals: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// AddDuration records a virtual-time duration in nanoseconds.
func (s *Sample) AddDuration(ns int64) { s.Add(float64(ns)) }

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.vals) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// StdDev returns the population standard deviation.
func (s *Sample) StdDev() float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	m := s.Mean()
	var acc float64
	for _, v := range s.vals {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(n))
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. Empty samples return 0.
func (s *Sample) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.vals[lo]
	}
	frac := rank - float64(lo)
	return s.vals[lo]*(1-frac) + s.vals[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Boxplot is the five-number-plus-p99 summary the paper's Figure 10 plots:
// whiskers span minimum to 99th percentile; the box spans the quartiles.
type Boxplot struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	P99    float64
	Max    float64
	Mean   float64
}

// Box computes the boxplot summary of the sample.
func (s *Sample) Box() Boxplot {
	return Boxplot{
		N:      s.Count(),
		Min:    s.Min(),
		Q1:     s.Percentile(25),
		Median: s.Median(),
		Q3:     s.Percentile(75),
		P99:    s.Percentile(99),
		Max:    s.Max(),
		Mean:   s.Mean(),
	}
}

// String renders the summary with values scaled to microseconds, matching
// the units of the paper's plots.
func (b Boxplot) String() string {
	us := func(v float64) string { return fmt.Sprintf("%.2f", v/1000) }
	return fmt.Sprintf("n=%d min=%sus q1=%sus med=%sus q3=%sus p99=%sus max=%sus mean=%sus",
		b.N, us(b.Min), us(b.Q1), us(b.Median), us(b.Q3), us(b.P99), us(b.Max), us(b.Mean))
}
