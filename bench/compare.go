package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// Verdicts of a comparison between runs of a parent (A) and a change (B).
const (
	better     = "better"
	worse      = "worse"
	same       = "same"
	unresolved = "unresolved"
)

// quartiles returns the quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

// comparison is one (workload, metric) row.
type comparison struct {
	a, b    [3]float64 // quartiles; [1] is the median
	na, nb  int
	worseBy float64 // how much B's median is worse than A's, as a share of A's
	verdict string
}

// compareRuns judges runs b of a change against runs a of its parent:
//   - better: B wins at least nine tenths of the pairs (a[i], b[i]), ties
//     counting for neither, and the medians differ by more than the
//     distance between A's quartiles;
//   - worse: B's median is worse than A's by more than bound;
//   - unresolved: otherwise, when either side's quartile distance is
//     wider than bound (as a share of its median), unless every run of B
//     reads better than every run of A;
//   - same: otherwise.
func compareRuns(a, b []float64, higherIsBetter bool, bound float64) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b), na: len(a), nb: len(b)}
	// beats reports whether x reads strictly better than y.
	beats := func(x, y float64) bool {
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	ma, mb := c.a[1], c.b[1]
	switch {
	case ma == mb:
		c.worseBy = 0
	case ma == 0:
		c.worseBy = math.Inf(1)
		if beats(mb, ma) {
			c.worseBy = math.Inf(-1)
		}
	default:
		c.worseBy = (mb - ma) / math.Abs(ma)
		if higherIsBetter {
			c.worseBy = -c.worseBy
		}
	}

	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if beats(b[i], a[i]) {
			wins++
		}
	}
	spread := func(q [3]float64) float64 {
		if q[1] == 0 {
			return 0
		}
		return (q[2] - q[0]) / math.Abs(q[1])
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case beats(mb, ma) && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > c.a[2]-c.a[0]:
		c.verdict = better
	case c.worseBy > bound:
		c.verdict = worse
	case max(spread(c.a), spread(c.b)) > bound && !allBetter:
		c.verdict = unresolved
	default:
		c.verdict = same
	}
	return c
}

func readRecords(paths []string) ([]record, error) {
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// values collects one metric of one workload from records, in order.
func values(recs []record, workload, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// runCompare prints a verdict for every (workload, end-to-end metric)
// found in the two groups of result files, and fails on "worse" or on a
// metric that only one group reports.
func runCompare(args []string, specPath string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep < 1 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.json... -- B.json...")
		return 2
	}
	sp, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	a, err := readRecords(args[:sep])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readRecords(args[sep+1:])
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return printComparison(sp, a, b, stdout)
}

func printComparison(sp *spec, a, b []record, stdout io.Writer) int {
	fmt.Fprintf(stdout, "%-18s %-22s %-8s | %-32s | %-32s | %8s %6s  %s\n",
		"workload", "metric", "unit", "A  q1 / median / q3  (n)", "B  q1 / median / q3  (n)", "worse", "bound", "verdict")
	code, rows := 0, 0
	for _, w := range sp.Workloads {
		for _, sm := range sp.EndToEnd {
			av, bv := values(a, w.Name, sm.Name), values(b, w.Name, sm.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			rows++
			if len(av) == 0 || len(bv) == 0 {
				fmt.Fprintf(stdout, "%-18s %-22s %-8s | reported by one side only (A %d, B %d runs)\n",
					w.Name, sm.Name, sm.Unit, len(av), len(bv))
				code = 1
				continue
			}
			c := compareRuns(av, bv, sm.Better == "higher", sm.Bound)
			q := func(x [3]float64, n int) string {
				return fmt.Sprintf("%9.4g / %9.4g / %9.4g (%d)", x[0], x[1], x[2], n)
			}
			fmt.Fprintf(stdout, "%-18s %-22s %-8s | %-32s | %-32s | %7.2f%% %5.1f%%  %s\n",
				w.Name, sm.Name, sm.Unit, q(c.a, c.na), q(c.b, c.nb), 100*c.worseBy, 100*sm.Bound, c.verdict)
			if c.verdict == worse {
				code = 1
			}
		}
	}
	if rows == 0 {
		fmt.Fprintln(stdout, "no end-to-end metrics found in the result files")
		return 1
	}
	return code
}
