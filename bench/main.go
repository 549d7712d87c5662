// Command bench is the repository's benchmark. It runs one workload of
// the shared-NVMe simulator, measures what the simulated system does in
// virtual time and what the simulator costs in host (wall) time, checks
// the outputs, and prints every metric with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones listed in
// BENCHMARK.json, with -trace 1 the per-layer ones. From the repository
// root:
//
//	bash bench/run.sh --workload remote-qd1-read --seed 7 --seconds 25 --trace 0 -out a.json
//	bash bench/run.sh -compare a1.json a2.json -- b1.json b2.json
//
// The second form compares result files of two versions of the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// record is a result with what produced it, as -out writes it.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Reps       int    `json:"reps"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUsOnline int    `json:"cpus_online"`
	GoVersion  string `json:"go_version"`
	Result     result `json:"result"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 7, "seed of every input the workload generates")
	seconds := fs.Int("seconds", 25, "how long timed repetitions keep starting")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	out := fs.String("out", "", "also write the result, with its workload, seed and environment, to this JSON file")
	compare := fs.Bool("compare", false, "compare result files with the bounds in BENCHMARK.json: -compare A.json... -- B.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), "BENCHMARK.json", stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "bench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}

	rec := record{
		Workload: w.name, Seed: *seed, Trace: *traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUsOnline: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	fmt.Fprintf(stdout, "workload %s seed %d trace %d gomaxprocs %d cpus_online %d %s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.GOMAXPROCS, rec.CPUsOnline, rec.GoVersion)
	m, err := measure(w, *seed, fullPlan(*seconds), *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rec.Reps, rec.Result = m.reps, m.result
	for _, p := range m.problems {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", w.name, p)
	}
	keys := make([]string, 0, len(m.Metrics))
	for k := range m.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "reps %d attempted %d failed %d correct %v\n", m.reps, m.Attempted, m.Failed, m.Correct)
	for _, k := range keys {
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", k, m.Metrics[k].Value, m.Metrics[k].Unit)
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(m.result)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !m.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// spec is the part of BENCHMARK.json that -compare and the tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return nil, errors.New(path + ": no end_to_end metrics")
	}
	return &s, nil
}
