package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the golden files from this run. After a change that
// means to move the model, regenerate every golden with
//
//	GOMAXPROCS=1 go test ./cmd/sweep ./cmd/experiments -run Golden -update
//
// and review the diff. The command names the two packages because
// `go test ./... -update` fails in packages that do not define the flag.
var update = flag.Bool("update", false, "rewrite the golden files from this run")

// goldenRows are the report modes, each at fixed flags. "F" in args
// stands for the file the mode writes, which is what a row pins.
var goldenRows = []struct {
	name   string
	args   []string
	golden string
}{
	{"trace", []string{"-trace", "F", "-ios", "60"}, "testdata/trace.json"},
	{"telemetry", []string{"-telemetry", "F", "-hosts", "3", "-ios", "120"}, "testdata/telemetry.json"},
	{"faults-7", []string{"-faults", "-seed", "7", "-out", "F"}, "testdata/faults-7.json"},
	{"faults-11", []string{"-faults", "-seed", "11", "-out", "F"}, "testdata/faults-11.json"},
	{"faults-23", []string{"-faults", "-seed", "23", "-out", "F"}, "testdata/faults-23.json"},
	{"volume", []string{"-volume", "-seed", "7", "-out", "F"}, "testdata/volume.json"},
	{"qos", []string{"-qos", "-out", "F"}, "testdata/qos.json"},
	{"bottleneck", []string{"-bottleneck", "-ios", "120", "-out", "F"}, "testdata/bottleneck.txt"},
	{"whatif", []string{"-whatif", "-ios", "120", "-out", "F"}, "testdata/whatif.txt"},
	{"baseline", []string{"-baseline", "-ios", "200", "-out", "F"}, "../../BENCH_sim.json"},
}

// TestGolden runs every report mode in-process and byte-compares the
// file it writes with the committed golden, so any change to a
// virtual-time output fails here. The checks the modes make themselves
// fail a row too: the trace's schema and stage reconciliation, zero
// blame residual, the what-if error bound and the volume acceptance
// checks. The goldens are generated at GOMAXPROCS=1, so running this
// test at any other GOMAXPROCS is also the cross-core determinism check.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned on amd64; Go may fuse multiply-adds on %s, which moves float results", runtime.GOARCH)
	}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			out := filepath.Join(t.TempDir(), "out")
			args := make([]string, len(row.args))
			for i, a := range row.args {
				if a == "F" {
					a = out
				}
				args[i] = a
			}
			if err := run(args, io.Discard); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, row.golden, got)
		})
	}
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update. A mismatch reports the first differing line.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if gl, wl := lineAt(g, i), lineAt(w, i); gl != wl {
			t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, gl, wl)
		}
	}
}

// lineAt quotes line i, or says the file has ended.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return strconv.Quote(lines[i])
	}
	return "end of file"
}
