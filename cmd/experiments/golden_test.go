package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// update rewrites the golden file from this run; see cmd/sweep's
// TestGolden for the command that regenerates every golden.
var update = flag.Bool("update", false, "rewrite the golden file from this run")

// TestGolden runs the suite in-process at its default flags, the run
// EXPERIMENTS.md cites, and byte-compares the table with the committed
// golden. A MISMATCH row fails the run before the comparison.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden is pinned on amd64; Go may fuse multiply-adds on %s, which moves float results", runtime.GOARCH)
	}
	const path = "testdata/experiments.txt"
	var got bytes.Buffer
	if err := run(nil, &got); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		if gl, wl := lineAt(g, i), lineAt(w, i); gl != wl {
			t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, gl, wl)
		}
	}
}

// lineAt quotes line i, or says the output has ended.
func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return strconv.Quote(lines[i])
	}
	return "end of file"
}
