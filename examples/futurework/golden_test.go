package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/output.txt from this run")

// TestGolden byte-compares the example's output with
// testdata/output.txt; go test -run TestGolden -update rewrites it.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the golden is pinned on amd64; Go may fuse multiply-adds on %s, which moves float results", runtime.GOARCH)
	}
	const path = "testdata/output.txt"
	var got bytes.Buffer
	if err := run(&got); err != nil {
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
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from %s\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}
