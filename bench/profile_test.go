package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

var sink uint64

// busyLoopForProfileTest spins for d, so that a CPU profile taken around
// it charges nearly every sample to it.
//
//go:noinline
func busyLoopForProfileTest(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfileOfBusyLoop(t *testing.T) {
	runtime.SetCPUProfileRate(1000)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = busyLoopForProfileTest(500 * time.Millisecond)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The package's functions are named by its import path in a test
	// binary and "main." in the command.
	is := func(name string) func(string) bool {
		return func(fn string) bool { return strings.HasSuffix(fn, "."+name) }
	}
	var total, inLoop int64
	for _, s := range p.samples {
		total += s.count
		if i := slices.IndexFunc(s.stack, is("busyLoopForProfileTest")); i >= 0 {
			inLoop += s.count
			if i+1 >= len(s.stack) || !is("TestParseProfileOfBusyLoop")(s.stack[i+1]) {
				t.Errorf("stack %q: the loop's caller is not next towards the root", s.stack)
			}
		}
	}
	if total < 20 || float64(inLoop) < 0.8*float64(total) {
		t.Fatalf("%d of %d samples in the busy loop", inLoop, total)
	}

	var f folded
	f.add(p)
	if f.total != total || f.layer["other"] < inLoop {
		t.Errorf("fold: total %d, other %d; want %d, at least %d", f.total, f.layer["other"], total, inLoop)
	}
}

func TestFoldRules(t *testing.T) {
	p := &profile{samples: []profSample{
		{count: 1, stack: []string{"runtime.memmove", "repro/internal/memory.(*Memory).Write", "repro/internal/pcie.(*Domain).MemWrite"}},
		{count: 2, stack: []string{"runtime.futex", "runtime.notewakeup", "runtime.ready", "runtime.chansend1", "repro/internal/sim.(*Proc).Sleep", "repro/internal/core.(*Client).Read"}},
		{count: 4, stack: []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "repro/internal/nvme.(*Controller).fetch"}},
		{count: 8, stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{count: 16, stack: []string{"time.Now", "main.run"}},
		{count: 32, stack: []string{"repro/internal/volume.(*Nexus).Write"}},
		{count: 64, stack: []string{"repro/internal/sim.(*Kernel).Run"}},
	}}
	var f folded
	f.add(p)
	want := map[string]int64{"memory": 1, "sim": 2 + 64, "nvme": 4, "gc": 8, "other": 16 + 32}
	for l, n := range want {
		if f.layer[l] != n {
			t.Errorf("layer %s: %d samples, want %d", l, f.layer[l], n)
		}
	}
	if f.total != 127 || f.copy != 1 || f.handoff != 2 || f.malloc != 4 {
		t.Errorf("total %d copy %d handoff %d malloc %d; want 127, 1, 2, 4", f.total, f.copy, f.handoff, f.malloc)
	}
}
