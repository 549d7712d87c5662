package cluster

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
)

// warmQD1IOs runs ios 4 KiB QD1 IOs of op on scenario s after a warm-up,
// calling begin just before them and end just after, all inside one
// RunWorkload body on one P. The warm-up writes every IO slot and then
// runs 1000 IOs of op, so runners, posted-write records and per-command
// buffers are all made, and every measured IO lands on a block already
// written, which the medium overwrites in place.
func warmQD1IOs(t *testing.T, s Scenario, op block.Op, ios int, begin, end func(p *sim.Proc)) {
	t.Helper()
	const (
		warmIOs = 1000
		slots   = 1 << 10 // 4 KiB IO slots the warm-up writes in full
	)
	err := RunWorkload(s, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
		// Run on one P, as testing.AllocsPerRun does: a wakeup that finds
		// another P idle can make the runtime start a thread, whose
		// structures it allocates. The warm-up then also fills the
		// remaining P's cache of channel waiters.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		q := env.Queue
		buf := make([]byte, 4096)
		nblk := len(buf) / q.Device().BlockSize()
		// A stride coprime with slots visits every slot in turn.
		lba := func(i int) uint64 { return uint64(i*97%slots) * uint64(nblk) }
		for i := 0; i < slots; i++ {
			if err := q.SubmitAndWait(p, block.OpWrite, uint64(i*nblk), nblk, buf); err != nil {
				return err
			}
		}
		for i := 0; i < warmIOs; i++ {
			if err := q.SubmitAndWait(p, op, lba(i), nblk, buf); err != nil {
				return err
			}
		}
		begin(p)
		for i := 0; i < ios; i++ {
			if err := q.SubmitAndWait(p, op, lba(i), nblk, buf); err != nil {
				return err
			}
		}
		end(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOursRemoteQD1AllocsPerIO pins the allocation-free IO path. After
// the warm-up, an ours-remote 4 KiB QD1 IO allocates at most 3 objects:
// the client's completion event, and the controller command process's
// Proc and closure. The block layer allocates nothing, because the
// submitting process runs its request itself.
func TestOursRemoteQD1AllocsPerIO(t *testing.T) {
	const (
		ios      = 2000
		maxPerIO = 3
	)
	for _, op := range []block.Op{block.OpRead, block.OpWrite} {
		t.Run(op.String(), func(t *testing.T) {
			// Only the IO path's allocations may be counted, not the
			// runtime's. A collection clears the runtime's central caches
			// and wakes its cleanup goroutines, so none runs while
			// counting, nor during the warm-up, which would leave the
			// measured IOs to refill those caches.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var m0, m1 runtime.MemStats
			warmQD1IOs(t, OursRemote, op, ios, func(*sim.Proc) {
				runtime.ReadMemStats(&m0)
			}, func(*sim.Proc) {
				runtime.ReadMemStats(&m1)
			})
			perIO := float64(m1.Mallocs-m0.Mallocs) / ios
			t.Logf("%.2f allocations per IO", perIO)
			if perIO > maxPerIO {
				t.Errorf("%.2f allocations per IO, want at most %d", perIO, maxPerIO)
			}
		})
	}
}

// TestOursRemoteQD1HandoffsPerIO pins the goroutine switches of the IO
// path in each Fig. 10 scenario, so every completion path has a row: the
// client's polled CQ (ours-remote, ours-local), the stock driver's ISR
// (linux-local) and the NVMe-oF target's poller (nvmeof-remote). After
// the warm-up, an ours-remote 4 KiB QD1 IO passes the kernel's dispatch
// loop between goroutines at most 6 times:
//   - the submitting process 2: its command's completion wakes it, and
//     it yields once more in the client's completion cost while the
//     reaper finishes its sweep
//   - the client's reaper 2: the CQ edge wakes it, and its read of the
//     CQ ring yields once
//   - the controller and its command process 1 each
//
// The submitter runs its own request through the block layer. When a
// block worker ran it instead, the worker took the submitter's two plus
// one to pop the request, and waking the submitter at the end took one
// more: 8 in all. An NVMe-oF IO takes more, because rdma and the target
// spawn a process per message and per command.
func TestOursRemoteQD1HandoffsPerIO(t *testing.T) {
	const ios = 2000
	scenarios := []struct {
		s           Scenario
		read, write float64 // most handoffs per IO
	}{
		{OursRemote, 6, 6},
		{OursLocal, 6, 6},
		{LinuxLocal, 6, 6},
		{NVMeoFRemote, 25, 16},
	}
	for _, op := range []block.Op{block.OpRead, block.OpWrite} {
		t.Run(op.String(), func(t *testing.T) {
			for _, tc := range scenarios {
				maxPerIO := tc.read
				if op == block.OpWrite {
					maxPerIO = tc.write
				}
				t.Run(string(tc.s), func(t *testing.T) {
					var h0, h1 uint64
					warmQD1IOs(t, tc.s, op, ios, func(p *sim.Proc) {
						h0 = p.Kernel().Stats().Handoffs
					}, func(p *sim.Proc) {
						h1 = p.Kernel().Stats().Handoffs
					})
					perIO := float64(h1-h0) / ios
					t.Logf("%.2f handoffs per IO", perIO)
					if perIO > maxPerIO {
						t.Errorf("%.2f handoffs per IO, want at most %g", perIO, maxPerIO)
					}
				})
			}
		})
	}
}

// TestBringUpAllocatesOnlyWrittenDRAM pins the cost of simulated DRAM.
// Each host has 64 MiB, backed per 4 KiB page on first write, so a
// bring-up allocates only what it writes: under 4 MiB for a Fig. 10
// scenario with an empty workload and for eight client hosts with one IO
// each. Dense DRAM would allocate 64 MiB per host.
func TestBringUpAllocatesOnlyWrittenDRAM(t *testing.T) {
	const maxBytes = 4 << 20
	check := func(name string, run func() error) {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runtime.ReadMemStats(&m1)
		n := m1.TotalAlloc - m0.TotalAlloc
		t.Logf("%s: %.2f MiB allocated", name, float64(n)/(1<<20))
		if n >= maxBytes {
			t.Errorf("%s: %.2f MiB allocated, want under %d MiB", name, float64(n)/(1<<20), maxBytes>>20)
		}
	}
	for _, s := range Scenarios() {
		check(string(s), func() error {
			return RunWorkload(s, ScenarioConfig{}, func(*sim.Proc, *Env) error { return nil })
		})
	}
	check("multihost-8", func() error {
		_, err := RunMultiHost(MultiHostConfig{Hosts: 8, IOsPerHost: 1})
		return err
	})
}
