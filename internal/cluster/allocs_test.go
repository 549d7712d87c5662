package cluster

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/block"
	"repro/internal/sim"
)

// TestOursRemoteQD1AllocsPerIO pins the allocation-free IO path. After a
// warm-up, an ours-remote 4 KiB QD1 IO allocates at most 5 objects: the
// block layer's Request and its Done event, the client's completion
// event, and the controller command process's Proc and closure. Kernel
// runners, posted-write records and per-command buffers are reused, and
// every IO lands on a block the warm-up wrote, so the medium overwrites
// in place. Allocations are counted inside the RunWorkload body, over
// the measured IOs alone.
func TestOursRemoteQD1AllocsPerIO(t *testing.T) {
	const (
		ios      = 2000
		warmIOs  = 1000
		maxPerIO = 5
		slots    = 1 << 10 // 4 KiB IO slots the warm-up writes in full
	)
	for _, op := range []block.Op{block.OpRead, block.OpWrite} {
		t.Run(op.String(), func(t *testing.T) {
			var perIO float64
			err := RunWorkload(OursRemote, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
				// Run on one P, as testing.AllocsPerRun does: a wakeup
				// that finds another P idle can make the runtime start a
				// thread, whose structures it allocates. The warm-up then
				// also fills the remaining P's cache of channel waiters.
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
				// Only the IO path's allocations may be counted, not the
				// runtime's. A collection clears the runtime's central
				// caches and wakes its cleanup goroutines, so none runs
				// while counting.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				for i := 0; i < ios; i++ {
					if err := q.SubmitAndWait(p, op, lba(i), nblk, buf); err != nil {
						return err
					}
				}
				runtime.ReadMemStats(&m1)
				perIO = float64(m1.Mallocs-m0.Mallocs) / ios
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%.2f allocations per IO", perIO)
			if perIO > maxPerIO {
				t.Errorf("%.2f allocations per IO, want at most %d", perIO, maxPerIO)
			}
		})
	}
}
