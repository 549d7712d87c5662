package sim

import "testing"

// reportEventsPerSec attaches an events/sec metric derived from the
// kernel's executed counter and the benchmark's wall clock.
func reportEventsPerSec(b *testing.B, k *Kernel) {
	b.ReportMetric(float64(k.Executed())/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkKernelSleepChain is the fast-path ceiling: one process sleeping
// repeatedly with an otherwise empty heap, so every wakeup advances the
// clock inline without a process switch.
func BenchmarkKernelSleepChain(b *testing.B) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(100)
		}
	})
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}

// BenchmarkKernelPingPong is the slow-path floor: two processes waking
// each other through signals, so every wakeup hands the dispatch loop to
// the other process through the dispatcher (one handoff, two coroutine
// switches) plus heap (or run-queue) traffic.
func BenchmarkKernelPingPong(b *testing.B) {
	k := NewKernel()
	ping, pong := NewSignal(k), NewSignal(k)
	// pong spawns first so it is already waiting when ping's first Set
	// fires (signals are edge-triggered).
	k.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.WaitSignal(pong)
			p.Sleep(10)
			ping.Set()
		}
	})
	k.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pong.Set()
			p.WaitSignal(ping)
		}
	})
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}

// BenchmarkKernelSpawn measures process churn, the controller's pattern
// of one short process per command: b.N processes, each spawned by one
// long-lived process, sleeping once and exiting. Each starts on the
// runner the previous one parked, so only the first starts a runner.
func BenchmarkKernelSpawn(b *testing.B) {
	k := NewKernel()
	short := func(p *Proc) { p.Sleep(10) }
	k.Spawn("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.Spawn("short", short)
			p.Sleep(20)
		}
	})
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}

// BenchmarkKernelTimerChurn measures schedule+cancel traffic: every wait
// arms a timeout that the signal beats, exercising the pool's
// cancel/reuse path.
func BenchmarkKernelTimerChurn(b *testing.B) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(5)
			s.Set()
		}
	})
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			if !p.WaitSignalTimeout(s, 1000) {
				b.Error("unexpected timeout")
				return
			}
		}
	})
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}

// BenchmarkKernelFanout measures batched same-time dispatch: one trigger
// waking 64 waiters lands 64 wakeups on the run queue at one timestamp.
func BenchmarkKernelFanout(b *testing.B) {
	const waiters = 64
	k := NewKernel()
	s := NewSignal(k)
	done := NewSemaphore(k, 0)
	for w := 0; w < waiters; w++ {
		k.Spawn("w", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.WaitSignal(s)
				done.Release()
			}
		})
	}
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
			s.Set()
			for j := 0; j < waiters; j++ {
				p.Acquire(done)
			}
		}
	})
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}

// BenchmarkKernelHerd measures checked wakeups: each Release wakes 52
// processes blocked in Acquire, as a medium channel's release does on the
// benchmark's shared-8host-rw. One is served and the other 51 find no
// permit.
func BenchmarkKernelHerd(b *testing.B) {
	const waiters = 52
	k := NewKernel()
	s := NewSemaphore(k, 0)
	for w := 0; w < waiters; w++ {
		k.Spawn("w", func(p *Proc) {
			for {
				p.Acquire(s)
			}
		})
	}
	k.Spawn("releaser", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
			s.Release()
		}
	})
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}

// BenchmarkKernelHeapMix stresses the heap proper: many processes asleep
// with distinct deadlines, so the fast path rarely applies and pops and
// pushes dominate.
func BenchmarkKernelHeapMix(b *testing.B) {
	const procs = 128
	k := NewKernel()
	for w := 0; w < procs; w++ {
		stride := Duration(50 + 7*w)
		k.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(stride)
			}
		})
	}
	b.ResetTimer()
	k.RunAll()
	b.StopTimer()
	k.Shutdown()
	reportEventsPerSec(b, k)
}
