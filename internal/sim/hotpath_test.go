package sim

import (
	"runtime"
	"testing"
)

// TestShutdownDoesNotCountExecuted is the regression test for the drain
// counter bug: items discarded by Shutdown must not inflate Executed,
// which tests use for runaway detection.
func TestShutdownDoesNotCountExecuted(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10; i++ {
		k.After(Duration(i+1), func() {})
	}
	k.Run(5)
	ran := k.Executed()
	if ran != 5 {
		t.Fatalf("executed %d items by t=5, want 5", ran)
	}
	k.Shutdown() // discards the 5 items still pending
	if got := k.Executed(); got != ran {
		t.Fatalf("Shutdown changed executed from %d to %d", ran, got)
	}
}

// TestCancelThenRescheduleSameTime covers cancel-then-reschedule at one
// timestamp: the canceled item's pooled storage may be reused by the new
// schedule, and only the new one must fire.
func TestCancelThenRescheduleSameTime(t *testing.T) {
	k := NewKernel()
	var fired []string
	k.After(10, func() {
		tm := k.schedule(k.now, func() { fired = append(fired, "old") })
		k.cancel(tm)
		k.schedule(k.now, func() { fired = append(fired, "new") })
	})
	k.RunAll()
	if len(fired) != 1 || fired[0] != "new" {
		t.Fatalf("fired = %v, want [new]", fired)
	}
}

// TestCancelAlreadyFired: canceling an item that already ran must be a
// no-op even though its pooled storage has been reused by a later,
// still-pending item.
func TestCancelAlreadyFired(t *testing.T) {
	k := NewKernel()
	var tm timer
	fired := 0
	k.After(0, func() {
		tm = k.schedule(5, func() {})
	})
	k.After(6, func() {
		// tm fired at t=5 and its item returned to the pool. Take the
		// pool slot for a new pending item, then cancel the stale handle.
		k.schedule(10, func() { fired++ })
		k.cancel(tm) // must not kill the reused item
	})
	k.RunAll()
	if fired != 1 {
		t.Fatalf("reused item fired %d times, want 1 (stale cancel killed it?)", fired)
	}
}

// TestPooledItemGeneration: a handle to a canceled-and-reused item must
// not be able to cancel or fire through the old identity.
func TestPooledItemGeneration(t *testing.T) {
	k := NewKernel()
	fired := 0
	var stale timer
	k.After(0, func() {
		stale = k.schedule(5, func() { t_fatal(nil) })
		k.cancel(stale) // released to pool immediately
		// Reuse the storage for a live item.
		k.schedule(5, func() { fired++ })
		if stale.it.gen == stale.gen {
			t_fatal(nil)
		}
		k.cancel(stale) // stale gen: must not cancel the live item
	})
	k.RunAll()
	if fired != 1 {
		t.Fatalf("live item fired %d times, want 1", fired)
	}
}

// t_fatal placates staticcheck on closures that must not run.
func t_fatal(any) { panic("unreachable path executed") }

// TestDoubleCancelIsNoop: canceling the same handle twice is safe in both
// heap and run-queue states.
func TestDoubleCancelIsNoop(t *testing.T) {
	k := NewKernel()
	k.After(0, func() {
		tm := k.schedule(7, func() { t_fatal(nil) })
		k.cancel(tm)
		k.cancel(tm)
		rq := k.schedule(k.now, func() { t_fatal(nil) }) // run-queue item
		k.cancel(rq)
		k.cancel(rq)
	})
	k.RunAll()
}

// TestWaitTimeoutSameTimestampNoStaleWake: when an event trigger and the
// timeout timer land on the same virtual timestamp with the timer
// dispatched first, the trigger's wakeup for the process is stale and
// must not spuriously resume the process's NEXT blocking call.
func TestWaitTimeoutSameTimestampNoStaleWake(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	// Schedule the trigger for t=10 *before* spawning the waiter, so the
	// trigger's wake item outranks the timer by (time, seq)... then flip:
	// schedule at t=10 AFTER the timer exists so the timer runs first.
	var gotTimeout bool
	var secondWaitBroken bool
	p1 := k.Spawn("waiter", func(p *Proc) {
		_, ok := p.WaitTimeout(ev, 10) // timer scheduled now for t=10
		gotTimeout = !ok
		// Block again; a stale wake from the trigger below would resume
		// this wait instantly at t=10 instead of t=50.
		p.Sleep(40)
		if p.Now() != 50 {
			secondWaitBroken = true
		}
	})
	_ = p1
	k.After(10, func() { ev.Trigger(nil) }) // same timestamp as the timer, later seq
	k.RunAll()
	// The trigger fn dispatches before the timer wake (smaller seq), so
	// the event is triggered when the timer resumes the proc: a trigger
	// win. The trigger's own wake item is then stale; the epoch guard
	// must discard it instead of resuming the proc's next block.
	if gotTimeout {
		t.Fatal("expected the trigger to win the same-timestamp race")
	}
	if secondWaitBroken {
		t.Fatal("stale trigger wake resumed the process's next block early")
	}
}

// TestSignalSetDuringPendingWakes: waiters appended after a Set (while the
// previous waiters' wakeups are still pending) must survive the waiter
// slice reuse and be woken by the next Set.
func TestSignalSetDuringPendingWakes(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	woken := make([]int, 0, 4)
	for i := 0; i < 2; i++ {
		id := i
		k.Spawn("w", func(p *Proc) {
			p.WaitSignal(s)
			woken = append(woken, id)
			p.WaitSignal(s) // re-wait immediately: lands in the reused slice
			woken = append(woken, id+10)
		})
	}
	k.After(5, func() { s.Set() })
	k.After(9, func() { s.Set() })
	k.RunAll()
	if len(woken) != 4 {
		t.Fatalf("woken = %v, want 4 wakeups across two sets", woken)
	}
}

// TestRunQueueOrderingMatchesHeap: same-timestamp items scheduled during
// dispatch (run-queue) interleave with pre-existing heap items in exact
// (time, seq) order.
func TestRunQueueOrderingMatchesHeap(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(10, func() { // seq A at t=10
		order = append(order, 1)
		// These go to the run queue (t == now during dispatch)...
		k.schedule(k.now, func() { order = append(order, 3) })
		k.schedule(k.now, func() { order = append(order, 4) })
	})
	k.After(10, func() { order = append(order, 2) }) // heap item, smaller seq than the runq items
	k.After(11, func() { order = append(order, 5) })
	k.RunAll()
	want := []int{1, 2, 3, 4, 5}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestSleepFastPathCountsExecuted: inline-advanced sleeps stand in for a
// heap item and must still count toward Executed.
func TestSleepFastPathCountsExecuted(t *testing.T) {
	k := NewKernel()
	k.Spawn("s", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(3)
		}
	})
	k.RunAll()
	if k.Now() != 300 {
		t.Fatalf("clock = %d, want 300", k.Now())
	}
	if k.Executed() < 100 {
		t.Fatalf("executed = %d, want >= 100 (fast-path sleeps must count)", k.Executed())
	}
}

// TestSleepFastPathRespectsRunLimit: a fast-path sleep must not advance
// the clock past Run's limit.
func TestSleepFastPathRespectsRunLimit(t *testing.T) {
	k := NewKernel()
	var resumedAt Time
	k.Spawn("s", func(p *Proc) {
		p.Sleep(100)
		resumedAt = p.Now()
	})
	k.Run(50)
	if k.Now() != 50 {
		t.Fatalf("clock after Run(50) = %d, want 50", k.Now())
	}
	if resumedAt != 0 {
		t.Fatalf("proc resumed at %d before the limit was lifted", resumedAt)
	}
	k.Run(200)
	if resumedAt != 100 {
		t.Fatalf("proc resumed at %d, want 100", resumedAt)
	}
	k.Shutdown()
}

// TestScheduleZeroAllocSteadyState verifies the free-list pool: once the
// pool is warm, schedule+dispatch allocates nothing.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	k.After(0, nop)
	k.RunAll() // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		k.After(1, nop)
		k.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestWakeupZeroAllocSteadyState: a full signal round trip (Set, wake,
// re-wait, sleep) allocates nothing once warm.
func TestWakeupZeroAllocSteadyState(t *testing.T) {
	k := NewKernel()
	s := NewSignal(k)
	k.Spawn("w", func(p *Proc) {
		for {
			p.WaitSignal(s)
			p.Sleep(5)
		}
	})
	k.RunAll()
	for i := 0; i < 8; i++ { // warm pool and waiter slice
		s.Set()
		k.RunAll()
	}
	allocs := testing.AllocsPerRun(200, func() {
		s.Set()
		k.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("signal wakeup allocates %.1f objects/op in steady state, want 0", allocs)
	}
	k.Shutdown()
}

// TestHandoffsPerSwitch pins the handoff count: a switch between two
// processes is one handoff, through the dispatcher, and a process whose
// own wakeup comes next keeps the dispatch loop without any.
func TestHandoffsPerSwitch(t *testing.T) {
	t.Run("ping-pong", func(t *testing.T) {
		const rounds = 50
		k := NewKernel()
		ping, pong := NewSignal(k), NewSignal(k)
		var during uint64
		k.Spawn("pong", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.WaitSignal(pong)
				ping.Set()
			}
		})
		k.Spawn("ping", func(p *Proc) {
			before := k.handoffs
			for i := 0; i < rounds; i++ {
				pong.Set()
				p.WaitSignal(ping)
			}
			during = k.handoffs - before
		})
		k.RunAll()
		if during != 2*rounds {
			t.Errorf("%d rounds took %d handoffs, want %d", rounds, during, 2*rounds)
		}
		// Plus one start per process and the return to Run's caller.
		if want := uint64(2*rounds + 3); k.handoffs != want {
			t.Errorf("run took %d handoffs, want %d", k.handoffs, want)
		}
	})
	t.Run("sleep past a callback", func(t *testing.T) {
		k := NewKernel()
		ran := false
		var during uint64
		var woke Time
		k.Spawn("sleeper", func(p *Proc) {
			k.After(5, func() { ran = true })
			before := k.handoffs
			p.Sleep(10) // the pending callback rules out the inline fast path
			during = k.handoffs - before
			woke = p.Now()
		})
		k.RunAll()
		if !ran || woke != 10 || k.Stats().InlineSleeps != 0 {
			t.Fatalf("ran=%v woke=%d inline=%d, want true, 10, 0", ran, woke, k.Stats().InlineSleeps)
		}
		if during != 0 {
			t.Errorf("sleep took %d handoffs, want 0", during)
		}
	})
}

// checkedWaits builds a Queue and a Semaphore with nothing to take, each as
// a blocking take and a give: Pop and Push, Acquire and Release.
var checkedWaits = []struct {
	name string
	make func(k *Kernel) (take func(p *Proc), give func())
}{
	{"queue", func(k *Kernel) (func(*Proc), func()) {
		q := NewQueue(k)
		return func(p *Proc) { p.Pop(q) }, func() { q.Push(0) }
	}},
	{"semaphore", func(k *Kernel) (func(*Proc), func()) {
		s := NewSemaphore(k, 0)
		return func(p *Proc) { p.Acquire(s) }, s.Release
	}},
}

// TestCheckedWakeupHerd pins checked wakeups: a Push (Release) with 16
// processes blocked in Pop (Acquire) schedules their 16 wakeups as one
// herd item, which Scheduled, RunQueued and Executed count as 16. Only
// the first wakeup finds an element (permit) and resumes its process. The
// other 15 are taken without a process switch, so the giver's sleep costs
// one handoff to the served process and one back. Resuming every waiter
// would take 17.
func TestCheckedWakeupHerd(t *testing.T) {
	const waiters = 16
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			take, give := tc.make(k)
			served := 0
			for i := 0; i < waiters; i++ {
				k.Spawn("taker", func(p *Proc) {
					take(p)
					served++
				})
			}
			var during, queued uint64
			var before, given KernelStats
			k.SpawnAt(1, "giver", func(p *Proc) {
				before = k.Stats()
				give()
				given, queued = k.Stats(), uint64(len(k.runq)-k.rqh)
				p.Sleep(1)
				during = k.handoffs - before.Handoffs
			})
			k.RunAll()
			if served != 1 {
				t.Fatalf("one give served %d takers, want 1", served)
			}
			if queued != 1 {
				t.Errorf("the give left %d items in the run queue, want 1", queued)
			}
			if got := given.Scheduled - before.Scheduled; got != waiters {
				t.Errorf("the give scheduled %d items, want %d", got, waiters)
			}
			if got := given.RunQueued - before.RunQueued; got != waiters {
				t.Errorf("the give run-queued %d items, want %d", got, waiters)
			}
			// The herd's wakeups and the giver's own.
			if got := k.Executed() - before.Executed; got != waiters+1 {
				t.Errorf("executed %d items after the give, want %d", got, waiters+1)
			}
			if during != 2 {
				t.Errorf("give and sleep took %d handoffs, want 2", during)
			}
			if got := k.Stats().Handoffs; got != k.handoffs {
				t.Errorf("Stats().Handoffs = %d, want %d", got, k.handoffs)
			}
			k.Shutdown()
		})
	}
}

// TestCheckedWakeupOrder pins the order checked wakeups keep from wake-all,
// which every golden depends on. B, then C, block. The giver gives and
// takes the element (permit) back before B runs, so both find nothing and
// wait again, B first. The next give serves B. Waking only the longest
// waiter would serve C: B, woken alone, would wait again behind C.
func TestCheckedWakeupOrder(t *testing.T) {
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			take, give := tc.make(k)
			var served []string
			for _, name := range []string{"B", "C"} {
				k.Spawn(name, func(p *Proc) {
					take(p)
					served = append(served, p.Name())
				})
			}
			var first []string
			k.SpawnAt(1, "giver", func(p *Proc) {
				give()
				take(p) // does not block: the element (permit) is there
				p.Sleep(1)
				give()
				p.Sleep(1)
				first = append(first, served...)
				give()
			})
			k.RunAll()
			if len(first) != 1 || first[0] != "B" {
				t.Errorf("after a retaken give, the next give served %v, want [B]", first)
			}
			if len(served) != 2 || served[1] != "C" {
				t.Errorf("served %v, want [B C]", served)
			}
			k.Shutdown()
		})
	}
}

// TestCheckedWakeupOfOne: a give to a lone waiter is a herd of one, and
// is checked like any other. The giver takes the element (permit) back
// before the waiter's wakeup, which then finds nothing: the waiter stays
// blocked with no process switch. The giver's own wakeup comes next, so
// its sleep keeps the dispatch loop and costs no handoff. Resuming the
// waiter would take two, to the waiter and back.
func TestCheckedWakeupOfOne(t *testing.T) {
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			take, give := tc.make(k)
			served := 0
			k.Spawn("taker", func(p *Proc) {
				take(p)
				served++
			})
			var during uint64
			var before, after KernelStats
			k.SpawnAt(1, "giver", func(p *Proc) {
				before = k.Stats()
				give()
				take(p) // does not block: the element (permit) is there
				p.Sleep(1)
				after = k.Stats()
				during = after.Handoffs - before.Handoffs
			})
			k.RunAll()
			if served != 0 {
				t.Fatalf("a retaken give served %d takers, want 0", served)
			}
			if got := after.Scheduled - before.Scheduled; got != 2 {
				t.Errorf("give and sleep scheduled %d items, want 2", got)
			}
			if during != 0 {
				t.Errorf("give and sleep took %d handoffs, want 0", during)
			}
			k.Shutdown()
		})
	}
}

// TestHerdServedWaiterGivesBack: A, B and C block, and one give wakes
// them as a herd. A is served and gives back at once, while the herd still
// holds B and C, so the give back wakes no one. The herd's next wakeup
// serves B, as wake-all would, and C waits again.
func TestHerdServedWaiterGivesBack(t *testing.T) {
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			take, give := tc.make(k)
			var served []string
			for _, name := range []string{"A", "B", "C"} {
				k.Spawn(name, func(p *Proc) {
					take(p)
					served = append(served, p.Name())
					if p.Name() == "A" {
						give()
					}
				})
			}
			k.After(1, give)
			k.RunAll()
			if len(served) != 2 || served[0] != "A" || served[1] != "B" {
				t.Errorf("one give served %v, want [A B]", served)
			}
			k.Shutdown()
		})
	}
}

// TestHerdServedWaiterBlocksAgain: A, B and C block, and one give wakes
// them as a herd. A is served and blocks again before the herd ends, so
// it queues ahead of B and C, whose wakeups find nothing: the next give
// serves A again.
func TestHerdServedWaiterBlocksAgain(t *testing.T) {
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			take, give := tc.make(k)
			var served []string
			for _, name := range []string{"A", "B", "C"} {
				k.Spawn(name, func(p *Proc) {
					for {
						take(p)
						served = append(served, p.Name())
					}
				})
			}
			k.After(1, give)
			k.After(2, give)
			k.RunAll()
			if len(served) != 2 || served[0] != "A" || served[1] != "A" {
				t.Errorf("two gives served %v, want [A A]", served)
			}
			if q := len(k.procs); q != 3 {
				t.Errorf("%d takers alive, want 3", q)
			}
			k.Shutdown()
		})
	}
}

// TestHerdZeroAllocSteadyState: a give to 16 waiters, served and skipped
// alike, allocates nothing once the item pool and the herd free list are
// warm.
func TestHerdZeroAllocSteadyState(t *testing.T) {
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			take, give := tc.make(k)
			for i := 0; i < 16; i++ {
				k.Spawn("taker", func(p *Proc) {
					for {
						take(p)
					}
				})
			}
			k.RunAll()
			for i := 0; i < 8; i++ { // warm the pool, the free list and the waiter slice
				give()
				k.RunAll()
			}
			allocs := testing.AllocsPerRun(200, func() {
				give()
				k.RunAll()
			})
			if allocs != 0 {
				t.Fatalf("a give to a herd allocates %.1f objects/op in steady state, want 0", allocs)
			}
			k.Shutdown()
		})
	}
}

// TestShutdownUnwindsPendingHerd: Shutdown with a herd's wakeups pending
// resumes each waiter in turn, whether or not its condition holds, and
// each unwinds in its wait without taking anything, so no runner is left.
func TestShutdownUnwindsPendingHerd(t *testing.T) {
	for _, tc := range checkedWaits {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			take, give := tc.make(k)
			const waiters = 16
			unwound, served := 0, 0
			for i := 0; i < waiters; i++ {
				k.Spawn("taker", func(p *Proc) {
					defer func() { unwound++ }()
					take(p)
					served++
				})
			}
			k.RunAll()
			give()
			k.Shutdown()
			if unwound != waiters || served != 0 {
				t.Errorf("Shutdown unwound %d takers and served %d, want %d and 0", unwound, served, waiters)
			}
			if len(k.procs) != 0 || len(k.idle) != 0 {
				t.Errorf("%d processes and %d parked runners left, want none", len(k.procs), len(k.idle))
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Shutdown, want at most %d", n, base)
			}
		})
	}
}

// TestSpawnChurnReusesRunner pins runner reuse: 100 short processes,
// each spawned after the previous one exits, run on the one runner the
// first of them started. In the chain case each process spawns its
// successor as it exits, so the exiting runner is handed the start of its
// successor. When Shutdown returns, no runner is left. A goroutine that
// an earlier test started may still be ending, so the count may fall.
func TestSpawnChurnReusesRunner(t *testing.T) {
	const procs = 100
	t.Run("sequential", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		ran := 0
		for i := 0; i < procs; i++ {
			k.Spawn("short", func(p *Proc) {
				p.Sleep(1)
				ran++
			})
			k.RunAll()
		}
		if ran != procs || k.goStarts != 1 {
			t.Errorf("%d processes ran on %d runner starts, want %d on 1", ran, k.goStarts, procs)
		}
		k.Shutdown()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines after Shutdown, want at most %d", n, base)
		}
	})
	t.Run("chain", func(t *testing.T) {
		base := runtime.NumGoroutine()
		k := NewKernel()
		ran := 0
		var body func(p *Proc)
		body = func(p *Proc) {
			p.Sleep(1)
			if ran++; ran < procs {
				k.Spawn("short", body)
			}
		}
		k.Spawn("short", body)
		k.RunAll()
		if ran != procs || k.goStarts != 1 || k.Now() != procs {
			t.Errorf("%d processes ran to t=%d on %d runner starts, want %d to t=%d on 1",
				ran, k.Now(), k.goStarts, procs, procs)
		}
		k.Shutdown()
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines after Shutdown, want at most %d", n, base)
		}
	})
}

// TestGoexitEndsRunner: a process body that calls runtime.Goexit, as
// t.FailNow does, ends its runner instead of parking it, and iter.Pull
// raises the Goexit again in the dispatcher, so Run's caller exits too.
// The kernel stays usable: the next process starts on a new runner rather
// than on the dead one, where it would never run and Run would never
// return.
func TestGoexitEndsRunner(t *testing.T) {
	k := NewKernel()
	k.Spawn("quits", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		k.RunAll()
		ok = true
	}()
	if <-returned {
		t.Fatal("RunAll returned after a process called runtime.Goexit, want its caller to exit")
	}
	ran := false
	k.Spawn("next", func(p *Proc) {
		p.Sleep(1)
		ran = true
	})
	k.RunAll()
	if !ran || k.goStarts != 2 {
		t.Fatalf("next ran=%v on %d runner starts, want true on 2", ran, k.goStarts)
	}
	k.Shutdown()
}

// TestProcessPanicReachesRun: a process's panic value leaves through
// Run, where its caller can recover it, and the kernel stays usable. A
// panic on a goroutine of the process's own would end the program.
func TestProcessPanicReachesRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("waits", func(p *Proc) { p.Sleep(10) })
	k.Spawn("panics", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.RunAll()
	}()
	if got != "boom" {
		t.Fatalf("Run's caller recovered %v, want boom", got)
	}
	if k.Now() != 1 || len(k.procs) != 1 {
		t.Fatalf("after the panic: t=%d with %d processes alive, want t=1 with 1", k.Now(), len(k.procs))
	}
	k.RunAll()
	if k.Now() != 10 || len(k.procs) != 0 {
		t.Fatalf("after the rerun: t=%d with %d processes alive, want t=10 with 0", k.Now(), len(k.procs))
	}
	k.Shutdown()
}
