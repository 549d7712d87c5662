package sim

import (
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", k.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1500)
		at = p.Now()
	})
	k.RunAll()
	if at != 1500 {
		t.Fatalf("woke at %d, want 1500", at)
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	k := NewKernel()
	ran := false
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		ran = true
	})
	k.RunAll()
	if !ran || k.Now() != 0 {
		t.Fatalf("ran=%v now=%d, want true/0", ran, k.Now())
	}
}

func TestSequentialSleeps(t *testing.T) {
	k := NewKernel()
	var trace []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			trace = append(trace, p.Now())
		}
	})
	k.RunAll()
	want := []Time{10, 20, 30, 40, 50}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		var order []string
		for _, n := range []string{"a", "b", "c"} {
			name := n
			k.Spawn(name, func(p *Proc) {
				p.Sleep(100)
				order = append(order, name)
				p.Sleep(100)
				order = append(order, name+"2")
			})
		}
		k.RunAll()
		return order
	}
	first := run()
	for i := 0; i < 10; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("run %d order %v differs from %v", i, got, first)
			}
		}
	}
	// Same-time wakeups run in spawn order.
	want := []string{"a", "b", "c", "a2", "b2", "c2"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order %v, want %v", first, want)
		}
	}
}

func TestAfterRunsInline(t *testing.T) {
	k := NewKernel()
	var at Time = -1
	k.After(250, func() { at = k.Now() })
	k.RunAll()
	if at != 250 {
		t.Fatalf("After ran at %d, want 250", at)
	}
}

func TestRunLimitStopsEarly(t *testing.T) {
	k := NewKernel()
	fired := false
	k.After(1000, func() { fired = true })
	end := k.Run(500)
	if fired {
		t.Fatal("item past limit fired")
	}
	if end != 500 {
		t.Fatalf("Run returned %d, want 500", end)
	}
	k.RunAll()
	if !fired {
		t.Fatal("item not fired after RunAll")
	}
}

func TestEventTriggerWakesWaiters(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var got any
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		got = p.Wait(ev)
		at = p.Now()
	})
	k.Spawn("trigger", func(p *Proc) {
		p.Sleep(777)
		ev.Trigger("hello")
	})
	k.RunAll()
	if got != "hello" || at != 777 {
		t.Fatalf("got %v at %d, want hello at 777", got, at)
	}
}

func TestEventWaitAfterTriggerReturnsImmediately(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Trigger(42)
	var got any
	var at Time = -1
	k.Spawn("late", func(p *Proc) {
		p.Sleep(10)
		got = p.Wait(ev)
		at = p.Now()
	})
	k.RunAll()
	if got != 42 || at != 10 {
		t.Fatalf("got %v at %d, want 42 at 10", got, at)
	}
}

func TestEventDoubleTriggerKeepsFirstPayload(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Trigger(1)
	ev.Trigger(2)
	var got any
	k.Spawn("w", func(p *Proc) { got = p.Wait(ev) })
	k.RunAll()
	if got != 1 {
		t.Fatalf("payload %v, want 1", got)
	}
}

func TestWaitTimeoutFires(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var ok bool
	var at Time
	k.Spawn("w", func(p *Proc) {
		_, ok = p.WaitTimeout(ev, 100)
		at = p.Now()
	})
	k.RunAll()
	if ok || at != 100 {
		t.Fatalf("ok=%v at=%d, want false at 100", ok, at)
	}
	// Late trigger must not wake anyone or panic.
	ev.Trigger(nil)
	k.RunAll()
}

func TestWaitTimeoutTriggerWins(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	var ok bool
	var got any
	k.Spawn("w", func(p *Proc) {
		got, ok = p.WaitTimeout(ev, 100)
	})
	k.Spawn("t", func(p *Proc) {
		p.Sleep(50)
		ev.Trigger("x")
	})
	k.RunAll()
	if !ok || got != "x" {
		t.Fatalf("ok=%v got=%v, want true x", ok, got)
	}
	if k.Now() != 50 {
		t.Fatalf("clock %d, want 50 (timer canceled)", k.Now())
	}
}

func TestSignalWakesAllCurrentWaiters(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(p *Proc) {
			p.WaitSignal(sig)
			woke++
		})
	}
	k.Spawn("setter", func(p *Proc) {
		p.Sleep(5)
		sig.Set()
	})
	k.RunAll()
	if woke != 3 {
		t.Fatalf("woke %d, want 3", woke)
	}
}

func TestSignalIsEdgeTriggered(t *testing.T) {
	k := NewKernel()
	sig := NewSignal(k)
	sig.Set() // no waiters: lost, by design
	woke := false
	k.Spawn("w", func(p *Proc) {
		ok := p.WaitSignalTimeout(sig, 100)
		woke = ok
	})
	k.RunAll()
	if woke {
		t.Fatal("waiter saw a Set that happened before it waited")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	k := NewKernel()
	q := NewQueue(k)
	var got []int
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, p.Pop(q).(int))
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Push(i)
		}
	})
	k.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestSemaphoreLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	sem := NewSemaphore(k, 2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("worker", func(p *Proc) {
			p.Acquire(sem)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(100)
			active--
			sem.Release()
		})
	}
	k.RunAll()
	if maxActive != 2 {
		t.Fatalf("max concurrency %d, want 2", maxActive)
	}
	if k.Now() != 300 {
		t.Fatalf("finished at %d, want 300 (3 batches of 100)", k.Now())
	}
}

func TestProcExitedEvent(t *testing.T) {
	t.Run("waited before exit", func(t *testing.T) {
		k := NewKernel()
		p1 := k.Spawn("a", func(p *Proc) { p.Sleep(40) })
		var joined Time
		k.Spawn("b", func(p *Proc) {
			p.Wait(p1.Exited())
			joined = p.Now()
		})
		k.RunAll()
		if joined != 40 {
			t.Fatalf("joined at %d, want 40", joined)
		}
	})
	t.Run("first asked for after exit", func(t *testing.T) {
		k := NewKernel()
		p1 := k.Spawn("a", func(p *Proc) { p.Sleep(40) })
		var joined Time = -1
		var payload any = "unset"
		k.SpawnAt(100, "b", func(p *Proc) {
			payload = p.Wait(p1.Exited())
			joined = p.Now()
		})
		k.RunAll()
		if joined != 100 {
			t.Fatalf("joined at %d, want 100 (already exited)", joined)
		}
		if payload != nil {
			t.Fatalf("Exited event's payload %v, want nil", payload)
		}
		if p1.Exited() != p1.Exited() {
			t.Fatal("Exited returned a different event on a later call")
		}
	})
}

func TestSpawnAt(t *testing.T) {
	k := NewKernel()
	var start Time = -1
	k.SpawnAt(90, "late", func(p *Proc) { start = p.Now() })
	k.RunAll()
	if start != 90 {
		t.Fatalf("started at %d, want 90", start)
	}
}

func TestShutdownUnwindsBlockedProcs(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	k.Spawn("stuck-on-event", func(p *Proc) { p.Wait(ev) })
	k.Spawn("stuck-on-signal", func(p *Proc) { p.WaitSignal(NewSignal(k)) })
	k.Spawn("sleeper", func(p *Proc) { p.Sleep(MaxTime / 2) })
	// Starts past Run's limit, so it has no runner yet at Shutdown.
	k.SpawnAt(200, "unstarted", func(p *Proc) { p.Sleep(1) })
	k.Run(100)
	k.Shutdown()
	if n := len(k.procs); n != 0 {
		t.Fatalf("%d processes alive after Shutdown", n)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.After(100, func() {})
	k.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.schedule(50, func() {})
}

// Property: for any list of non-negative delays, a process sleeping through
// them finishes at exactly their sum, and the kernel clock agrees.
func TestPropSleepSumsExactly(t *testing.T) {
	f := func(delays []uint16) bool {
		k := NewKernel()
		var total Time
		for _, d := range delays {
			total += Time(d)
		}
		var end Time = -1
		k.Spawn("p", func(p *Proc) {
			for _, d := range delays {
				p.Sleep(Duration(d))
			}
			end = p.Now()
		})
		k.RunAll()
		return end == total && k.Now() == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: events deliver to all waiters regardless of how many there are
// and in what order they registered.
func TestPropEventDeliversToAllWaiters(t *testing.T) {
	f := func(nWaiters uint8) bool {
		n := int(nWaiters%32) + 1
		k := NewKernel()
		ev := NewEvent(k)
		woke := 0
		for i := 0; i < n; i++ {
			k.Spawn("w", func(p *Proc) {
				p.Wait(ev)
				woke++
			})
		}
		k.Spawn("t", func(p *Proc) {
			p.Sleep(1)
			ev.Trigger(nil)
		})
		k.RunAll()
		return woke == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a queue delivers every pushed element exactly once, in order.
func TestPropQueueDeliversAllInOrder(t *testing.T) {
	f := func(vals []int8) bool {
		k := NewKernel()
		q := NewQueue(k)
		var got []int8
		k.Spawn("consumer", func(p *Proc) {
			for range vals {
				got = append(got, p.Pop(q).(int8))
			}
		})
		k.Spawn("producer", func(p *Proc) {
			for _, v := range vals {
				p.Sleep(1)
				q.Push(v)
			}
		})
		k.RunAll()
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
