package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildRandomWorkload spawns a random graph of sleeping, signalling,
// queue-passing and permit-holding processes driven by a seeded RNG,
// recording a trace of (time, proc, step) tuples. Pops and acquires block,
// so they exercise checked wakeups; Shutdown unwinds any process still
// blocked when the run ends.
func buildRandomWorkload(seed int64) []string {
	k := NewKernel()
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	record := func(p *Proc, step int) {
		trace = append(trace, fmt.Sprintf("%d/%s/%d", p.Now(), p.Name(), step))
	}
	nProcs := 3 + rng.Intn(5)
	sigs := make([]*Signal, 3)
	for i := range sigs {
		sigs[i] = NewSignal(k)
	}
	q := NewQueue(k)
	sem := NewSemaphore(k, 1)
	for i := 0; i < nProcs; i++ {
		name := fmt.Sprintf("p%d", i)
		steps := 2 + rng.Intn(6)
		actions := make([]int, steps)
		delays := make([]Duration, steps)
		for s := range actions {
			actions[s] = rng.Intn(5)
			delays[s] = Duration(rng.Intn(500))
		}
		k.Spawn(name, func(p *Proc) {
			for s, a := range actions {
				switch a {
				case 0:
					p.Sleep(delays[s])
				case 1:
					sigs[s%len(sigs)].Set()
				case 2:
					q.Push(s)
				case 3:
					p.Pop(q)
				case 4:
					p.Acquire(sem)
					p.Sleep(delays[s])
					sem.Release()
				}
				record(p, s)
			}
		})
	}
	k.RunAll()
	k.Shutdown()
	return trace
}

// TestPropWorkloadDeterminism: arbitrary random process graphs produce
// bit-identical execution traces on replay — the property every latency
// number in the evaluation depends on.
func TestPropWorkloadDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := buildRandomWorkload(seed)
		b := buildRandomWorkload(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropVirtualTimeMonotone: a process never observes time moving
// backwards across any blocking operation.
func TestPropVirtualTimeMonotone(t *testing.T) {
	f := func(seed int64) bool {
		k := NewKernel()
		rng := rand.New(rand.NewSource(seed))
		ok := true
		sig := NewSignal(k)
		for i := 0; i < 4; i++ {
			n := 3 + rng.Intn(5)
			waits := make([]Duration, n)
			for j := range waits {
				waits[j] = Duration(rng.Intn(300))
			}
			k.Spawn("p", func(p *Proc) {
				last := p.Now()
				for _, d := range waits {
					if d%3 == 0 {
						p.Sleep(d)
					} else if d%3 == 1 {
						p.WaitSignalTimeout(sig, d+1)
					} else {
						sig.Set()
					}
					if p.Now() < last {
						ok = false
					}
					last = p.Now()
				}
			})
		}
		k.RunAll()
		k.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
