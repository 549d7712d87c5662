package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refSemaphore is Semaphore as plain wake-all: Release resumes every
// blocked acquirer through a plain Signal, and each one checks for a
// permit itself and waits again when there is none.
type refSemaphore struct {
	avail int
	sig   *Signal
}

func (s *refSemaphore) acquire(p *Proc) int {
	for s.avail <= 0 {
		p.WaitSignal(s.sig)
	}
	s.avail--
	return s.avail
}

func (s *refSemaphore) release() int {
	s.avail++
	s.sig.Set()
	return s.avail
}

// refQueue is Queue as plain wake-all, like refSemaphore.
type refQueue struct {
	items []int
	sig   *Signal
}

func (q *refQueue) pop(p *Proc) int {
	for len(q.items) == 0 {
		p.WaitSignal(q.sig)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v
}

func (q *refQueue) push(v int) {
	q.items = append(q.items, v)
	q.sig.Set()
}

// checkedOps are one semaphore and one queue as a program drives them.
// The values returned are logged: the permits left after an acquire or
// a release, and the element popped.
type checkedOps struct {
	acquire func(p *Proc) int
	release func() int
	push    func(v int)
	pop     func(p *Proc) int
}

// realOps drives the kernel's Semaphore and Queue, whose wakeups are
// checked.
func realOps(k *Kernel, permits int) checkedOps {
	s, q := NewSemaphore(k, permits), NewQueue(k)
	return checkedOps{
		acquire: func(p *Proc) int { p.Acquire(s); return s.avail },
		release: func() int { s.Release(); return s.avail },
		push:    func(v int) { q.Push(v) },
		pop:     func(p *Proc) int { return p.Pop(q).(int) },
	}
}

// refOps drives the wake-all references.
func refOps(k *Kernel, permits int) checkedOps {
	s := &refSemaphore{avail: permits, sig: NewSignal(k)}
	q := &refQueue{sig: NewSignal(k)}
	return checkedOps{acquire: s.acquire, release: s.release, push: q.push, pop: q.pop}
}

// The operations of a checked-wakeup program.
const (
	opAcquire = iota
	opRelease
	opPush
	opPop
	opSleep
	numOps
)

var opNames = [numOps]string{"acquire", "release", "push", "pop", "sleep"}

// checkedStep is one operation of one process; arg is a sleep's length.
type checkedStep struct{ op, arg int }

// checkedProgram is a random program for one semaphore and one queue:
// the permits the semaphore starts with, and each process's start delay
// and operations.
type checkedProgram struct {
	permits int
	starts  []Duration
	procs   [][]checkedStep
}

// newCheckedProgram draws a program from seed. Sleeps and start delays
// of 0–3 ns put many operations at one instant, and 2–21 processes make
// herds of waiters.
func newCheckedProgram(seed int64) checkedProgram {
	rng := rand.New(rand.NewSource(seed))
	prog := checkedProgram{permits: rng.Intn(3)}
	n := 2 + rng.Intn(20)
	for i := 0; i < n; i++ {
		prog.starts = append(prog.starts, Duration(rng.Intn(4)))
		steps := make([]checkedStep, 1+rng.Intn(24))
		for j := range steps {
			steps[j] = checkedStep{op: rng.Intn(numOps), arg: rng.Intn(4)}
		}
		prog.procs = append(prog.procs, steps)
	}
	return prog
}

// run runs the program on a new kernel with the ops mk builds, and
// returns its log of (time, process, op, value) entries and the items
// the kernel executed. A program may end with processes blocked; run
// returns when nothing is left to run and then shuts the kernel down.
func (prog checkedProgram) run(mk func(k *Kernel, permits int) checkedOps) ([]string, uint64) {
	k := NewKernel()
	ops := mk(k, prog.permits)
	var log []string
	for i, steps := range prog.procs {
		k.SpawnAt(prog.starts[i], fmt.Sprint(i), func(p *Proc) {
			for j, st := range steps {
				v := 0
				switch st.op {
				case opAcquire:
					v = ops.acquire(p)
				case opRelease:
					v = ops.release()
				case opPush:
					v = 100*i + j
					ops.push(v)
				case opPop:
					v = ops.pop(p)
				case opSleep:
					v = st.arg
					p.Sleep(Duration(st.arg))
				}
				log = append(log, fmt.Sprintf("t=%d %s %s %d", p.Now(), p.Name(), opNames[st.op], v))
			}
		})
	}
	k.RunAll()
	executed := k.Executed()
	k.Shutdown()
	return log, executed
}

// FuzzCheckedWakeups checks the checked wakeups of Semaphore and Queue
// against plain wake-all, which resumes every waiter to check its own
// condition: a random program logs the same operations at the same times
// with the same values on both, and the kernel executes as many items.
// The goldens pin the order of a few programs, and pass with a herd item
// put back at the tail of the run queue; this pins the order of any
// program. The corpus in testdata/fuzz holds seeds that fail under that
// tail requeue or with the wakeups a herd skips left out of Executed.
func FuzzCheckedWakeups(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) {
		prog := newCheckedProgram(seed)
		got, gotExec := prog.run(realOps)
		want, wantExec := prog.run(refOps)
		if !slices.Equal(got, want) {
			for i := 0; ; i++ {
				if i >= len(got) || i >= len(want) || got[i] != want[i] {
					t.Fatalf("seed %d: logs differ at entry %d of %d (wake-all has %d):\n%s",
						seed, i, len(got), len(want), diffLine(got, want, i))
				}
			}
		}
		if gotExec != wantExec {
			t.Fatalf("seed %d: executed %d items, wake-all %d", seed, gotExec, wantExec)
		}
	})
}

// diffLine quotes entry i of both logs.
func diffLine(got, want []string, i int) string {
	at := func(log []string) string {
		if i < len(log) {
			return log[i]
		}
		return "end of log"
	}
	return fmt.Sprintf(" checked: %s\nwake-all: %s", at(got), at(want))
}
