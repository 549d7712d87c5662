package nvme

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestQueueViewFullDetection(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		const depth = 4
		q := r.ioQueue(t, p, a, depth)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		// A queue of depth N holds N-1 outstanding commands.
		for i := 0; i < depth-1; i++ {
			cmd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: uint32(i * 8), CDW12: 7}
			cmd.CID = q.NextCID()
			if err := q.Submit(p, r.host, &cmd); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
		if !q.Full() {
			t.Fatal("queue not full after depth-1 submissions")
		}
		cmd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW12: 7}
		cmd.CID = q.NextCID()
		if err := q.Submit(p, r.host, &cmd); err == nil {
			t.Fatal("submit to full queue succeeded")
		}
		// Drain; Full clears.
		for q.Inflight() > 0 {
			if _, ok, err := q.Poll(p, r.host); err != nil {
				t.Fatal(err)
			} else if !ok {
				p.Sleep(200)
			}
		}
		if q.Full() {
			t.Fatal("queue still full after drain")
		}
	})
}

func TestQueueViewLockingSerializesSubmitters(t *testing.T) {
	// With locking enabled, many concurrent submitters through one view
	// must produce exactly one completion per submission, no lost or
	// duplicated slots, across queue wraps.
	r := newRig(t)
	const workers = 6
	const perWorker = 10
	completed := 0
	var q *QueueView
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		q = r.ioQueue(t, p, a, 8) // small: forces wraps and Full waits
		q.EnableLocking(r.k)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		done := make([]*sim.Event, 0, workers)
		// One poller distributing completions, woken by CQE DMA arrivals
		// so the simulation can drain when idle.
		pending := map[uint16]*sim.Event{}
		cqSig := sim.NewSignal(r.k)
		rng := q.CQRange()
		r.host.Watch(rng, func(pcieAddr uint64, n int) { cqSig.Set() })
		r.k.Spawn("poller", func(pp *sim.Proc) {
			for {
				cqe, ok, err := q.Poll(pp, r.host)
				if err != nil {
					return
				}
				if !ok {
					pp.WaitSignal(cqSig)
					continue
				}
				if ev := pending[cqe.CID]; ev != nil {
					delete(pending, cqe.CID)
					ev.Trigger(cqe.Status())
				}
			}
		})
		for w := 0; w < workers; w++ {
			fin := sim.NewEvent(r.k)
			done = append(done, fin)
			r.k.Spawn("submitter", func(sp *sim.Proc) {
				defer fin.Trigger(nil)
				for i := 0; i < perWorker; i++ {
					cmd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: uint32(i * 8), CDW12: 7}
					cmd.CID = q.NextCID()
					ev := sim.NewEvent(r.k)
					pending[cmd.CID] = ev
					// Retry while full: the semantics a driver implements
					// above the raw view.
					for {
						if err := q.Submit(sp, r.host, &cmd); err == nil {
							break
						}
						sp.Sleep(2000)
					}
					sp.Wait(ev)
					if st := ev.Payload().(uint16); st != StatusOK {
						t.Errorf("status %#x", st)
						return
					}
					completed++
				}
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
	})
	if completed != workers*perWorker {
		t.Fatalf("completed %d, want %d", completed, workers*perWorker)
	}
	if r.ctrl.Stats.ReadCmds != uint64(workers*perWorker) {
		t.Fatalf("controller reads %d", r.ctrl.Stats.ReadCmds)
	}
	// A locked view coalesces: submitters that find others queued on the
	// lock leave the doorbell to the last of the burst.
	if q.SQDoorbellsSaved == 0 {
		t.Fatalf("locked view saved no SQ doorbells under contention (%d rung)", q.SQDoorbells)
	}
}

// Property: NextCID never returns the same CID twice within a window
// smaller than the CID space.
func TestPropNextCIDUnique(t *testing.T) {
	f := func(n uint16) bool {
		q := NewQueueView(1, 64, 0, 0, 0, 0)
		count := int(n%1000) + 2
		seen := make(map[uint16]bool, count)
		for i := 0; i < count; i++ {
			cid := q.NextCID()
			if seen[cid] {
				return false
			}
			seen[cid] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
