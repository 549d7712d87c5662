package nvme

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestRoundRobinArbitrationFairness floods two queues and checks the
// controller alternates between them — no queue starves, matching the
// lock-free parallel operation the paper relies on when many hosts share
// the device. It runs on adjacent QIDs and on sparse ones.
//
// On the sparse pair it also checks the exact order, with commands run
// one at a time so that completions come in dispatch order: past the
// start, the order is a stretch of the one a scan of all 32 slots gives,
// whose cursor steps once per pass modulo 32. Arbitration scans only the
// slots below one past the highest QID created, and must keep that order;
// a cursor that rotated over those 20 slots alone would repeat its order
// every 20 passes instead of 32.
func TestRoundRobinArbitrationFairness(t *testing.T) {
	for _, qids := range [][]uint16{{1, 2}, {4, 19}} {
		t.Run(fmt.Sprintf("qids %v", qids), func(t *testing.T) {
			r := newRig(t)
			var order []uint16
			r.run(t, func(p *sim.Proc) {
				a := r.enable(t, p)
				var qs []*QueueView
				for _, qid := range qids {
					sq, _ := r.host.Alloc(uint64(64*SQESize), PageSize)
					cq, _ := r.host.Alloc(uint64(64*CQESize), PageSize)
					if err := a.CreateQueuePair(p, qid, 64, sq, cq, false, 0); err != nil {
						t.Fatal(err)
					}
					qs = append(qs, NewQueueView(qid, 64, sq, cq,
						rigBARBase+SQTailDoorbell(qid, a.DSTRD), rigBARBase+CQHeadDoorbell(qid, a.DSTRD)))
				}
				buf, _ := r.host.Alloc(PageSize, PageSize)
				// Submit 8 commands to each SQ, alternating between them.
				const per = 8
				for i := 0; i < per; i++ {
					for _, q := range qs {
						cmd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: uint32(i * 8), CDW12: 7}
						cmd.CID = q.NextCID()
						if err := q.Submit(p, r.host, &cmd); err != nil {
							t.Fatal(err)
						}
					}
				}
				order = collectOrder(t, p, r, qs, len(qs)*per)
			})
			// Fairness: within any window of 4 completions, both queues appear.
			for i := 0; i+4 <= len(order); i++ {
				seen := map[uint16]bool{}
				for _, id := range order[i : i+4] {
					seen[id] = true
				}
				if len(seen) < 2 {
					t.Fatalf("window %d starved a queue: %v", i, order)
				}
			}
		})
	}
	t.Run("sparse qids follow the full scan", func(t *testing.T) {
		qids := []uint16{4, 19}
		// 60 commands a queue keep both backlogged past completion 110.
		r := newSerialRig(t)
		var order []uint16
		r.run(t, func(p *sim.Proc) {
			a := r.enable(t, p)
			var qs []*QueueView
			for _, qid := range qids {
				qs = append(qs, wrrQueue(t, p, r, a, qid, QPrioMedium, 60))
			}
			for _, qid := range qids {
				ringTail(t, p, r, a, qid, 60)
			}
			order = collectOrder(t, p, r, qs, 120)
		})
		const skip, n = 4, 100 // skip the start, where one queue's doorbell lands first
		got := order[skip : skip+n]
		for r0 := 0; r0 < 32; r0++ {
			ref := fullScanOrder(qids, r0, n/len(qids)+2)
			for j := 0; j < len(qids); j++ {
				if slices.Equal(got, ref[j:j+n]) {
					return
				}
			}
		}
		t.Fatalf("order is no stretch of a full scan's:\n%v", got)
	})
}

// fullScanOrder is the order in which passes of a round-robin scan of all
// 32 SQ slots serve queues at qids that never run dry: each pass serves
// one command of every queue from cursor r on, wrapping, and the next
// pass starts one slot later.
func fullScanOrder(qids []uint16, r, passes int) []uint16 {
	var out []uint16
	for ; passes > 0; passes-- {
		for i := 0; i < 32; i++ {
			if slot := uint16((r + i) % 32); slices.Contains(qids, slot) {
				out = append(out, slot)
			}
		}
		r = (r + 1) % 32
	}
	return out
}

// TestOnlyQueueAtLastQID: a controller whose one I/O SQ sits at the last
// QID, MaxQueuePairs-1, serves it under round robin and under WRR, from
// the urgent class and from a weighted one. Arbitration scans stop at one
// past the highest SQ created, so an off-by-one there starves the queue.
func TestOnlyQueueAtLastQID(t *testing.T) {
	cases := []struct {
		name string
		ams  uint8
		prio uint8
	}{
		{"rr", AMSRoundRobin, QPrioMedium},
		{"wrr urgent", AMSWRRUrgent, QPrioUrgent},
		{"wrr low", AMSWRRUrgent, QPrioLow},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			qid := uint16(r.ctrl.Params().MaxQueuePairs - 1)
			r.run(t, func(p *sim.Proc) {
				a := NewAdminClient(r.host, rigBARBase)
				a.AMS = tc.ams
				if err := a.Enable(p, 32); err != nil {
					t.Fatal(err)
				}
				q := wrrQueue(t, p, r, a, qid, tc.prio, 4)
				ringTail(t, p, r, a, qid, 4)
				collectOrder(t, p, r, []*QueueView{q}, 4)
			})
			if got := r.ctrl.QueueStats(qid).Completions; got != 4 {
				t.Fatalf("qid %d completed %d commands, want 4", qid, got)
			}
		})
	}
}

// TestWRRPickAllocatesNothing: picking a WRR service turn among pending
// queues of every weighted class allocates nothing, because classPending
// fills lists the controller keeps.
func TestWRRPickAllocatesNothing(t *testing.T) {
	r := newSerialRig(t)
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		a.AMS = AMSWRRUrgent
		if err := a.Enable(p, 32); err != nil {
			t.Fatal(err)
		}
		for i, prio := range []uint8{QPrioHigh, QPrioMedium, QPrioLow} {
			wrrQueue(t, p, r, a, uint16(2*i+3), prio, 0)
		}
	})
	c := r.ctrl
	for _, qid := range []int{3, 5, 7} {
		c.sqs[qid].tail = 1 // one entry pending; no doorbell rings
	}
	picks := map[uint16]bool{}
	allocs := testing.AllocsPerRun(100, func() {
		cl, qid, _, _ := c.wrr.next(c.classPending)
		c.wrr.consume(cl, 1)
		picks[qid] = true
	})
	if len(picks) != 3 {
		t.Fatalf("picks reached queues %v, want all three", picks)
	}
	if allocs != 0 {
		t.Fatalf("a WRR pick allocates %.1f objects, want 0", allocs)
	}
}

// TestManyQueuesOneCommandEach creates the full 31 I/O queue pairs on one
// host and runs one command through each — the controller-side half of
// the paper's 31-host claim, without cluster overhead.
func TestManyQueuesOneCommandEach(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p)
		buf, _ := r.host.Alloc(PageSize, PageSize)
		for qid := uint16(1); qid <= 31; qid++ {
			sq, err := r.host.Alloc(uint64(16*SQESize), PageSize)
			if err != nil {
				t.Fatal(err)
			}
			cq, err := r.host.Alloc(uint64(16*CQESize), PageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.CreateQueuePair(p, qid, 16, sq, cq, false, 0); err != nil {
				t.Fatalf("qid %d: %v", qid, err)
			}
			q := NewQueueView(qid, 16, sq, cq,
				rigBARBase+SQTailDoorbell(qid, a.DSTRD), rigBARBase+CQHeadDoorbell(qid, a.DSTRD))
			rd := SQE{Opcode: IORead, NSID: 1, PRP1: buf, CDW10: uint32(qid) * 8, CDW12: 7}
			if cqe := execIO(t, p, r.host, q, &rd); !cqe.OK() {
				t.Fatalf("qid %d status %#x", qid, cqe.Status())
			}
		}
		// The 32nd I/O pair must be rejected: CAP allows 31 + admin.
		sq, _ := r.host.Alloc(uint64(16*SQESize), PageSize)
		cq, _ := r.host.Alloc(uint64(16*CQESize), PageSize)
		if err := a.CreateQueuePair(p, 32, 16, sq, cq, false, 0); err == nil {
			t.Fatal("33rd queue pair accepted")
		}
	})
	if r.ctrl.Stats.ReadCmds != 31 {
		t.Fatalf("reads %d, want 31", r.ctrl.Stats.ReadCmds)
	}
}
