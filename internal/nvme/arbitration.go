package nvme

import "repro/internal/sim"

// Weighted-round-robin arbitration (NVMe 1.3 §4.11.2). When CC.AMS
// selects AMSWRRUrgent the controller services submission queues in
// strict class order — admin commands first, then the urgent class,
// then one weighted turn among high/medium/low — instead of the flat
// round robin of rrPass. The weighted classes share a credit round:
// class weights (Arbitration feature, 0-based, so field value w grants
// w+1 credits) are refilled together whenever every class with pending
// work has exhausted its credits, and the arbitration burst (2^AB,
// ArbBurstUnlimited = no cap) bounds how many commands one queue may
// have claimed per service turn.

// defaultArbCDW11 is the power-on Arbitration feature value: burst 4
// (AB=2) with 8:4:1 high:medium:low weights.
const defaultArbCDW11 = uint32(2) | uint32(0)<<ArbLPWShift |
	uint32(3)<<ArbMPWShift | uint32(7)<<ArbHPWShift

// wrrSched is the weighted-class credit state. It is deliberately free
// of controller plumbing so the credit/burst math is table-testable:
// next consults only a pending-queue callback.
type wrrSched struct {
	// Weights are the effective per-round credits for high, medium and
	// low (class index 0..2 = QPrio - 1).
	Weights [3]int
	// Burst caps commands claimed from one queue per service turn;
	// 0 means unlimited (AB = ArbBurstUnlimited).
	Burst int
	// Rounds counts credit refills.
	Rounds uint64

	credits [3]int
	cursor  [3]uint16 // last serviced qid per class
}

// next picks the weighted class and queue to service: the highest class
// that still has credits and pending work, round-robin among that
// class's queues. max is the claim allowance for the turn — the
// remaining class credits capped by the burst. When every pending class
// is out of credits a new round starts (all credits refill). ok is
// false when no weighted class has pending work.
func (s *wrrSched) next(pending func(class int) []uint16) (class int, qid uint16, max int, ok bool) {
	var lists [3][]uint16
	any := false
	for cl := 0; cl < 3; cl++ {
		lists[cl] = pending(cl)
		if len(lists[cl]) > 0 {
			any = true
		}
	}
	if !any {
		return 0, 0, 0, false
	}
	// Two tries: the second runs after a credit refill, and since every
	// effective weight is >= 1 it always lands on a pending class.
	for try := 0; try < 2; try++ {
		for cl := 0; cl < 3; cl++ {
			if len(lists[cl]) == 0 || s.credits[cl] <= 0 {
				continue
			}
			q := nextAfter(lists[cl], s.cursor[cl])
			s.cursor[cl] = q
			max = s.credits[cl]
			if s.Burst > 0 && s.Burst < max {
				max = s.Burst
			}
			return cl, q, max, true
		}
		for cl := 0; cl < 3; cl++ {
			s.credits[cl] = s.Weights[cl]
		}
		s.Rounds++
	}
	return 0, 0, 0, false
}

// consume spends n of class's credits after a service turn.
func (s *wrrSched) consume(class, n int) { s.credits[class] -= n }

// nextAfter returns the smallest qid in list greater than cur, wrapping
// to the smallest overall — round robin over a sparse, changing set.
func nextAfter(list []uint16, cur uint16) uint16 {
	for _, q := range list {
		if q > cur {
			return q
		}
	}
	return list[0]
}

// applyArb re-derives the scheduler configuration from the Arbitration
// feature value. Credits reset so the new weights take effect on the
// next round.
func (c *Controller) applyArb() {
	v := c.arbCDW11
	burst := 0
	if ab := v & ArbABMask; ab != ArbBurstUnlimited {
		burst = 1 << ab
	}
	c.wrr.Burst = burst
	c.wrr.Weights = [3]int{
		int(v>>ArbHPWShift&0xFF) + 1,
		int(v>>ArbMPWShift&0xFF) + 1,
		int(v>>ArbLPWShift&0xFF) + 1,
	}
	c.wrr.credits = [3]int{}
}

// sqPending returns the number of claimable entries in sq.
func sqPending(sq *subQueue) int {
	return (sq.tail - sq.head + sq.size) % sq.size
}

// classPending lists the created I/O queues of a weighted class (0..2 =
// high/medium/low) that have pending entries, in ascending qid order. The
// list is the controller's, valid until the next call for the class.
func (c *Controller) classPending(class int) []uint16 {
	prio := uint8(class + 1)
	out := c.pending[class][:0]
	for i := 1; i < c.sqEnd; i++ {
		if sq := c.sqs[i]; sq != nil && sq.created && sq.prio == prio && sq.head != sq.tail {
			out = append(out, uint16(i))
		}
	}
	c.pending[class] = out
	return out
}

// wrrPass runs one WRR-with-urgent service pass. Admin and urgent work
// is drained strictly ahead of the weighted classes (the spec allows
// urgent to starve them); then one weighted service turn runs. The
// caller loops while passes make progress.
func (c *Controller) wrrPass(p *sim.Proc) bool {
	progressed := false
	if sq := c.sqs[0]; sq != nil && sq.created {
		for sq.head != sq.tail {
			c.dispatch(p, sq)
			progressed = true
		}
	}
	for {
		served := false
		// As in rrPass, dispatch can block while a queue is created, so
		// the bound is read again at every step.
		for i := 1; i < c.sqEnd; i++ {
			sq := c.sqs[i]
			if sq == nil || !sq.created || sq.prio != QPrioUrgent {
				continue
			}
			n := sqPending(sq)
			if n == 0 {
				continue
			}
			if c.wrr.Burst > 0 && n > c.wrr.Burst {
				n = c.wrr.Burst
			}
			for j := 0; j < n; j++ {
				c.dispatch(p, sq)
			}
			served, progressed = true, true
		}
		if !served {
			break
		}
	}
	if cl, qid, max, ok := c.wrr.next(c.classPending); ok {
		sq := c.sqs[qid]
		n := sqPending(sq)
		if n > max {
			n = max
		}
		for j := 0; j < n; j++ {
			c.dispatch(p, sq)
		}
		c.wrr.consume(cl, n)
		c.Stats.ArbRounds = c.wrr.Rounds
		progressed = true
	}
	return progressed
}
