package nvme

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// TestWRRSchedCreditMath drives the scheduler core through fixed pick
// sequences: class strictness, credit refill rounds, the burst cap on a
// turn's allowance, and round robin among same-class queues. Each pick
// consumes its full allowance, as the controller does when the queue is
// backlogged.
func TestWRRSchedCreditMath(t *testing.T) {
	type pick struct {
		class int
		qid   uint16
		max   int
	}
	cases := []struct {
		name    string
		weights [3]int
		burst   int
		pending map[int][]uint16
		picks   []pick
		rounds  uint64
	}{
		{
			name:    "strict class order and refill",
			weights: [3]int{2, 1, 1},
			pending: map[int][]uint16{0: {1}, 1: {2}, 2: {3}},
			picks: []pick{
				{0, 1, 2}, {1, 2, 1}, {2, 3, 1}, // round 1
				{0, 1, 2}, // refill, round 2
			},
			rounds: 2,
		},
		{
			name:    "burst caps the turn allowance",
			weights: [3]int{8, 2, 1},
			burst:   2,
			pending: map[int][]uint16{0: {1}, 1: {2}, 2: {3}},
			picks: []pick{
				{0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}, // 8 high credits, 2 at a time
				{1, 2, 2}, {2, 3, 1},
			},
			rounds: 1,
		},
		{
			name:    "round robin within a class",
			weights: [3]int{4, 1, 1},
			burst:   1,
			pending: map[int][]uint16{0: {1, 3, 5}},
			picks: []pick{
				{0, 1, 1}, {0, 3, 1}, {0, 5, 1}, {0, 1, 1}, // round 1 (4 credits)
				{0, 3, 1}, // refill, cursor keeps rotating
			},
			rounds: 2,
		},
		{
			name:    "lower class alone still rounds",
			weights: [3]int{3, 2, 1},
			pending: map[int][]uint16{2: {7}},
			picks:   []pick{{2, 7, 1}, {2, 7, 1}},
			rounds:  2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := wrrSched{Weights: tc.weights, Burst: tc.burst}
			pending := func(class int) []uint16 { return tc.pending[class] }
			for i, want := range tc.picks {
				cl, qid, max, ok := s.next(pending)
				if !ok {
					t.Fatalf("pick %d: no pick, want %+v", i, want)
				}
				if cl != want.class || qid != want.qid || max != want.max {
					t.Fatalf("pick %d = (class %d, qid %d, max %d), want %+v", i, cl, qid, max, want)
				}
				s.consume(cl, max)
			}
			if s.Rounds != tc.rounds {
				t.Errorf("rounds = %d, want %d", s.Rounds, tc.rounds)
			}
		})
	}
	var s wrrSched
	if _, _, _, ok := s.next(func(int) []uint16 { return nil }); ok {
		t.Error("pick succeeded with no pending work")
	}
}

// newSerialRig builds the local-NVMe rig with MaxInflight 1, so command
// execution is serialized and completion order equals fetch order — the
// observable the arbitration conformance tests assert on.
func newSerialRig(t *testing.T) *rig {
	t.Helper()
	k := sim.NewKernel()
	dom := pcie.NewDomain("host0", k, pcie.LinkParams{})
	rc := dom.AddNode(pcie.RootComplex, "rc")
	ep := dom.AddNode(pcie.Endpoint, "nvme")
	if err := dom.Connect(rc, ep); err != nil {
		t.Fatal(err)
	}
	mem := memory.New(0x100000, 8<<20)
	host, err := pcie.NewHostPort(dom, rc, mem)
	if err != nil {
		t.Fatal(err)
	}
	med := NewFlashMedium(k, 512, 1<<20, FlashParams{}, 42)
	ctrl, err := New("nvme0", dom, ep, pcie.Range{Base: rigBARBase, Size: rigBARSize}, med,
		Params{MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, dom: dom, host: host, ctrl: ctrl, med: med}
}

// wrrQueue creates I/O queue pair qid with the given priority class and
// preloads n read commands into SQ memory without ringing the doorbell.
func wrrQueue(t *testing.T, p *sim.Proc, r *rig, a *AdminClient, qid uint16, prio uint8, n int) *QueueView {
	t.Helper()
	depth := 64
	sq, _ := r.host.Alloc(uint64(depth*SQESize), PageSize)
	cq, _ := r.host.Alloc(uint64(depth*CQESize), PageSize)
	if err := a.CreateQueuePairPrio(p, qid, depth, sq, cq, false, 0, prio); err != nil {
		t.Fatalf("create qp %d: %v", qid, err)
	}
	buf, _ := r.host.Alloc(PageSize, PageSize)
	for i := 0; i < n; i++ {
		cmd := SQE{Opcode: IORead, NSID: 1, CID: uint16(i), PRP1: buf,
			CDW10: uint32(i) * 8, CDW12: 7}
		if err := r.host.Write(p, sq+pcie.Addr(i*SQESize), cmd.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	return NewQueueView(qid, depth, sq, cq,
		rigBARBase+SQTailDoorbell(qid, a.DSTRD), rigBARBase+CQHeadDoorbell(qid, a.DSTRD))
}

// ringTail publishes n preloaded entries by writing the SQ tail doorbell.
func ringTail(t *testing.T, p *sim.Proc, r *rig, a *AdminClient, qid uint16, n int) {
	t.Helper()
	var b [4]byte
	b[0] = byte(n)
	b[1] = byte(n >> 8)
	if err := r.host.Write(p, rigBARBase+SQTailDoorbell(qid, a.DSTRD), b[:]); err != nil {
		t.Fatal(err)
	}
}

// collectOrder polls the queues and records the SQID sequence of the
// next total completions.
func collectOrder(t *testing.T, p *sim.Proc, r *rig, qs []*QueueView, total int) []uint16 {
	t.Helper()
	var order []uint16
	deadline := p.Now() + 500*sim.Millisecond
	for len(order) < total {
		for _, q := range qs {
			cqe, ok, err := q.Poll(p, r.host)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				order = append(order, cqe.SQID)
			}
		}
		if p.Now() > deadline {
			t.Fatalf("timeout with %d/%d completions: %v", len(order), total, order)
		}
		p.Sleep(200)
	}
	return order
}

// TestWRRWeightedServiceRatio floods one high, one medium and one low
// queue under WRR with weights 4:2:1 and burst 1. With execution
// serialized, the steady-state fetch schedule is the periodic sequence
// H H H H M M L, so every window of 7 completions past the start-up
// transient holds exactly 4 high, 2 medium and 1 low.
func TestWRRWeightedServiceRatio(t *testing.T) {
	r := newSerialRig(t)
	const per = 28
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		a.AMS = AMSWRRUrgent
		if err := a.Enable(p, 32); err != nil {
			t.Fatal(err)
		}
		got, err := a.SetArbitration(p, 0, 3, 1, 0) // burst 1, weights 4/2/1
		if err != nil {
			t.Fatal(err)
		}
		if want := ArbitrationCDW11(0, 3, 1, 0); got != want {
			t.Fatalf("arbitration feature reads back %#x, want %#x", got, want)
		}
		qh := wrrQueue(t, p, r, a, 1, QPrioHigh, per)
		qm := wrrQueue(t, p, r, a, 2, QPrioMedium, per)
		ql := wrrQueue(t, p, r, a, 3, QPrioLow, per)
		for qid := uint16(1); qid <= 3; qid++ {
			ringTail(t, p, r, a, qid, per)
		}
		order := collectOrder(t, p, r, []*QueueView{qh, qm, ql}, 3*per)
		// Skip two periods of transient, keep windows that end while every
		// queue is still backlogged (high drains first at 4 per period).
		counts := func(w []uint16) (h, m, l int) {
			for _, id := range w {
				switch id {
				case 1:
					h++
				case 2:
					m++
				case 3:
					l++
				}
			}
			return
		}
		for i := 14; i+7 <= 42; i++ {
			h, m, l := counts(order[i : i+7])
			if h != 4 || m != 2 || l != 1 {
				t.Fatalf("window %d = %d/%d/%d high/medium/low, want 4/2/1\norder: %v",
					i, h, m, l, order)
			}
		}
	})
	st := r.ctrl.Stats
	if st.ArbFetched[QPrioHigh] != per || st.ArbFetched[QPrioMedium] != per || st.ArbFetched[QPrioLow] != per {
		t.Errorf("per-class fetched = %v, want %d each for high/medium/low", st.ArbFetched, per)
	}
	if st.ArbRounds == 0 {
		t.Error("no WRR rounds counted")
	}
}

// TestWRRUrgentStarvesLow: the urgent class is served strictly ahead of
// the weighted classes, so once urgent work is visible at most one
// already-dispatched low command may complete before the urgent backlog
// drains.
func TestWRRUrgentStarvesLow(t *testing.T) {
	r := newSerialRig(t)
	const per = 16
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		a.AMS = AMSWRRUrgent
		if err := a.Enable(p, 32); err != nil {
			t.Fatal(err)
		}
		qu := wrrQueue(t, p, r, a, 1, QPrioUrgent, per)
		ql := wrrQueue(t, p, r, a, 2, QPrioLow, per)
		// Low rings first; urgent arrives while low is backlogged.
		ringTail(t, p, r, a, 2, per)
		ringTail(t, p, r, a, 1, per)
		order := collectOrder(t, p, r, []*QueueView{qu, ql}, 2*per)
		first, last := -1, -1
		for i, id := range order {
			if id == 1 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 {
			t.Fatal("no urgent completions")
		}
		lowBetween := 0
		for _, id := range order[first : last+1] {
			if id == 2 {
				lowBetween++
			}
		}
		if lowBetween > 1 {
			t.Errorf("%d low completions interleaved with the urgent drain: %v", lowBetween, order)
		}
	})
	if got := r.ctrl.Stats.ArbFetched[QPrioUrgent]; got != per {
		t.Errorf("urgent fetched = %d, want %d", got, per)
	}
}

// TestRRFallbackIgnoresPriority: with CC.AMS left at round robin,
// declared queue priorities change nothing — a high and a low queue
// interleave exactly as the stock fairness test expects.
func TestRRFallbackIgnoresPriority(t *testing.T) {
	r := newSerialRig(t)
	const per = 12
	r.run(t, func(p *sim.Proc) {
		a := r.enable(t, p) // default AMS: round robin
		qh := wrrQueue(t, p, r, a, 1, QPrioHigh, per)
		ql := wrrQueue(t, p, r, a, 2, QPrioLow, per)
		ringTail(t, p, r, a, 1, per)
		ringTail(t, p, r, a, 2, per)
		order := collectOrder(t, p, r, []*QueueView{qh, ql}, 2*per)
		for i := 2; i+4 <= len(order); i++ {
			seen := map[uint16]bool{}
			for _, id := range order[i : i+4] {
				seen[id] = true
			}
			if len(seen) < 2 {
				t.Fatalf("window %d starved a queue under RR: %v", i, order)
			}
		}
	})
	if r.ctrl.Stats.ArbRounds != 0 {
		t.Errorf("WRR rounds = %d under round-robin arbitration, want 0", r.ctrl.Stats.ArbRounds)
	}
}

// TestEnableRejectsUnsupportedAMS: requesting an arbitration mechanism
// CAP.AMS does not advertise fails enable.
func TestEnableRejectsUnsupportedAMS(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		a := NewAdminClient(r.host, rigBARBase)
		a.AMS = 7 // vendor-specific, not advertised
		if err := a.Enable(p, 32); err == nil {
			t.Fatal("enable accepted an unadvertised arbitration mechanism")
		}
	})
}
