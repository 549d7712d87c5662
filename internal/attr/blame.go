package attr

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/trace"
)

// serviceResource maps a device sub-stage to the resource actively
// serving the command during that hop.
func serviceResource(st trace.Stage) string {
	switch st {
	case trace.StageSQWrite:
		return ResNVMeSQ
	case trace.StageSQDoorbell, trace.StageNTBCross, trace.StageCtrlFetch, trace.StageDataXfer:
		return ResFabricLink
	case trace.StageCtrlDecode, trace.StageCQPost:
		return ResNVMeCtrl
	case trace.StageMedium:
		return ResNVMeMedium
	case trace.StageCQPoll:
		return ResHostCPU
	}
	return ResDevice
}

// waitResource maps a device sub-stage to the resource a gap
// immediately before it is queueing FOR. The command sat idle because
// that resource had not picked it up yet.
func waitResource(st trace.Stage) string {
	switch st {
	case trace.StageSQWrite, trace.StageSQDoorbell:
		// Before the SQE write / doorbell: host software pacing.
		return ResHostCPU
	case trace.StageNTBCross, trace.StageDataXfer:
		return ResFabricLink
	case trace.StageCtrlFetch:
		// Between doorbell arrival and the fetch DMA the command sits
		// in the SQ waiting for controller arbitration and a free
		// command slot — SQ residency.
		return ResNVMeSQ
	case trace.StageCtrlDecode:
		return ResNVMeCtrl
	case trace.StageMedium:
		// Channel queueing ahead of the flash access.
		return ResNVMeMedium
	case trace.StageCQPost:
		// Completion firmware queue plus the wait for CQ space.
		return ResNVMeCQ
	case trace.StageCQPoll:
		// CQE posted; waiting for the host poll sweep to notice.
		return ResHostCPU
	}
	return ResDevice
}

// clientResource maps a client partition stage to its resource.
func clientResource(st trace.Stage) string {
	switch st {
	case trace.StageSubmit, trace.StageReap:
		return ResHostCPU
	case trace.StageDataIn, trace.StageDataOut:
		return ResHostData
	}
	return ResHostCPU
}

// Blame is the attributed time of one resource: ServiceNs while the
// resource actively worked on commands, QueueNs while commands waited
// for it.
type Blame struct {
	Resource  string `json:"resource"`
	ServiceNs int64  `json:"service_ns"`
	QueueNs   int64  `json:"queue_ns"`
}

// TotalNs is service plus queueing.
func (b Blame) TotalNs() int64 { return b.ServiceNs + b.QueueNs }

// QueueShare is the queueing fraction of the resource's blame — high
// values mean the resource is a contention point, not just a cost.
func (b Blame) QueueShare() float64 {
	if t := b.TotalNs(); t > 0 {
		return float64(b.QueueNs) / float64(t)
	}
	return 0
}

// BlameSet aggregates critical-path blame over a span population.
type BlameSet struct {
	rows map[string]*Blame
	// stageNs is service time per trace stage — the same segments the
	// resource rows fold, keyed by the stage that produced them. The
	// counterfactual engine (internal/whatif) predicts per-knob deltas
	// from it: a knob that owns a stage outright (firmware decode, the
	// medium access) predicts as (factor-1) x the stage's service sum.
	stageNs map[trace.Stage]int64
	// stageCross sums the crossing counts hop notes carry (the NTB
	// doorbell flight and the controller's SQE fetch record how many
	// host boundaries the transaction crossed).
	stageCross map[trace.Stage]uint64
	// Spans counts attributed spans; EndToEndNs sums their durations.
	Spans      int
	EndToEndNs int64
	// ResidualNs sums, over all spans, the difference between span
	// duration and attributed time. The partition construction makes it
	// zero; a nonzero value is a bug and tests assert against it.
	ResidualNs int64
}

// NewBlameSet returns an empty aggregation.
func NewBlameSet() *BlameSet {
	return &BlameSet{
		rows:       make(map[string]*Blame),
		stageNs:    make(map[trace.Stage]int64),
		stageCross: make(map[trace.Stage]uint64),
	}
}

// StageServiceNs is the summed service time attributed to stage st
// across every folded span. Stage sums partition the same totals the
// resource rows do, one level finer.
func (bs *BlameSet) StageServiceNs(st trace.Stage) int64 { return bs.stageNs[st] }

// StageCrossings is the summed host-boundary crossing count recorded on
// st's hop notes (StageNTBCross and StageCtrlFetch carry them; other
// stages report 0).
func (bs *BlameSet) StageCrossings(st trace.Stage) uint64 { return bs.stageCross[st] }

// ResourceBlame returns the aggregated blame for one resource (zero
// value if the resource attracted none) — the per-resource exposure the
// prediction model reads without re-ranking rows.
func (bs *BlameSet) ResourceBlame(resource string) Blame {
	if b := bs.rows[resource]; b != nil {
		return *b
	}
	return Blame{Resource: resource}
}

func (bs *BlameSet) emit(resource string, queue bool, ns int64) {
	if ns <= 0 {
		return
	}
	b := bs.rows[resource]
	if b == nil {
		b = &Blame{Resource: resource}
		bs.rows[resource] = b
	}
	if queue {
		b.QueueNs += ns
	} else {
		b.ServiceNs += ns
	}
}

// AddSpan partitions one span's [Start, End] into blamed segments and
// folds them in, returning the span's residual (always 0; see
// ResidualNs). Spans with End <= Start are skipped.
func (bs *BlameSet) AddSpan(s *trace.Span) int64 {
	d := s.End - s.Start
	if d <= 0 {
		return 0
	}
	bs.Spans++
	bs.EndToEndNs += d
	for _, h := range s.Hops {
		switch h.Stage {
		case trace.StageNTBCross, trace.StageCtrlFetch:
			bs.stageCross[h.Stage] += h.Note
		}
	}
	attributed := bs.blameSpan(s)
	residual := d - attributed
	bs.ResidualNs += residual
	return residual
}

// AddSpans folds in every span.
func (bs *BlameSet) AddSpans(spans []*trace.Span) {
	for _, s := range spans {
		bs.AddSpan(s)
	}
}

// Fold folds spans into a new BlameSet. It fails on the first span
// whose blame does not reconcile exactly with its duration, naming the
// span, and on a set with no span to attribute: attribution that does
// not reconcile with end-to-end latency must never be published.
func Fold(spans []*trace.Span) (*BlameSet, error) {
	bs := NewBlameSet()
	for _, s := range spans {
		if resid := bs.AddSpan(s); resid != 0 {
			return nil, fmt.Errorf("attr: span qid=%d cid=%d seq=%d: blame residual %d ns != 0",
				s.QID, s.CID, s.Seq, resid)
		}
	}
	if bs.Spans == 0 {
		return nil, errors.New("attr: no spans to attribute")
	}
	return bs, nil
}

// blameSpan sweeps the span's client stages over [Start, End]: covered
// intervals are blamed on the stage's resource (device windows are
// further decomposed by sub-stage), uncovered remainders on host
// software. Returns the attributed nanoseconds, which equals the span
// duration by construction: the sweep partitions the window with
// neither gap nor double-count, clipping overlapping hops.
func (bs *BlameSet) blameSpan(s *trace.Span) int64 {
	var clientHops, subHops []trace.Hop
	for _, h := range s.Hops {
		if h.Stage.IsClientStage() {
			clientHops = append(clientHops, h)
		} else {
			subHops = append(subHops, h)
		}
	}
	sort.SliceStable(clientHops, func(i, j int) bool { return clientHops[i].Start < clientHops[j].Start })
	sort.SliceStable(subHops, func(i, j int) bool { return subHops[i].Start < subHops[j].Start })

	var attributed int64
	cur := s.Start
	for _, h := range clientHops {
		hs, he := clip(h.Start, h.End, cur, s.End)
		if he <= hs {
			continue
		}
		if hs > cur {
			// Uncovered client-level remainder: software glue between
			// recorded stages.
			bs.emit(ResHostCPU, false, hs-cur)
			attributed += hs - cur
		}
		if h.Stage == trace.StageDevice {
			attributed += bs.blameDeviceWindow(hs, he, subHops)
		} else {
			bs.emit(clientResource(h.Stage), false, he-hs)
			bs.stageNs[h.Stage] += he - hs
			attributed += he - hs
		}
		cur = he
	}
	if cur < s.End {
		bs.emit(ResHostCPU, false, s.End-cur)
		attributed += s.End - cur
	}
	return attributed
}

// blameDeviceWindow partitions the client-observed device window
// [ds, de] by the fabric/controller sub-stages inside it: covered time
// is service on the sub-stage's resource, gaps are queueing on the
// resource the command was waiting for next, and the trailing gap
// (CQE posted, host not yet reaping) queues on host software. With no
// sub-stages recorded the whole window is the opaque device resource.
func (bs *BlameSet) blameDeviceWindow(ds, de int64, subHops []trace.Hop) int64 {
	cur := ds
	any := false
	for _, h := range subHops {
		hs, he := clip(h.Start, h.End, cur, de)
		if he <= hs && !(h.Start >= cur && h.Start <= de && h.Start == h.End) {
			continue
		}
		any = true
		if hs > cur {
			bs.emit(waitResource(h.Stage), true, hs-cur)
		}
		if he > hs {
			bs.emit(serviceResource(h.Stage), false, he-hs)
			bs.stageNs[h.Stage] += he - hs
			cur = he
		} else if h.Start > cur {
			// Zero-length hop (a coalesced doorbell): it closed the gap
			// but contributes no service time.
			cur = h.Start
		}
	}
	if !any {
		bs.emit(ResDevice, false, de-ds)
		return de - ds
	}
	if cur < de {
		bs.emit(ResHostCPU, true, de-cur)
	}
	return de - ds
}

// clip bounds [s, e] to [lo, hi].
func clip(s, e, lo, hi int64) (int64, int64) {
	if s < lo {
		s = lo
	}
	if e > hi {
		e = hi
	}
	return s, e
}

// Rows returns the aggregated blame sorted by total blamed time
// descending, ties broken by resource name — the deterministic ranking
// reports print.
func (bs *BlameSet) Rows() []Blame {
	out := make([]Blame, 0, len(bs.rows))
	for _, b := range bs.rows {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].TotalNs(), out[j].TotalNs()
		if ti != tj {
			return ti > tj
		}
		return out[i].Resource < out[j].Resource
	})
	return out
}
