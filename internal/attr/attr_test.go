package attr

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestOccLittleIdentity drives an Occ through an arbitrary arrival /
// departure pattern and asserts the Little's-law identity exactly:
// once balanced, the level's time integral equals the summed residence
// time to the nanosecond.
func TestOccLittleIdentity(t *testing.T) {
	var o Occ
	// (time, +n arrivals / -n departures), deliberately bursty with
	// same-instant events and batch enters/exits.
	events := []struct {
		t int64
		n int64
	}{
		{10, 3}, {10, 1}, {25, -2}, {40, 2}, {40, -1},
		{55, -1}, {70, 4}, {70, -4}, {90, -2},
	}
	for _, e := range events {
		if e.n > 0 {
			o.EnterN(e.t, e.n)
		} else {
			o.ExitN(e.t, -e.n)
		}
	}
	integ, resid, balanced := o.LittleCheck()
	if !balanced {
		t.Fatalf("not balanced: arrivals=%d departures=%d level=%d",
			o.Arrivals, o.Departures, o.Level())
	}
	if integ != resid {
		t.Fatalf("Little identity violated: integral=%d residence=%d (diff %d)",
			integ, resid, integ-resid)
	}
	// Hand-computed: levels 4@[10,25) 2@[25,40) 3@[40,55) 2@[55,70)
	// 2@[70,90) → 4*15+2*15+3*15+2*15+2*20 = 205. The same-instant
	// burst at t=70 adds zero area but peaks the level at 6.
	if integ != 205 {
		t.Fatalf("integral = %d, want 205", integ)
	}
	if o.MaxLevel() != 6 {
		t.Fatalf("max level = %d, want 6", o.MaxLevel())
	}
	// Busy the whole span [10, 90): level never hit zero in between.
	if got := o.BusyAsOf(90); got != 80 {
		t.Fatalf("busy = %d, want 80", got)
	}
}

func TestOccIdleGaps(t *testing.T) {
	var o Occ
	o.Enter(100)
	o.Exit(150)
	o.Enter(300)
	o.Exit(360)
	if got := o.BusyAsOf(400); got != 110 {
		t.Fatalf("busy = %d, want 110", got)
	}
	if got := o.IntegralAsOf(400); got != 110 {
		t.Fatalf("integral = %d, want 110", got)
	}
	integ, resid, balanced := o.LittleCheck()
	if !balanced || integ != resid {
		t.Fatalf("identity: integ=%d resid=%d balanced=%v", integ, resid, balanced)
	}
}

func TestWindowAccounting(t *testing.T) {
	var w Window
	w.Record(0, 100, 64)
	w.Record(50, 150, 64) // overlapping in-flight
	if w.Count != 2 || w.Bytes != 128 {
		t.Fatalf("count=%d bytes=%d", w.Count, w.Bytes)
	}
	if w.TotalNs != 200 {
		t.Fatalf("total=%d", w.TotalNs)
	}
}

func hop(st trace.Stage, s, e int64) trace.Hop {
	return trace.Hop{Stage: st, Start: s, End: e}
}

// TestBlameExactPartition builds a synthetic span with client stages,
// device sub-stages, inter-stage gaps and a zero-length coalesced
// doorbell, and asserts blame partitions the duration exactly with the
// expected per-resource split.
func TestBlameExactPartition(t *testing.T) {
	s := &trace.Span{
		QID: 1, CID: 7, Start: 1000, End: 2000,
		Hops: []trace.Hop{
			hop(trace.StageSubmit, 1000, 1100),
			hop(trace.StageDataIn, 1100, 1200),
			hop(trace.StageDevice, 1200, 1800),
			hop(trace.StageReap, 1800, 1900),
			hop(trace.StageDataOut, 1900, 2000),
			// Sub-stages inside the device window, with gaps:
			hop(trace.StageSQWrite, 1200, 1220),
			hop(trace.StageSQDoorbell, 1230, 1230), // coalesced, zero-length
			hop(trace.StageNTBCross, 1230, 1260),
			hop(trace.StageCtrlFetch, 1300, 1340), // 40 ns gap before → nvme.sq queue
			hop(trace.StageCtrlDecode, 1340, 1360),
			hop(trace.StageMedium, 1400, 1600), // 40 ns gap before → nvme.medium queue
			hop(trace.StageDataXfer, 1600, 1660),
			hop(trace.StageCQPost, 1700, 1720), // 40 ns gap before → nvme.cq queue
			hop(trace.StageCQPoll, 1760, 1800), // 40 ns gap before → host.cpu queue
		},
	}
	bs := NewBlameSet()
	if res := bs.AddSpan(s); res != 0 {
		t.Fatalf("residual = %d, want 0", res)
	}
	if bs.ResidualNs != 0 {
		t.Fatalf("aggregate residual = %d", bs.ResidualNs)
	}
	if bs.EndToEndNs != 1000 {
		t.Fatalf("end-to-end = %d", bs.EndToEndNs)
	}
	want := map[string]Blame{
		// Service: submit 100 + reap 100 + cq-poll 40. Queue: the 10 ns
		// gap before the zero-length doorbell (host pacing) + the 40 ns
		// wait for the poll sweep after the CQE landed.
		ResHostCPU: {Resource: ResHostCPU, ServiceNs: 240, QueueNs: 50},
		// data-in 100 + data-out 100.
		ResHostData: {Resource: ResHostData, ServiceNs: 200},
		// sq-write 20 service; 40 ns SQ residency before the fetch.
		ResNVMeSQ: {Resource: ResNVMeSQ, ServiceNs: 20, QueueNs: 40},
		// ntb-cross 30 + ctrl-fetch 40 + data-xfer 60 on the wire.
		ResFabricLink: {Resource: ResFabricLink, ServiceNs: 130},
		// decode 20 + cq-post 20 firmware service.
		ResNVMeCtrl: {Resource: ResNVMeCtrl, ServiceNs: 40},
		// flash service 200, channel queueing 40.
		ResNVMeMedium: {Resource: ResNVMeMedium, ServiceNs: 200, QueueNs: 40},
		// 40 ns waiting for CQ space/post.
		ResNVMeCQ: {Resource: ResNVMeCQ, QueueNs: 40},
	}

	var sum int64
	for _, b := range bs.Rows() {
		sum += b.TotalNs()
		exp, ok := want[b.Resource]
		if !ok {
			t.Fatalf("unexpected resource %q blamed %+v", b.Resource, b)
		}
		if b.ServiceNs != exp.ServiceNs || b.QueueNs != exp.QueueNs {
			t.Errorf("%s: got svc=%d queue=%d, want svc=%d queue=%d",
				b.Resource, b.ServiceNs, b.QueueNs, exp.ServiceNs, exp.QueueNs)
		}
	}
	if sum != 1000 {
		t.Fatalf("blame sum = %d, want 1000", sum)
	}
}

// TestBlameOpaqueDevice: a span without sub-stages (NVMe-oF initiator
// view) blames the whole device window on the opaque device resource.
func TestBlameOpaqueDevice(t *testing.T) {
	s := &trace.Span{
		QID: 2, CID: 1, Start: 0, End: 500,
		Hops: []trace.Hop{
			hop(trace.StageSubmit, 0, 50),
			hop(trace.StageDevice, 50, 450),
			hop(trace.StageReap, 450, 500),
		},
	}
	bs := NewBlameSet()
	if res := bs.AddSpan(s); res != 0 {
		t.Fatalf("residual = %d", res)
	}
	rows := bs.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Resource != ResDevice || rows[0].ServiceNs != 400 {
		t.Fatalf("top row = %+v, want device 400", rows[0])
	}
	if rows[1].Resource != ResHostCPU || rows[1].ServiceNs != 100 {
		t.Fatalf("second row = %+v, want host.cpu 100", rows[1])
	}
}

// TestBlameUncoveredSpan: stages that don't tile the span leave
// host.cpu remainders, still 0-residual.
func TestBlameUncoveredSpan(t *testing.T) {
	s := &trace.Span{
		QID: 3, CID: 2, Start: 0, End: 300,
		Hops: []trace.Hop{
			hop(trace.StageSubmit, 20, 60),
			hop(trace.StageDevice, 100, 200),
		},
	}
	bs := NewBlameSet()
	if res := bs.AddSpan(s); res != 0 {
		t.Fatalf("residual = %d", res)
	}
	total := int64(0)
	for _, b := range bs.Rows() {
		total += b.TotalNs()
	}
	if total != 300 {
		t.Fatalf("sum = %d", total)
	}
}

// TestFold: Fold aggregates reconciled spans exactly as AddSpans does,
// and refuses a set that leaves nothing to attribute.
func TestFold(t *testing.T) {
	spans := []*trace.Span{
		{QID: 3, CID: 2, Start: 0, End: 300, Hops: []trace.Hop{
			hop(trace.StageSubmit, 20, 60),
			hop(trace.StageDevice, 100, 200),
		}},
		{QID: 3, CID: 3, Start: 100, End: 250, Hops: []trace.Hop{
			hop(trace.StageSubmit, 100, 250),
		}},
	}
	bs, err := Fold(spans)
	if err != nil {
		t.Fatal(err)
	}
	want := NewBlameSet()
	want.AddSpans(spans)
	if !reflect.DeepEqual(bs, want) {
		t.Fatalf("Fold = %+v, want %+v", bs, want)
	}
	for _, empty := range [][]*trace.Span{nil, {{QID: 1, CID: 1, Start: 50, End: 50}}} {
		if _, err := Fold(empty); err == nil {
			t.Errorf("Fold(%d spans, none attributable) succeeded", len(empty))
		}
	}
}

func TestReportDeterministicTable(t *testing.T) {
	bs := NewBlameSet()
	bs.AddSpan(&trace.Span{
		QID: 1, CID: 1, Start: 0, End: 100,
		Hops: []trace.Hop{hop(trace.StageSubmit, 0, 100)},
	})
	r := BuildReport("unit", bs, map[string]float64{ResHostCPU: 0.5})
	if r.Top() != ResHostCPU {
		t.Fatalf("top = %q", r.Top())
	}
	a, b := r.Table(), r.Table()
	if a != b {
		t.Fatal("table not deterministic")
	}
	if r.Rows[0].BlamedNsIO != 100 || !r.Rows[0].HasUtil {
		t.Fatalf("row = %+v", r.Rows[0])
	}
}

func TestCounterTracksLevels(t *testing.T) {
	spans := []*trace.Span{
		{QID: 1, CID: 1, Start: 0, End: 100, Hops: []trace.Hop{
			hop(trace.StageDevice, 10, 60),
			hop(trace.StageCtrlFetch, 15, 20),
			hop(trace.StageCQPost, 50, 55),
		}},
		{QID: 1, CID: 2, Start: 0, End: 100, Hops: []trace.Hop{
			hop(trace.StageDevice, 30, 90),
			hop(trace.StageCtrlFetch, 35, 40),
			hop(trace.StageCQPost, 80, 85),
		}},
	}
	tracks := CounterTracks(spans)
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d, want 2 (queue + controller)", len(tracks))
	}
	q := tracks[0]
	if q.Name != "inflight" || q.PID != 1 {
		t.Fatalf("queue track = %+v", q)
	}
	// Levels: +1@10, +1@30, -1@60, -1@90.
	wantVals := []float64{1, 2, 1, 0}
	if len(q.Points) != len(wantVals) {
		t.Fatalf("points = %+v", q.Points)
	}
	for i, p := range q.Points {
		if p.Value != wantVals[i] {
			t.Fatalf("point %d = %+v, want %v", i, p, wantVals[i])
		}
	}
	ctrl := tracks[1]
	if ctrl.Name != "ctrl_inflight" {
		t.Fatalf("ctrl track = %+v", ctrl)
	}
	// +1@15, +1@35, -1@55, -1@85.
	if len(ctrl.Points) != 4 || ctrl.Points[1].Value != 2 || ctrl.Points[3].Value != 0 {
		t.Fatalf("ctrl points = %+v", ctrl.Points)
	}
}
