package attr

import "testing"

// refWindow recomputes Window's fields the brute-force way from a kept
// interval list, so the accumulator's O(1) folds are checked against
// first principles.
type refInterval struct {
	start, end int64
	bytes      uint64
}

func refWindowOf(ivs []refInterval) Window {
	var w Window
	for _, iv := range ivs {
		if iv.end < iv.start {
			continue // Record rejects inverted intervals
		}
		d := iv.end - iv.start
		w.Count++
		w.Bytes += iv.bytes
		w.TotalNs += d
	}
	return w
}

func recordAll(ivs []refInterval) Window {
	var w Window
	for _, iv := range ivs {
		w.Record(iv.start, iv.end, iv.bytes)
	}
	return w
}

func checkWindow(t *testing.T, got, want Window) {
	t.Helper()
	if got != want {
		t.Fatalf("window = %+v, want %+v", got, want)
	}
}

// TestWindowZeroLengthIntervals: a zero-length interval (start == end,
// e.g. a zero-cost MMIO under an aggressive overlay) must count and
// carry bytes but add no busy time.
func TestWindowZeroLengthIntervals(t *testing.T) {
	ivs := []refInterval{
		{100, 100, 64},
		{100, 100, 0},
		{250, 250, 4096},
	}
	got := recordAll(ivs)
	checkWindow(t, got, refWindowOf(ivs))
	if got.Count != 3 || got.TotalNs != 0 || got.Bytes != 4160 {
		t.Fatalf("zero-length folds wrong: %+v", got)
	}
}

// TestWindowExactlyAbutting: back-to-back intervals sharing an endpoint
// must neither double-count nor gap — offered time is exactly the
// covered span.
func TestWindowExactlyAbutting(t *testing.T) {
	ivs := []refInterval{
		{0, 100, 64},
		{100, 250, 64},
		{250, 1000, 64},
	}
	got := recordAll(ivs)
	checkWindow(t, got, refWindowOf(ivs))
	if got.TotalNs != 1000 {
		t.Fatalf("abutting TotalNs = %d, want 1000", got.TotalNs)
	}
}

// TestWindowSameTimestampOverlap: fully and partially overlapping
// intervals (posted writes in flight together) sum their offered time,
// which legitimately exceeds the elapsed time.
func TestWindowSameTimestampOverlap(t *testing.T) {
	ivs := []refInterval{
		{0, 1000, 512},
		{0, 1000, 512}, // identical twin
		{500, 1500, 256},
		{1500, 1400, 99}, // inverted: must be rejected entirely
	}
	got := recordAll(ivs)
	checkWindow(t, got, refWindowOf(ivs))
	if got.Count != 3 || got.Bytes != 1280 {
		t.Fatalf("inverted interval not rejected: %+v", got)
	}
	if got.TotalNs != 3000 {
		t.Fatalf("overlap TotalNs = %d, want 3000 (twice the 1500 ns elapsed)", got.TotalNs)
	}
}

// TestWindowPseudoRandomAgainstReference drives a deterministic stream
// of awkward intervals (overlaps, zero lengths, shared endpoints,
// out-of-order arrival) and requires exact agreement with the
// brute-force reference.
func TestWindowPseudoRandomAgainstReference(t *testing.T) {
	// splitmix64, fixed seed: deterministic without math/rand.
	s := uint64(42)
	next := func() uint64 {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	var ivs []refInterval
	for i := 0; i < 500; i++ {
		start := int64(next() % 10_000)
		var end int64
		switch next() % 4 {
		case 0:
			end = start // zero-length
		case 1:
			end = start + int64(next()%5_000)
		case 2:
			end = start - int64(next()%100) // occasionally inverted
		default:
			end = start + 1
		}
		ivs = append(ivs, refInterval{start, end, next() % 8192})
	}
	checkWindow(t, recordAll(ivs), refWindowOf(ivs))
}

// TestOccSameInstantEvents: enters and exits at one timestamp must keep
// the Little identity exact — the integral advances zero over a
// zero-width interval regardless of transient level.
func TestOccSameInstantEvents(t *testing.T) {
	var o Occ
	o.Enter(100)
	o.Enter(100)
	o.Exit(100)  // down to 1, same instant
	o.Enter(100) // back to 2
	o.Exit(200)
	o.Exit(200)
	integral, residence, balanced := o.LittleCheck()
	if !balanced {
		t.Fatalf("not balanced: %+v", o)
	}
	if integral != residence {
		t.Fatalf("integral %d != residence %d", integral, residence)
	}
	if integral != 200 {
		// level 2 over [100, 200]
		t.Fatalf("integral = %d, want 200", integral)
	}
	if o.MaxLevel() != 2 {
		t.Fatalf("max level = %d, want 2", o.MaxLevel())
	}
}

// TestOccAbuttingOccupancy: an exit and the next enter at the same
// instant (a slot handed straight to the next command) must read as
// continuously busy with no double-counted level.
func TestOccAbuttingOccupancy(t *testing.T) {
	var o Occ
	o.Enter(0)
	o.Exit(1000)
	o.Enter(1000)
	o.Exit(3000)
	integral, residence, balanced := o.LittleCheck()
	if !balanced || integral != residence {
		t.Fatalf("identity broken: integral %d residence %d balanced %v", integral, residence, balanced)
	}
	if integral != 3000 {
		t.Fatalf("integral = %d, want 3000 (continuous single occupancy)", integral)
	}
	if o.BusyNs != 3000 {
		t.Fatalf("busy = %d, want 3000 (no idle gap at the abutment)", o.BusyNs)
	}
	if o.MaxLevel() != 1 {
		t.Fatalf("max level = %d, want 1 (no transient 2 at the handoff)", o.MaxLevel())
	}
}
