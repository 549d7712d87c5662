package attr

// Occ is an exact occupancy accumulator for one contended resource on
// the virtual clock. Layers embed it as a plain value field next to
// their counter structs and call Enter/Exit at the instants items
// arrive and depart; every update is O(1) integer arithmetic with no
// kernel interaction, so accounting never perturbs simulated time.
//
// The invariant that makes it an exact Little's-law instrument: the
// level's time integral is advanced at every event, so once every
// arrival has departed,
//
//	IntegralNs == ResidenceNs()   (∫L dt == Σ(exit − enter), exactly)
//
// which is L = λW with both sides measured, not estimated. Tests
// assert the identity with zero tolerance.
//
// Mutating methods need an addressable Occ (pointer receiver); reading
// methods take value receivers so snapshot copies — e.g. a QueueStats
// returned by value — stay fully usable.
type Occ struct {
	level    int64
	maxLevel int64
	lastNs   int64

	// IntegralNs is ∫ level dt up to the last event; BusyNs is
	// ∫ [level>0] dt up to the last event. Use the *AsOf readers to
	// extend them to "now" without mutating.
	IntegralNs int64
	BusyNs     int64

	// Arrivals and Departures count Enter/Exit items.
	Arrivals   uint64
	Departures uint64

	enterSumNs int64
	exitSumNs  int64
}

// advance folds the elapsed interval at the current level into the
// integrals. Events at or before lastNs are same-instant and add zero.
func (o *Occ) advance(nowNs int64) {
	if nowNs > o.lastNs {
		dt := nowNs - o.lastNs
		o.IntegralNs += o.level * dt
		if o.level > 0 {
			o.BusyNs += dt
		}
		o.lastNs = nowNs
	}
}

// Enter records one arrival at nowNs.
func (o *Occ) Enter(nowNs int64) { o.EnterN(nowNs, 1) }

// EnterN records n arrivals at nowNs (a doorbell write publishing
// several SQEs at once).
func (o *Occ) EnterN(nowNs int64, n int64) {
	if n <= 0 {
		return
	}
	o.advance(nowNs)
	o.level += n
	if o.level > o.maxLevel {
		o.maxLevel = o.level
	}
	o.Arrivals += uint64(n)
	o.enterSumNs += n * nowNs
}

// Exit records one departure at nowNs.
func (o *Occ) Exit(nowNs int64) { o.ExitN(nowNs, 1) }

// ExitN records n departures at nowNs (a CQ head doorbell consuming a
// swept batch).
func (o *Occ) ExitN(nowNs int64, n int64) {
	if n <= 0 {
		return
	}
	o.advance(nowNs)
	o.level -= n
	o.Departures += uint64(n)
	o.exitSumNs += n * nowNs
}

// Level is the current occupancy.
func (o Occ) Level() int64 { return o.level }

// MaxLevel is the high-water occupancy.
func (o Occ) MaxLevel() int64 { return o.maxLevel }

// ResidenceNs is the summed residence time of departed items,
// Σexit − Σenter. Exact once Arrivals == Departures.
func (o Occ) ResidenceNs() int64 { return o.exitSumNs - o.enterSumNs }

// IntegralAsOf extends the level integral to nowNs without mutating.
func (o Occ) IntegralAsOf(nowNs int64) int64 {
	if nowNs > o.lastNs {
		return o.IntegralNs + o.level*(nowNs-o.lastNs)
	}
	return o.IntegralNs
}

// BusyAsOf extends the busy time to nowNs without mutating.
func (o Occ) BusyAsOf(nowNs int64) int64 {
	if nowNs > o.lastNs && o.level > 0 {
		return o.BusyNs + (nowNs - o.lastNs)
	}
	return o.BusyNs
}

// Utilization is the busy fraction of [0, nowNs].
func (o Occ) Utilization(nowNs int64) float64 {
	if nowNs <= 0 {
		return 0
	}
	return float64(o.BusyAsOf(nowNs)) / float64(nowNs)
}

// LittleCheck reports both sides of the L = λW identity. balanced is
// true when every arrival has departed, the precondition under which
// integralNs == residenceNs holds exactly.
func (o Occ) LittleCheck() (integralNs, residenceNs int64, balanced bool) {
	return o.IntegralNs, o.ResidenceNs(), o.Arrivals == o.Departures && o.level == 0
}

// Window accumulates closed-form intervals whose start AND end are
// known at record time — link transactions whose flight time is
// computed at issue. Unlike Occ it tolerates out-of-order and
// overlapping intervals (posted writes complete asynchronously), at
// the cost of measuring offered time, which may exceed elapsed time
// when intervals overlap.
type Window struct {
	// Count and Bytes total the recorded intervals and their payloads.
	Count uint64
	Bytes uint64
	// TotalNs is the summed interval length — offered busy time.
	TotalNs int64
	// ByteNs is Σ bytes·duration; divided by elapsed time it is the
	// mean bytes-in-flight on the link.
	ByteNs int64
}

// Record accounts one interval carrying bytes of payload.
func (w *Window) Record(startNs, endNs int64, bytes uint64) {
	if endNs < startNs {
		return
	}
	d := endNs - startNs
	w.Count++
	w.Bytes += bytes
	w.TotalNs += d
	w.ByteNs += int64(bytes) * d
}

// OfferedUtilization is offered busy time over elapsed time; values
// above 1 mean overlapping in-flight transactions (offered load).
func (w Window) OfferedUtilization(nowNs int64) float64 {
	if nowNs <= 0 {
		return 0
	}
	return float64(w.TotalNs) / float64(nowNs)
}

// MeanBytesInFlight is the time-averaged payload in flight.
func (w Window) MeanBytesInFlight(nowNs int64) float64 {
	if nowNs <= 0 {
		return 0
	}
	return float64(w.ByteNs) / float64(nowNs)
}
