package fio

import (
	"encoding/binary"
	"math/rand"
)

// math/rand's source is the additive lagged Fibonacci generator
// y[k] = y[k-607] + y[k-273] mod 2^64, so its whole state is its last 607
// outputs.
const (
	lfgLen = 607
	lfgTap = 273
)

// stream is a rand.Source64 that yields the outputs of
// rand.NewSource(seed), and its fill writes the bytes that
// rand.New(rand.NewSource(seed)).Read writes, taking the same draws. So a
// rand.Rand over a stream draws the same offsets and ops between fills as
// one over the seeded source, and a job's buffers do not depend on how
// they are filled. The seeded source is made at the first draw and runs
// until its first lfgLen outputs are recorded; the stream computes every
// later output from the record.
type stream struct {
	seed int64
	src  rand.Source64 // the seeded source, until the ring is full
	// ring holds the last lfgLen outputs, output k at index k % lfgLen.
	ring [lfgLen]uint64
	next int  // ring index of the next output
	full bool // the ring holds lfgLen outputs
	// val holds the unwritten bytes of the draw the last fill split, low
	// byte first, and pos how many there are (rand.Rand's readVal and
	// readPos).
	val uint64
	pos int
}

// Seed restarts the stream as rand.NewSource(seed).
func (s *stream) Seed(seed int64) { *s = stream{seed: seed} }

// Int63 returns a draw's low 63 bits, as math/rand's source does.
func (s *stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Uint64 returns the next output.
func (s *stream) Uint64() uint64 {
	i := s.next
	var x uint64
	if s.full {
		x = s.ring[i] + s.ring[lag(i)]
	} else {
		if s.src == nil {
			s.src = rand.NewSource(s.seed).(rand.Source64)
		}
		x = s.src.Uint64()
	}
	s.ring[i] = x
	s.advance(1)
	return x
}

// lag returns the ring index of the output lfgTap before the one at i.
func lag(i int) int {
	if i < lfgTap {
		return i + lfgLen - lfgTap
	}
	return i - lfgTap
}

// advance moves past m outputs written at the ring's next index, which
// must not wrap. Once the ring is full the seeded source is dropped.
func (s *stream) advance(m int) {
	s.next += m
	if s.next == lfgLen {
		s.next = 0
		s.full = true
		s.src = nil
	}
}

// fill writes the bytes rand.Rand's Read would write to p: what is left
// of the draw the last fill split, then seven bytes per draw, low byte
// first.
func (s *stream) fill(p []byte) {
	n := s.spill(p)
	// Each whole draw goes out in one 8-byte store, whose eighth byte the
	// next store or the tail overwrites.
	for len(p)-n >= 8 {
		if !s.full {
			binary.LittleEndian.PutUint64(p[n:], s.Uint64())
			n += 7
			continue
		}
		// Run the recurrence over a stretch of the ring in which neither
		// the index nor its lag wraps: indexes below lfgTap lag into the
		// ring's top, which the last pass wrote, and the rest into its
		// bottom, which this pass has rewritten.
		i := s.next
		end := lfgLen
		if i < lfgTap {
			end = lfgTap
		}
		m := min(end-i, (len(p)-n-1)/7)
		ys, lags := s.ring[i:i+m], s.ring[lag(i):lag(i)+m]
		for j := range ys {
			x := ys[j] + lags[j]
			ys[j] = x
			binary.LittleEndian.PutUint64(p[n:], x)
			n += 7
		}
		s.advance(m)
	}
	for n < len(p) {
		s.val, s.pos = s.Uint64(), 7
		n += s.spill(p[n:])
	}
}

// spill writes as many of the split draw's unwritten bytes as fit in p
// and returns how many it wrote.
func (s *stream) spill(p []byte) int {
	n := min(s.pos, len(p))
	for j := 0; j < n; j++ {
		p[j] = byte(s.val)
		s.val >>= 8
	}
	s.pos -= n
	return n
}
