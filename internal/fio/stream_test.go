package fio

import (
	"math/rand"
	"testing"
)

// TestFillMatchesMathRand checks the fill against math/rand's Read over
// the seeded source it replaces: between fills, a rand.Rand over each
// draws an offset and an op as the worker loop does, and every fill and
// every draw must agree, through the first lfgLen outputs that the
// seeded source makes and well past them, where the ring makes them.
// Sizes that are not a multiple of 7 split a draw, whose bytes the next
// fill must start with.
func TestFillMatchesMathRand(t *testing.T) {
	const slots = 1_000_003
	for _, seed := range []int64{1, 7, -3, 1 << 40} {
		for _, size := range []int{1, 6, 7, 8, 4095, 4096, 4097, 65536, 131072} {
			ref := rand.New(rand.NewSource(seed))
			s := &stream{seed: seed}
			rng := rand.New(s)
			want, got := make([]byte, size), make([]byte, size)
			for step, drawn := 0, 0; step < 3 || drawn < 3*lfgLen; step++ {
				if a, b := ref.Int63n(slots), rng.Int63n(slots); a != b {
					t.Fatalf("seed %d size %d step %d: offset draw %d, want %d", seed, size, step, b, a)
				}
				if a, b := ref.Intn(100), rng.Intn(100); a != b {
					t.Fatalf("seed %d size %d step %d: op draw %d, want %d", seed, size, step, b, a)
				}
				ref.Read(want)
				s.fill(got)
				if i := firstDiff(want, got); i >= 0 {
					t.Fatalf("seed %d size %d step %d: byte %d is %#x, want %#x", seed, size, step, i, got[i], want[i])
				}
				drawn += 2 + size/7
			}
			if a, b := ref.Int63(), rng.Int63(); a != b {
				t.Fatalf("seed %d size %d: last draw %d, want %d", seed, size, b, a)
			}
		}
	}

	s := &stream{seed: 7}
	buf := make([]byte, 64<<10)
	// The first run, which AllocsPerRun does not count, makes the seeded
	// source and records its outputs; every later fill runs on the ring.
	if allocs := testing.AllocsPerRun(10, func() { s.fill(buf) }); allocs != 0 {
		t.Fatalf("a 64 KiB fill allocates %.1f times, want 0", allocs)
	}
}

// firstDiff returns the index of the first byte where a and b, of equal
// length, differ, or -1 if they are equal.
func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// FuzzFill runs a sequence of draws and fills on the fill and on
// math/rand's Read, which it replaces, and requires every result to
// agree. Each op byte's low bit picks a draw or a fill; the other seven
// bits pick the draw's bound, or the fill's length: 0 to 63 bytes, or
// up to 33 KiB in steps of 521 bytes, so a few fills pass the lfgLen
// draws after which the stream computes its outputs itself.
func FuzzFill(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		ref := rand.New(rand.NewSource(seed))
		s := &stream{seed: seed}
		rng := rand.New(s)
		for i, op := range ops {
			arg := int(op >> 1)
			if op&1 == 0 {
				if a, b := ref.Int63n(int64(arg)+1), rng.Int63n(int64(arg)+1); a != b {
					t.Fatalf("op %d: draw %d, want %d", i, b, a)
				}
				continue
			}
			size := arg
			if arg >= 64 {
				size = (arg - 63) * 521
			}
			want, got := make([]byte, size), make([]byte, size)
			ref.Read(want)
			s.fill(got)
			if j := firstDiff(want, got); j >= 0 {
				t.Fatalf("op %d: fill of %d bytes differs at byte %d: %#x, want %#x", i, size, j, got[j], want[j])
			}
		}
	})
}
