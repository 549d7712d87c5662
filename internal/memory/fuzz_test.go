package memory

import (
	"bytes"
	"errors"
	"sort"
	"testing"
)

// FuzzMemory runs a decoded sequence of Write, Read, Slice, AllocZeroed and
// Free calls against both a Memory and a dense []byte reference. The
// memory's base and size come from the input and need not be page
// multiples. Every read must equal the reference; an out-of-range or
// page-crossing call must return its error, never panic; a write through
// a Slice must be visible to Read.
//
// The input is a 4-byte header (base offset, size) followed by up to 64
// 6-byte operations: opcode, address (2 bytes), length (2 bytes), and an
// argument byte that seeds the data written, picks an alignment or picks
// the allocation to free. Longer inputs are skipped, which keeps each
// run, and the minimization of each new input, short.
func FuzzMemory(f *testing.F) {
	op := func(code byte, addr, n uint16, arg byte) []byte {
		return []byte{code, byte(addr), byte(addr >> 8), byte(n), byte(n >> 8), arg}
	}
	seq := func(ops ...[]byte) []byte {
		// Base 0x10040 and size 0x4322, so address field a is 0x10000+a
		// and a multiple of 0x1000 is a page boundary.
		in := []byte{0x40, 0x00, 0x22, 0x43}
		for _, o := range ops {
			in = append(in, o...)
		}
		return in
	}
	// A write across a page boundary, read back across it, then sliced
	// across it (an error) and up to it (a view).
	f.Add(seq(op(0, 0x0f00, 600, 7), op(1, 0x0e00, 1000, 0), op(2, 0x0f00, 300, 0), op(2, 0x0f00, 256, 0)))
	// Dirty memory, free it, and reallocate it zeroed.
	f.Add(seq(op(3, 0, 5000, 0), op(0, 0x40, 4000, 9), op(4, 0, 0, 0), op(3, 0, 5000, 3), op(1, 0x40, 6000, 0)))
	// Slice the end of a page, write through it, read around it, and
	// slice one byte more.
	f.Add(seq(op(2, 0x2fcc, 0x34, 5), op(1, 0x2f00, 0x200, 0), op(2, 0x2fcc, 0x35, 1)))
	// Accesses that start below the base or end past the size, and a
	// free of an address never allocated.
	f.Add(seq(op(0, 0, 0x41, 1), op(1, 0x4360, 16, 0), op(2, 0x4370, 4, 0), op(4, 0x10, 0, 0x80)))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 || len(in) > 4+6*64 {
			return
		}
		base := 0x10000 + (Addr(in[0]) | Addr(in[1])<<8)
		size := 1 + (uint64(in[2])|uint64(in[3])<<8)%(6*pageSize)
		in = in[4:]
		m := New(base, size)
		ref := make([]byte, size)
		live := map[Addr]uint64{} // allocation -> size asked for
		inside := func(addr Addr, n uint64) bool {
			return addr >= base && addr+n <= base+size
		}
		for ; len(in) >= 6; in = in[6:] {
			// Addresses run from 64 bytes below the base to 64 past the end.
			addr := base - 64 + (Addr(in[1])|Addr(in[2])<<8)%(size+128)
			n := (uint64(in[3]) | uint64(in[4])<<8) % (2*pageSize + 64)
			arg := in[5]
			switch in[0] % 5 {
			case 0:
				data := make([]byte, n)
				for i := range data {
					data[i] = arg + byte(i*7)
				}
				err := m.Write(addr, data)
				if !inside(addr, n) {
					if !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("Write(%#x, %d) outside: %v", addr, n, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Write(%#x, %d): %v", addr, n, err)
				}
				copy(ref[addr-base:], data)
			case 1:
				buf := bytes.Repeat([]byte{0xA5}, int(n))
				err := m.Read(addr, buf)
				if !inside(addr, n) {
					if !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("Read(%#x, %d) outside: %v", addr, n, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("Read(%#x, %d): %v", addr, n, err)
				}
				if want := ref[addr-base : addr-base+n]; !bytes.Equal(buf, want) {
					t.Fatalf("Read(%#x, %d) differs from the reference", addr, n)
				}
			case 2:
				s, err := m.Slice(addr, n)
				switch {
				case !inside(addr, n):
					if !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("Slice(%#x, %d) outside: %v", addr, n, err)
					}
					continue
				case addr%pageSize+n > pageSize:
					if !errors.Is(err, ErrPageCross) {
						t.Fatalf("Slice(%#x, %d) across a page: %v", addr, n, err)
					}
					continue
				case err != nil:
					t.Fatalf("Slice(%#x, %d): %v", addr, n, err)
				}
				if uint64(len(s)) != n || uint64(cap(s)) != n {
					t.Fatalf("Slice(%#x, %d): len %d cap %d", addr, n, len(s), cap(s))
				}
				if !bytes.Equal(s, ref[addr-base:addr-base+n]) {
					t.Fatalf("Slice(%#x, %d) differs from the reference", addr, n)
				}
				for i := range s {
					s[i] = arg ^ byte(i)
				}
				copy(ref[addr-base:], s)
				got := make([]byte, n)
				if err := m.Read(addr, got); err != nil || !bytes.Equal(got, s) {
					t.Fatalf("a write through Slice(%#x, %d) is not visible to Read: %v", addr, n, err)
				}
			case 3:
				align := uint64(1) << (arg % 13)
				a, err := m.AllocZeroed(n, align)
				if err != nil {
					if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("AllocZeroed(%d, %d): %v", n, align, err)
					}
					continue
				}
				if a%align != 0 || !inside(a, max(n, 1)) {
					t.Fatalf("AllocZeroed(%d, %d) = %#x, outside or misaligned", n, align, a)
				}
				for b, bn := range live {
					if a < b+max(bn, 1) && b < a+max(n, 1) {
						t.Fatalf("AllocZeroed(%d, %d) = %#x overlaps %#x+%d", n, align, a, b, bn)
					}
				}
				live[a] = n
				clear(ref[a-base : a-base+n])
			case 4:
				if arg&0x80 != 0 || len(live) == 0 {
					_, ok := live[addr]
					err := m.Free(addr)
					if ok != (err == nil) || !ok && !errors.Is(err, ErrBadFree) {
						t.Fatalf("Free(%#x) of a live allocation %v: %v", addr, ok, err)
					}
					delete(live, addr)
					continue
				}
				addrs := make([]Addr, 0, len(live))
				for a := range live {
					addrs = append(addrs, a)
				}
				sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
				a := addrs[int(arg)%len(addrs)]
				if err := m.Free(a); err != nil {
					t.Fatalf("Free(%#x): %v", a, err)
				}
				delete(live, a)
			}
		}
		whole := make([]byte, size)
		if err := m.Read(base, whole); err != nil || !bytes.Equal(whole, ref) {
			t.Fatalf("final contents differ from the reference: %v", err)
		}
	})
}
