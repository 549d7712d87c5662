// Package memory models a host's physical system memory: a contiguous
// DRAM range with real backing bytes and a first-fit segment allocator.
//
// All queue entries, PRP lists, bounce buffers and data pages in the
// simulation live in these byte arrays, so data integrity can be verified
// through every layer (NTB translation, controller DMA, bounce copies).
package memory

import (
	"errors"
	"fmt"
	"sort"
)

// Addr is a physical address within one host's address space.
type Addr = uint64

// Errors returned by Memory operations.
var (
	ErrOutOfRange = errors.New("memory: access out of range")
	ErrNoSpace    = errors.New("memory: allocation failed, no space")
	ErrBadFree    = errors.New("memory: free of unallocated address")
	ErrBadAlign   = errors.New("memory: alignment must be a power of two")
)

// Memory is one host's DRAM. It is not safe for concurrent use; in the
// simulation all access is serialized by the event kernel.
type Memory struct {
	base Addr
	data []byte
	// allocated maps segment start -> length.
	allocated map[Addr]uint64
	// free list of [start, end) holes, sorted by start.
	holes []hole
	// touched is the high-water offset (exclusive, relative to base) of
	// bytes that may have been written. Everything at or beyond it is
	// still runtime-zeroed from make, so AllocZeroed can skip it.
	touched uint64
}

type hole struct{ start, end Addr }

// New creates a memory of the given size whose first byte is at physical
// address base.
func New(base Addr, size uint64) *Memory {
	return &Memory{
		base:      base,
		data:      make([]byte, size),
		allocated: make(map[Addr]uint64),
		holes:     []hole{{start: base, end: base + size}},
	}
}

// Base returns the lowest physical address of the memory.
func (m *Memory) Base() Addr { return m.base }

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.data)) }

// Contains reports whether [addr, addr+n) lies inside the memory.
func (m *Memory) Contains(addr Addr, n uint64) bool {
	return addr >= m.base && addr+n >= addr && addr+n <= m.base+uint64(len(m.data))
}

// Read copies len(buf) bytes starting at addr into buf.
func (m *Memory) Read(addr Addr, buf []byte) error {
	if !m.Contains(addr, uint64(len(buf))) {
		return fmt.Errorf("%w: read [%#x,+%d)", ErrOutOfRange, addr, len(buf))
	}
	copy(buf, m.data[addr-m.base:])
	return nil
}

// Write copies data into memory starting at addr.
func (m *Memory) Write(addr Addr, data []byte) error {
	if !m.Contains(addr, uint64(len(data))) {
		return fmt.Errorf("%w: write [%#x,+%d)", ErrOutOfRange, addr, len(data))
	}
	copy(m.data[addr-m.base:], data)
	if end := addr - m.base + uint64(len(data)); end > m.touched {
		m.touched = end
	}
	return nil
}

// Slice returns the backing bytes for [addr, addr+n) without copying.
// Mutating the returned slice mutates memory; this is how "CPU" code in the
// simulation gets zero-copy access to local structures like CQ entries.
func (m *Memory) Slice(addr Addr, n uint64) ([]byte, error) {
	if !m.Contains(addr, n) {
		return nil, fmt.Errorf("%w: slice [%#x,+%d)", ErrOutOfRange, addr, n)
	}
	off := addr - m.base
	// The caller may write through the slice; conservatively raise the
	// high-water mark.
	if off+n > m.touched {
		m.touched = off + n
	}
	return m.data[off : off+n : off+n], nil
}

func alignUp(a Addr, align uint64) Addr {
	return (a + align - 1) &^ (align - 1)
}

// Alloc reserves size bytes aligned to align (a power of two; 0 or 1 means
// unaligned) and returns the physical address. First-fit over the hole
// list, which keeps allocation deterministic.
func (m *Memory) Alloc(size, align uint64) (Addr, error) {
	if size == 0 {
		size = 1
	}
	if align == 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		return 0, ErrBadAlign
	}
	for i, h := range m.holes {
		start := alignUp(h.start, align)
		if start+size > start && start+size <= h.end {
			// Carve [start, start+size) out of the hole.
			var repl []hole
			if h.start < start {
				repl = append(repl, hole{h.start, start})
			}
			if start+size < h.end {
				repl = append(repl, hole{start + size, h.end})
			}
			m.holes = append(m.holes[:i], append(repl, m.holes[i+1:]...)...)
			m.allocated[start] = size
			return start, nil
		}
	}
	return 0, fmt.Errorf("%w: %d bytes align %d", ErrNoSpace, size, align)
}

// AllocZeroed is Alloc followed by zero-filling the segment; allocations
// may land on previously freed, dirty bytes. Only the part of the segment
// below the touched high-water mark needs clearing — the rest has never
// been written and is still zero from make.
func (m *Memory) AllocZeroed(size, align uint64) (Addr, error) {
	a, err := m.Alloc(size, align)
	if err != nil {
		return 0, err
	}
	off := a - m.base
	if zend := min(off+size, m.touched); zend > off {
		clear(m.data[off:zend])
	}
	return a, nil
}

// Free releases a segment previously returned by Alloc.
func (m *Memory) Free(addr Addr) error {
	size, ok := m.allocated[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	delete(m.allocated, addr)
	m.holes = append(m.holes, hole{addr, addr + size})
	sort.Slice(m.holes, func(i, j int) bool { return m.holes[i].start < m.holes[j].start })
	// Coalesce adjacent holes.
	out := m.holes[:0]
	for _, h := range m.holes {
		if n := len(out); n > 0 && out[n-1].end == h.start {
			out[n-1].end = h.end
		} else {
			out = append(out, h)
		}
	}
	m.holes = out
	return nil
}

// FreeBytes returns the total bytes available across all holes.
func (m *Memory) FreeBytes() uint64 {
	var n uint64
	for _, h := range m.holes {
		n += h.end - h.start
	}
	return n
}
