// Package memory models a host's physical system memory: a contiguous
// DRAM range backed per 4 KiB page on first write, and a first-fit
// segment allocator.
//
// All queue entries, PRP lists, bounce buffers and data pages in the
// simulation live in this memory, so data integrity can be verified
// through every layer (NTB translation, controller DMA, bounce copies).
// A page no write has reached reads as zeros and holds no bytes, so a
// host costs only the pages it writes, whatever its size.
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
	ErrPageCross  = errors.New("memory: slice crosses a page boundary")
	ErrNoSpace    = errors.New("memory: allocation failed, no space")
	ErrBadFree    = errors.New("memory: free of unallocated address")
	ErrBadAlign   = errors.New("memory: alignment must be a power of two")
)

// pageSize is the backing granularity and the most one Slice can return.
const pageSize = 4096

type page = [pageSize]byte

// Memory is one host's DRAM. It is not safe for concurrent use; in the
// simulation all access is serialized by the event kernel.
type Memory struct {
	base, size Addr
	// pages[i] backs the physical page base/pageSize+i. A nil page has
	// never been written and reads as zeros. The table grows only to the
	// highest page written.
	pages []*page
	// allocated maps segment start -> length.
	allocated map[Addr]uint64
	// free list of [start, end) holes, sorted by start.
	holes []hole
}

type hole struct{ start, end Addr }

// New creates a memory of the given size whose first byte is at physical
// address base. No page is backed until it is written.
func New(base Addr, size uint64) *Memory {
	return &Memory{
		base:      base,
		size:      size,
		allocated: make(map[Addr]uint64),
		holes:     []hole{{start: base, end: base + size}},
	}
}

// Base returns the lowest physical address of the memory.
func (m *Memory) Base() Addr { return m.base }

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return m.size }

// Contains reports whether [addr, addr+n) lies inside the memory.
func (m *Memory) Contains(addr Addr, n uint64) bool {
	return addr >= m.base && addr+n >= addr && addr+n <= m.base+m.size
}

// locate returns the table index of addr's page and addr's offset in it.
func (m *Memory) locate(addr Addr) (int, int) {
	return int(addr/pageSize - m.base/pageSize), int(addr % pageSize)
}

// back returns page i, backing it first if no write has reached it.
func (m *Memory) back(i int) *page {
	if i >= len(m.pages) {
		m.pages = append(m.pages, make([]*page, i+1-len(m.pages))...)
	}
	if m.pages[i] == nil {
		m.pages[i] = new(page)
	}
	return m.pages[i]
}

// Read copies len(buf) bytes starting at addr into buf.
func (m *Memory) Read(addr Addr, buf []byte) error {
	if !m.Contains(addr, uint64(len(buf))) {
		return fmt.Errorf("%w: read [%#x,+%d)", ErrOutOfRange, addr, len(buf))
	}
	for len(buf) > 0 {
		i, off := m.locate(addr)
		n := min(len(buf), pageSize-off)
		if i < len(m.pages) && m.pages[i] != nil {
			copy(buf, m.pages[i][off:])
		} else {
			clear(buf[:n])
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Write copies data into memory starting at addr, backing every page it
// reaches.
func (m *Memory) Write(addr Addr, data []byte) error {
	if !m.Contains(addr, uint64(len(data))) {
		return fmt.Errorf("%w: write [%#x,+%d)", ErrOutOfRange, addr, len(data))
	}
	for len(data) > 0 {
		i, off := m.locate(addr)
		n := copy(m.back(i)[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
	return nil
}

// Slice returns a view of [addr, addr+n) without copying, like a kernel's
// kmap of one page: the range must lie within one 4 KiB page, or Slice
// returns ErrPageCross. Mutating the returned slice mutates memory; this
// is how "CPU" code in the simulation gets zero-copy access to local
// structures like CQ entries. A range that spans pages is copied with
// Read and Write instead.
func (m *Memory) Slice(addr Addr, n uint64) ([]byte, error) {
	if !m.Contains(addr, n) {
		return nil, fmt.Errorf("%w: slice [%#x,+%d)", ErrOutOfRange, addr, n)
	}
	i, off := m.locate(addr)
	if uint64(off)+n > pageSize {
		return nil, fmt.Errorf("%w: slice [%#x,+%d)", ErrPageCross, addr, n)
	}
	// The caller may write through the view, so its page is backed.
	end := off + int(n)
	return m.back(i)[off:end:end], nil
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
// may land on previously freed, dirty bytes. Only backed pages need
// clearing: the rest read as zeros already.
func (m *Memory) AllocZeroed(size, align uint64) (Addr, error) {
	a, err := m.Alloc(size, align)
	if err != nil {
		return 0, err
	}
	for addr, end := a, a+size; addr < end; {
		i, off := m.locate(addr)
		if i >= len(m.pages) {
			break
		}
		n := min(end-addr, uint64(pageSize-off))
		if pg := m.pages[i]; pg != nil {
			clear(pg[off : off+int(n)])
		}
		addr += n
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
