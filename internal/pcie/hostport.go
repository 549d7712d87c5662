package pcie

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/sim"
)

// The calibrated cost model for CPU-side access to local memory.
const (
	// CopyBytesPerNs is CPU copy bandwidth for local memory (~16 B/ns).
	CopyBytesPerNs = 16
	// LocalAccessNs is the fixed cost of touching local DRAM/cache.
	LocalAccessNs = 25
)

// CopyNs returns the CPU time to copy n local bytes.
func CopyNs(n int) int64 {
	if n <= 0 {
		return 0
	}
	return LocalAccessNs + int64(float64(n)/CopyBytesPerNs)
}

// HostPort is a host CPU's view of its domain: direct (cheap) access to
// local DRAM and fabric transactions for everything else (device BARs,
// NTB windows). It also lets software watch local memory ranges for
// incoming DMA writes — the simulation's stand-in for a polling loop
// noticing a new completion entry, without burning virtual-time ticks.
//
// HostPort claims the local DRAM range in the domain, so devices' DMA to
// system memory is routed through it and triggers watches.
type HostPort struct {
	dom     *Domain
	node    NodeID
	mem     *memory.Memory
	watches []watchEntry
}

type watchEntry struct {
	rng Range
	fn  func(addr Addr, n int)
}

// NewHostPort creates the port and claims mem's range at node (normally
// the root complex).
func NewHostPort(dom *Domain, node NodeID, mem *memory.Memory) (*HostPort, error) {
	h := &HostPort{dom: dom, node: node, mem: mem}
	if err := dom.Claim(Range{Base: mem.Base(), Size: mem.Size()}, node, h); err != nil {
		return nil, err
	}
	return h, nil
}

// Domain returns the host's PCIe domain.
func (h *HostPort) Domain() *Domain { return h.dom }

// Node returns the CPU-side fabric node (root complex).
func (h *HostPort) Node() NodeID { return h.node }

// Mem returns the host's local DRAM.
func (h *HostPort) Mem() *memory.Memory { return h.mem }

// TargetWrite implements Target: inbound DMA to system memory.
func (h *HostPort) TargetWrite(addr Addr, data []byte) {
	if err := h.mem.Write(addr, data); err != nil {
		panic(fmt.Sprintf("pcie: inbound DMA escaped DRAM claim: %v", err))
	}
	for _, w := range h.watches {
		if w.rng.Overlaps(Range{Base: addr, Size: uint64(len(data))}) {
			w.fn(addr, len(data))
		}
	}
}

// TargetRead implements Target: inbound DMA reads from system memory.
func (h *HostPort) TargetRead(addr Addr, buf []byte) {
	if err := h.mem.Read(addr, buf); err != nil {
		panic(fmt.Sprintf("pcie: inbound DMA read escaped DRAM claim: %v", err))
	}
}

// Watch invokes fn whenever a write (inbound DMA or local CPU store)
// touches rng. It returns a remove function.
func (h *HostPort) Watch(rng Range, fn func(addr Addr, n int)) (remove func()) {
	e := watchEntry{rng: rng, fn: fn}
	h.watches = append(h.watches, e)
	return func() {
		for i := range h.watches {
			if h.watches[i].rng == rng {
				h.watches = append(h.watches[:i], h.watches[i+1:]...)
				return
			}
		}
	}
}

// Local reports whether addr belongs to local DRAM.
func (h *HostPort) Local(addr Addr, n uint64) bool { return h.mem.Contains(addr, n) }

// Write stores data at addr. Local DRAM writes cost CPU copy time and are
// immediately visible; other addresses become posted fabric writes.
func (h *HostPort) Write(p *sim.Proc, addr Addr, data []byte) error {
	if h.Local(addr, uint64(len(data))) {
		p.Sleep(CopyNs(len(data)))
		if err := h.mem.Write(addr, data); err != nil {
			return err
		}
		for _, w := range h.watches {
			if w.rng.Overlaps(Range{Base: addr, Size: uint64(len(data))}) {
				w.fn(addr, len(data))
			}
		}
		return nil
	}
	if len(data) <= 8 {
		return h.dom.MMIOWrite(p, h.node, addr, data)
	}
	p.Sleep(CopyNs(len(data))) // CPU streams the bytes to the window
	return h.dom.MemWrite(p, h.node, addr, data)
}

// Read loads len(buf) bytes from addr. Local DRAM reads cost CPU copy
// time; other addresses are non-posted fabric reads (full round trip).
func (h *HostPort) Read(p *sim.Proc, addr Addr, buf []byte) error {
	if h.Local(addr, uint64(len(buf))) {
		p.Sleep(CopyNs(len(buf)))
		return h.mem.Read(addr, buf)
	}
	return h.dom.MemRead(p, h.node, addr, buf)
}

// PathInfo returns the structural cost of reaching [addr, addr+n) from
// this CPU — NTB crossings and one-way latency — without issuing a
// transaction or advancing virtual time. Local DRAM is (0, 0); so is an
// unroutable address. Used by tracing to annotate fabric hops.
func (h *HostPort) PathInfo(addr Addr, n int) (crossings int, oneWayNs int64) {
	if n < 0 || h.Local(addr, uint64(n)) {
		return 0, 0
	}
	res, err := h.dom.Resolve(h.node, addr, uint64(n))
	if err != nil {
		return 0, 0
	}
	return res.Crossings, res.OneWayNs
}

// Slice returns a zero-copy view of local DRAM within one 4 KiB page
// (memory.Memory.Slice); it fails for non-local addresses and for a range
// that crosses a page. Copy a longer range with Mem().Read or Write.
func (h *HostPort) Slice(addr Addr, n uint64) ([]byte, error) {
	return h.mem.Slice(addr, n)
}

// Alloc reserves local DRAM.
func (h *HostPort) Alloc(size, align uint64) (Addr, error) {
	return h.mem.AllocZeroed(size, align)
}

// Free releases local DRAM.
func (h *HostPort) Free(addr Addr) error { return h.mem.Free(addr) }
