// Package ntb models PCIe Non-Transparent Bridges.
//
// An NTB appears in its local domain as an endpoint with a BAR. Reads and
// writes to that BAR are forwarded into a remote domain with the address
// translated through a look-up table (LUT) of windows, each mapping a
// range of the BAR to a base address on the far side. This is the
// mechanism (paper §III, Fig. 5) that lets hosts map segments of remote
// memory — and remote device BARs — into their own address space.
//
// Real NTBs have a limited number of LUT entries and reprogramming them is
// slow, which is exactly why the paper's driver uses a statically mapped
// bounce buffer instead of remapping per I/O request (§V). Both limits are
// modeled: MaxWindows bounds the LUT, and ProgramCostNs is the cost a
// dynamic remap would pay.
package ntb

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// Errors returned by NTB operations.
var (
	ErrLUTFull       = errors.New("ntb: LUT full")
	ErrBadWindow     = errors.New("ntb: window outside BAR")
	ErrWindowInUse   = errors.New("ntb: window overlaps existing window")
	ErrNoTranslation = errors.New("ntb: address not covered by any window")
	ErrNotMapped     = errors.New("ntb: no window at offset")
	// ErrLinkDown is returned by Forward while an injected link outage is
	// active: every transaction through the bridge fails at resolution
	// time, exactly as a surprise link-down drops TLPs at a real NTB.
	ErrLinkDown = errors.New("ntb: link down")
)

// DefaultMaxWindows is the default LUT size, matching small commodity NTB
// parts.
const DefaultMaxWindows = 32

// DefaultProgramCostNs is the virtual-time cost of (re)programming one LUT
// entry, including the required flush of in-flight transactions. Real
// reprogramming involves config writes and readbacks over the fabric.
const DefaultProgramCostNs = 10_000 // 10 us

// NTB is one direction of a non-transparent bridge: transactions hitting
// the BAR in the local domain are translated into the remote domain. A
// bidirectional link is modeled with two NTB instances.
type NTB struct {
	Name string
	// CrossNs is the one-way latency the bridge itself adds (its switch
	// chip traversal is usually counted in the fabric topology; this is
	// the LUT/translation cost).
	CrossNs int64
	// MaxWindows bounds the LUT.
	MaxWindows int
	// ProgramCostNs is the per-entry LUT programming cost (see package doc).
	ProgramCostNs int64

	// Translations counts successful LUT translations (route resolutions
	// through this bridge); Programmed counts LUT entries written. Plain
	// observability counters — reading them never perturbs the model.
	Translations uint64
	Programmed   uint64
	// LinkFaults counts translations refused while an injected outage was
	// active; SlowCrossings counts crossings that paid an injected stall
	// penalty.
	LinkFaults    uint64
	SlowCrossings uint64

	local       *pcie.Domain
	node        pcie.NodeID
	bar         pcie.Range
	remote      *pcie.Domain
	remoteEntry pcie.NodeID
	windows     []window

	// Fault-injection windows on the virtual clock (see InjectLinkDown
	// and InjectStall): before downUntil every Forward fails with
	// ErrLinkDown; before slowUntil every crossing costs slowExtraNs more.
	downUntil   int64
	slowUntil   int64
	slowExtraNs int64
}

type window struct {
	off   uint64 // offset within the BAR
	size  uint64
	rbase pcie.Addr // remote physical base
}

// Config describes an NTB attachment.
type Config struct {
	Name string
	// Local is the domain in which the BAR is visible; Node is the NTB's
	// endpoint node there.
	Local *pcie.Domain
	Node  pcie.NodeID
	// BAR is the address window claimed in the local domain.
	BAR pcie.Range
	// Remote is the far-side domain; RemoteEntry the node traffic enters
	// through (normally the far NTB's endpoint node).
	Remote      *pcie.Domain
	RemoteEntry pcie.NodeID
	// CrossNs, MaxWindows, ProgramCostNs override the defaults when nonzero.
	CrossNs       int64
	MaxWindows    int
	ProgramCostNs int64
}

// New creates an NTB and claims its BAR in the local domain.
func New(cfg Config) (*NTB, error) {
	n := &NTB{
		Name:          cfg.Name,
		CrossNs:       cfg.CrossNs,
		MaxWindows:    cfg.MaxWindows,
		ProgramCostNs: cfg.ProgramCostNs,
		local:         cfg.Local,
		node:          cfg.Node,
		bar:           cfg.BAR,
		remote:        cfg.Remote,
		remoteEntry:   cfg.RemoteEntry,
	}
	if n.MaxWindows == 0 {
		n.MaxWindows = DefaultMaxWindows
	}
	if n.ProgramCostNs == 0 {
		n.ProgramCostNs = DefaultProgramCostNs
	}
	if err := cfg.Local.Claim(cfg.BAR, cfg.Node, n); err != nil {
		return nil, err
	}
	return n, nil
}

// BAR returns the local address range the NTB claims.
func (n *NTB) BAR() pcie.Range { return n.bar }

// Remote returns the far-side domain.
func (n *NTB) Remote() *pcie.Domain { return n.remote }

// Windows returns the number of programmed LUT entries.
func (n *NTB) Windows() int { return len(n.windows) }

// MapWindow programs a LUT entry: local BAR offset off, size bytes, mapped
// to remoteAddr on the far side. Intended for setup paths; use
// MapWindowSync to model in-band reprogramming cost.
func (n *NTB) MapWindow(off, size uint64, remoteAddr pcie.Addr) error {
	if size == 0 || off+size < off || off+size > n.bar.Size {
		return fmt.Errorf("%w: off=%#x size=%#x bar=%#x", ErrBadWindow, off, size, n.bar.Size)
	}
	if len(n.windows) >= n.MaxWindows {
		return fmt.Errorf("%w: %d entries", ErrLUTFull, n.MaxWindows)
	}
	for _, w := range n.windows {
		if off < w.off+w.size && w.off < off+size {
			return fmt.Errorf("%w: [%#x,+%#x)", ErrWindowInUse, off, size)
		}
	}
	n.windows = append(n.windows, window{off: off, size: size, rbase: remoteAddr})
	sort.Slice(n.windows, func(i, j int) bool { return n.windows[i].off < n.windows[j].off })
	n.Programmed++
	return nil
}

// MapWindowSync is MapWindow plus the in-band reprogramming delay. The
// paper rejects per-I/O remapping because of exactly this cost; the
// core.ClientParams.RemapPerIO ablation (experiment E8) uses it.
func (n *NTB) MapWindowSync(p *sim.Proc, off, size uint64, remoteAddr pcie.Addr) error {
	p.Sleep(n.ProgramCostNs)
	return n.MapWindow(off, size, remoteAddr)
}

// UnmapWindow removes the LUT entry starting at off.
func (n *NTB) UnmapWindow(off uint64) error {
	for i, w := range n.windows {
		if w.off == off {
			n.windows = append(n.windows[:i], n.windows[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("%w: %#x", ErrNotMapped, off)
}

// FreeOffset finds the lowest BAR offset with room for a size-byte window
// aligned to align. It does not program anything.
func (n *NTB) FreeOffset(size, align uint64) (uint64, error) {
	if align == 0 {
		align = 1
	}
	cand := uint64(0)
	for {
		cand = (cand + align - 1) &^ (align - 1)
		if cand+size > n.bar.Size {
			return 0, fmt.Errorf("%w: no room for %#x bytes", ErrBadWindow, size)
		}
		conflict := false
		for _, w := range n.windows {
			if cand < w.off+w.size && w.off < cand+size {
				cand = w.off + w.size
				conflict = true
				break
			}
		}
		if !conflict {
			return cand, nil
		}
	}
}

// Translate maps the size-byte range at a local BAR address to the
// remote physical address of its start, without cost accounting. One
// window must cover the whole range.
func (n *NTB) Translate(addr pcie.Addr, size uint64) (pcie.Addr, error) {
	off := addr - n.bar.Base
	for _, w := range n.windows {
		if off >= w.off && off < w.off+w.size {
			if size > w.off+w.size-off {
				return 0, fmt.Errorf("%w: %s [%#x,+%d) leaves its window", ErrNoTranslation, n.Name, off, size)
			}
			return w.rbase + (off - w.off), nil
		}
	}
	return 0, fmt.Errorf("%w: %s offset %#x", ErrNoTranslation, n.Name, off)
}

// InjectLinkDown takes the bridge down for d virtual ns from now:
// Forward refuses every translation with ErrLinkDown until the window
// ends. Overlapping injections extend the outage, never shorten it.
func (n *NTB) InjectLinkDown(d int64) {
	if until := n.local.Kernel().Now() + d; until > n.downUntil {
		n.downUntil = until
	}
}

// InjectStall degrades the link for d virtual ns from now: crossings
// still succeed but each pays extraNs on top of CrossNs, modeling a
// retraining link rather than a hard outage.
func (n *NTB) InjectStall(extraNs, d int64) {
	n.slowExtraNs = extraNs
	if until := n.local.Kernel().Now() + d; until > n.slowUntil {
		n.slowUntil = until
	}
}

// Forward implements pcie.Forwarder.
func (n *NTB) Forward(addr pcie.Addr, size uint64) (*pcie.Domain, pcie.NodeID, pcie.Addr, int64, error) {
	if n.downUntil != 0 && n.local.Kernel().Now() < n.downUntil {
		n.LinkFaults++
		return nil, 0, 0, 0, fmt.Errorf("%w: %s until t=%dns", ErrLinkDown, n.Name, n.downUntil)
	}
	raddr, err := n.Translate(addr, size)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	n.Translations++
	cross := n.CrossNs
	if n.slowUntil != 0 && n.local.Kernel().Now() < n.slowUntil {
		n.SlowCrossings++
		cross += n.slowExtraNs
	}
	return n.remote, n.remoteEntry, raddr, cross, nil
}

// TargetWrite implements pcie.Target. It is never invoked when routing is
// correct: the fabric follows Forward instead of delivering to the bridge.
func (n *NTB) TargetWrite(addr pcie.Addr, data []byte) {
	panic("ntb: untranslated write reached bridge " + n.Name)
}

// TargetRead implements pcie.Target; see TargetWrite.
func (n *NTB) TargetRead(addr pcie.Addr, buf []byte) {
	panic("ntb: untranslated read reached bridge " + n.Name)
}

// Link wires two domains together with a symmetric pair of NTBs, the
// common cluster configuration (Fig. 5): each side gets a BAR into the
// other. It returns (a→b, b→a).
func Link(name string, a *pcie.Domain, aNode pcie.NodeID, aBAR pcie.Range,
	b *pcie.Domain, bNode pcie.NodeID, bBAR pcie.Range, crossNs int64) (*NTB, *NTB, error) {
	ab, err := New(Config{
		Name: name + ":a->b", Local: a, Node: aNode, BAR: aBAR,
		Remote: b, RemoteEntry: bNode, CrossNs: crossNs,
	})
	if err != nil {
		return nil, nil, err
	}
	ba, err := New(Config{
		Name: name + ":b->a", Local: b, Node: bNode, BAR: bBAR,
		Remote: a, RemoteEntry: aNode, CrossNs: crossNs,
	})
	if err != nil {
		a.Unclaim(aBAR)
		return nil, nil, err
	}
	return ab, ba, nil
}
