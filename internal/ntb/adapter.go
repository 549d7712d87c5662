package ntb

import (
	"fmt"
	"sort"

	"repro/internal/attr"
	"repro/internal/pcie"
)

// ClusterAdapter models an NTB host adapter plugged into a cluster switch
// (the paper's MXH932 adapter + MXS924 switch): a single BAR whose LUT
// windows may target *different* remote hosts. Each window maps a BAR
// range to (remote domain, remote address); the cluster switch routes by
// window.
//
// Topologically the adapter's own switch chip belongs to the host's
// domain (add it as a pcie.Switch node); CrossNs covers the cluster
// switch traversal plus LUT translation.
type ClusterAdapter struct {
	Name       string
	CrossNs    int64
	MaxWindows int

	// Translations counts successful LUT translations; Programmed counts
	// windows written. Plain observability counters.
	Translations uint64
	Programmed   uint64
	// LinkFaults counts translations refused while an injected outage
	// was active; SlowCrossings counts crossings that paid an injected
	// stall penalty.
	LinkFaults    uint64
	SlowCrossings uint64
	// WinOcc accounts LUT windows in use on the virtual clock: windows
	// enter at Map and exit at Unmap, so busy time is the adapter's
	// window-occupied time and the max level its peak LUT pressure
	// against MaxWindows.
	WinOcc attr.Occ

	local *pcie.Domain
	node  pcie.NodeID
	bar   pcie.Range
	wins  []clusterWindow

	// Fault-injection windows on the virtual clock, same semantics as
	// NTB.InjectLinkDown / NTB.InjectStall.
	downUntil   int64
	slowUntil   int64
	slowExtraNs int64
}

type clusterWindow struct {
	off    uint64
	size   uint64
	remote *pcie.Domain
	entry  pcie.NodeID
	rbase  pcie.Addr
}

// AdapterConfig describes a ClusterAdapter attachment.
type AdapterConfig struct {
	Name  string
	Local *pcie.Domain
	// Node is the adapter's NTB endpoint node in the local domain.
	Node pcie.NodeID
	BAR  pcie.Range
	// CrossNs is the crossing cost; MaxWindows bounds the LUT
	// (DefaultMaxWindows when zero).
	CrossNs    int64
	MaxWindows int
}

// NewClusterAdapter creates the adapter and claims its BAR.
func NewClusterAdapter(cfg AdapterConfig) (*ClusterAdapter, error) {
	a := &ClusterAdapter{
		Name:       cfg.Name,
		CrossNs:    cfg.CrossNs,
		MaxWindows: cfg.MaxWindows,
		local:      cfg.Local,
		node:       cfg.Node,
		bar:        cfg.BAR,
	}
	if a.MaxWindows == 0 {
		a.MaxWindows = DefaultMaxWindows
	}
	if err := cfg.Local.Claim(cfg.BAR, cfg.Node, a); err != nil {
		return nil, err
	}
	return a, nil
}

// BAR returns the adapter's claimed range.
func (a *ClusterAdapter) BAR() pcie.Range { return a.bar }

// Node returns the adapter's endpoint node in the local domain.
func (a *ClusterAdapter) Node() pcie.NodeID { return a.node }

// Windows returns the number of programmed LUT entries.
func (a *ClusterAdapter) Windows() int { return len(a.wins) }

// Map programs a window at BAR offset off covering size bytes, targeting
// raddr in remote, entering that domain at entry. It returns the local
// address of the window.
func (a *ClusterAdapter) Map(off, size uint64, remote *pcie.Domain, entry pcie.NodeID, raddr pcie.Addr) (pcie.Addr, error) {
	if size == 0 || off+size < off || off+size > a.bar.Size {
		return 0, fmt.Errorf("%w: off=%#x size=%#x bar=%#x", ErrBadWindow, off, size, a.bar.Size)
	}
	if len(a.wins) >= a.MaxWindows {
		return 0, fmt.Errorf("%w: %d entries", ErrLUTFull, a.MaxWindows)
	}
	for _, w := range a.wins {
		if off < w.off+w.size && w.off < off+size {
			return 0, fmt.Errorf("%w: [%#x,+%#x)", ErrWindowInUse, off, size)
		}
	}
	a.wins = append(a.wins, clusterWindow{off: off, size: size, remote: remote, entry: entry, rbase: raddr})
	sort.Slice(a.wins, func(i, j int) bool { return a.wins[i].off < a.wins[j].off })
	a.Programmed++
	a.WinOcc.Enter(a.local.Kernel().Now())
	return a.bar.Base + off, nil
}

// MapAuto places a window at the lowest free, align-aligned offset.
func (a *ClusterAdapter) MapAuto(size, align uint64, remote *pcie.Domain, entry pcie.NodeID, raddr pcie.Addr) (pcie.Addr, error) {
	off, err := a.freeOffset(size, align)
	if err != nil {
		return 0, err
	}
	return a.Map(off, size, remote, entry, raddr)
}

// Unmap removes the window starting at BAR offset off.
func (a *ClusterAdapter) Unmap(off uint64) error {
	for i, w := range a.wins {
		if w.off == off {
			a.wins = append(a.wins[:i], a.wins[i+1:]...)
			a.WinOcc.Exit(a.local.Kernel().Now())
			return nil
		}
	}
	return fmt.Errorf("%w: %#x", ErrNotMapped, off)
}

// UnmapAddr removes the window whose local address is addr.
func (a *ClusterAdapter) UnmapAddr(addr pcie.Addr) error {
	return a.Unmap(addr - a.bar.Base)
}

func (a *ClusterAdapter) freeOffset(size, align uint64) (uint64, error) {
	if align == 0 {
		align = 1
	}
	cand := uint64(0)
	for {
		cand = (cand + align - 1) &^ (align - 1)
		if cand+size > a.bar.Size {
			return 0, fmt.Errorf("%w: no room for %#x bytes", ErrBadWindow, size)
		}
		conflict := false
		for _, w := range a.wins {
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

// InjectLinkDown takes the adapter's cluster link down for d virtual ns
// from now: Forward refuses every translation with ErrLinkDown until the
// window ends. Overlapping injections extend the outage.
func (a *ClusterAdapter) InjectLinkDown(d int64) {
	if until := a.local.Kernel().Now() + d; until > a.downUntil {
		a.downUntil = until
	}
}

// InjectStall degrades the link for d virtual ns from now: crossings
// succeed but each pays extraNs on top of CrossNs.
func (a *ClusterAdapter) InjectStall(extraNs, d int64) {
	a.slowExtraNs = extraNs
	if until := a.local.Kernel().Now() + d; until > a.slowUntil {
		a.slowUntil = until
	}
}

// Forward implements pcie.Forwarder.
func (a *ClusterAdapter) Forward(addr pcie.Addr, size uint64) (*pcie.Domain, pcie.NodeID, pcie.Addr, int64, error) {
	if a.downUntil != 0 && a.local.Kernel().Now() < a.downUntil {
		a.LinkFaults++
		return nil, 0, 0, 0, fmt.Errorf("%w: %s until t=%dns", ErrLinkDown, a.Name, a.downUntil)
	}
	off := addr - a.bar.Base
	for _, w := range a.wins {
		if off >= w.off && off < w.off+w.size {
			if size > w.off+w.size-off {
				return nil, 0, 0, 0, fmt.Errorf("%w: %s [%#x,+%d) leaves its window", ErrNoTranslation, a.Name, off, size)
			}
			a.Translations++
			cross := a.CrossNs
			if a.slowUntil != 0 && a.local.Kernel().Now() < a.slowUntil {
				a.SlowCrossings++
				cross += a.slowExtraNs
			}
			return w.remote, w.entry, w.rbase + (off - w.off), cross, nil
		}
	}
	return nil, 0, 0, 0, fmt.Errorf("%w: %s offset %#x", ErrNoTranslation, a.Name, off)
}

// TargetWrite implements pcie.Target; never reached when routing is correct.
func (a *ClusterAdapter) TargetWrite(addr pcie.Addr, data []byte) {
	panic("ntb: untranslated write reached adapter " + a.Name)
}

// TargetRead implements pcie.Target; see TargetWrite.
func (a *ClusterAdapter) TargetRead(addr pcie.Addr, buf []byte) {
	panic("ntb: untranslated read reached adapter " + a.Name)
}
