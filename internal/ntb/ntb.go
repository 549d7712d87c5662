// Package ntb models PCIe Non-Transparent Bridges as the paper's cluster
// uses them: one host adapter per host on a cluster switch
// (ClusterAdapter).
//
// An adapter appears in its local domain as an endpoint with a BAR. Reads
// and writes to that BAR are forwarded into a remote domain with the
// address translated through a look-up table (LUT) of windows, each
// mapping a range of the BAR to a base address on the far side. This is
// the mechanism (paper §III, Fig. 5) that lets hosts map segments of
// remote memory — and remote device BARs — into their own address space.
//
// Real NTBs have a limited number of LUT entries and reprogramming them is
// slow, which is exactly why the paper's driver uses a statically mapped
// bounce buffer instead of remapping per I/O request (§V). Both limits are
// modeled: MaxWindows bounds the LUT, and ProgramCostNs is the cost a
// dynamic remap would pay.
package ntb

import "errors"

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

// ProgramCostNs is the virtual-time cost of (re)programming one LUT
// entry, including the required flush of in-flight transactions. Real
// reprogramming involves config writes and readbacks over the fabric.
const ProgramCostNs = 10_000 // 10 us
