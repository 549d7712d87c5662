// Package iommu models an I/O Memory Management Unit on a host's PCIe
// domain. The paper names this as the way past its bounce buffer: "A
// future extension of the NVMe driver is to use the I/O Memory
// Management Unit (IOMMU) to dynamically map buffer addresses for each
// request instead of using a bounce buffer" (§V).
//
// The unit claims an IOVA aperture in the domain and translates
// device-issued transactions page-by-page to arbitrary physical
// addresses — including NTB window addresses, so a remote client's
// request pages become directly DMA-able without copies. Unlike NTB LUT
// reprogramming (~10 µs per entry), IOMMU map/unmap is a page-table
// write plus an IOTLB invalidation, hundreds of nanoseconds.
package iommu

import (
	"errors"
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// Errors returned by the unit.
var (
	ErrUnmapped   = errors.New("iommu: IOVA not mapped")
	ErrOverlap    = errors.New("iommu: IOVA already mapped")
	ErrNotAligned = errors.New("iommu: address not page aligned")
	ErrAperture   = errors.New("iommu: IOVA outside aperture")
	ErrNoSpace    = errors.New("iommu: aperture exhausted")
)

// PageSize is the translation granule.
const PageSize = 4096

// The calibrated cost model: typical x86 IOMMU costs.
const (
	// MapNs is the cost of installing one page-table entry.
	MapNs = 150
	// UnmapNs is the cost of clearing an entry plus the IOTLB
	// invalidation.
	UnmapNs = 400
	// TranslateNs is the per-transaction IOTLB lookup cost.
	TranslateNs = 20
)

// Unit is an IOMMU claiming an IOVA aperture in one domain. Transactions
// hitting the aperture are translated page-by-page and re-routed within
// the same domain (possibly into an NTB window, chaining across hosts).
type Unit struct {
	Name string

	dom      *pcie.Domain
	entry    pcie.NodeID // where translated traffic re-enters the fabric
	aperture pcie.Range
	// pages maps IOVA page number (within the aperture) to the physical
	// page base it translates to.
	pages map[uint64]pcie.Addr
	// nextScan accelerates first-fit IOVA allocation.
	nextScan uint64
}

// New creates a unit claiming aperture in dom. Translated transactions
// re-enter routing at entry (normally the root complex, where the IOMMU
// physically sits).
func New(name string, dom *pcie.Domain, entry pcie.NodeID, aperture pcie.Range) (*Unit, error) {
	if aperture.Base%PageSize != 0 || aperture.Size%PageSize != 0 {
		return nil, ErrNotAligned
	}
	u := &Unit{
		Name:     name,
		dom:      dom,
		entry:    entry,
		aperture: aperture,
		pages:    make(map[uint64]pcie.Addr),
	}
	if err := dom.Claim(aperture, entry, u); err != nil {
		return nil, err
	}
	return u, nil
}

// Mapped returns the number of live page mappings.
func (u *Unit) Mapped() int { return len(u.pages) }

// Map installs translations for [iova, iova+n) -> [phys, phys+n), both
// page aligned, charging the per-page programming cost to the caller.
func (u *Unit) Map(p *sim.Proc, iova, phys pcie.Addr, n uint64) error {
	if iova%PageSize != 0 || phys%PageSize != 0 || n%PageSize != 0 || n == 0 {
		return ErrNotAligned
	}
	if !u.aperture.Contains(iova, n) {
		return fmt.Errorf("%w: [%#x,+%#x)", ErrAperture, iova, n)
	}
	first := (iova - u.aperture.Base) / PageSize
	npages := n / PageSize
	for i := uint64(0); i < npages; i++ {
		if _, ok := u.pages[first+i]; ok {
			return fmt.Errorf("%w: page %#x", ErrOverlap, iova+i*PageSize)
		}
	}
	for i := uint64(0); i < npages; i++ {
		u.pages[first+i] = phys + pcie.Addr(i*PageSize)
	}
	p.Sleep(int64(npages) * MapNs)
	return nil
}

// MapAuto finds a free IOVA range for n bytes, maps it to phys, and
// returns the IOVA.
func (u *Unit) MapAuto(p *sim.Proc, phys pcie.Addr, n uint64) (pcie.Addr, error) {
	if n == 0 || n%PageSize != 0 {
		return 0, ErrNotAligned
	}
	npages := n / PageSize
	total := u.aperture.Size / PageSize
	scanned := uint64(0)
	cand := u.nextScan % total
	for scanned < total {
		run := uint64(0)
		for run < npages && cand+run < total {
			if _, used := u.pages[cand+run]; used {
				break
			}
			run++
		}
		if run == npages {
			iova := u.aperture.Base + pcie.Addr(cand*PageSize)
			if err := u.Map(p, iova, phys, n); err != nil {
				return 0, err
			}
			u.nextScan = cand + npages
			return iova, nil
		}
		step := run + 1
		cand += step
		scanned += step
		if cand >= total {
			scanned += total - cand
			cand = 0
		}
	}
	return 0, ErrNoSpace
}

// Unmap clears [iova, iova+n) and charges the invalidation cost.
func (u *Unit) Unmap(p *sim.Proc, iova pcie.Addr, n uint64) error {
	if iova%PageSize != 0 || n%PageSize != 0 || n == 0 {
		return ErrNotAligned
	}
	if !u.aperture.Contains(iova, n) {
		return fmt.Errorf("%w: [%#x,+%#x)", ErrAperture, iova, n)
	}
	first := (iova - u.aperture.Base) / PageSize
	npages := n / PageSize
	for i := uint64(0); i < npages; i++ {
		if _, ok := u.pages[first+i]; !ok {
			return fmt.Errorf("%w: page %#x", ErrUnmapped, iova+i*PageSize)
		}
	}
	for i := uint64(0); i < npages; i++ {
		delete(u.pages, first+i)
	}
	p.Sleep(UnmapNs) // one batched IOTLB invalidation
	return nil
}

// Forward implements pcie.Forwarder: translate the range and re-enter the
// same domain at the unit's attachment point. A range that runs past its
// first page must find every later page mapped to the physical page right
// after the one before; otherwise it fails, as the range would reach
// memory its IOVAs do not map.
func (u *Unit) Forward(addr pcie.Addr, n uint64) (*pcie.Domain, pcie.NodeID, pcie.Addr, int64, error) {
	off := uint64(addr - u.aperture.Base)
	first := off / PageSize
	phys, ok := u.pages[first]
	if !ok {
		return nil, 0, 0, 0, fmt.Errorf("%w: %#x", ErrUnmapped, addr)
	}
	for pg := first + 1; n > 0 && pg <= (off+n-1)/PageSize; pg++ {
		if next, ok := u.pages[pg]; !ok || next != phys+pcie.Addr((pg-first)*PageSize) {
			return nil, 0, 0, 0, fmt.Errorf("%w: [%#x,+%d) runs into page %#x", ErrUnmapped, addr, n, u.aperture.Base+pg*PageSize)
		}
	}
	return u.dom, u.entry, phys + pcie.Addr(off%PageSize), TranslateNs, nil
}

// TargetWrite implements pcie.Target; never reached when routing is
// correct.
func (u *Unit) TargetWrite(addr pcie.Addr, data []byte) {
	panic("iommu: untranslated write reached unit " + u.Name)
}

// TargetRead implements pcie.Target; see TargetWrite.
func (u *Unit) TargetRead(addr pcie.Addr, buf []byte) {
	panic("iommu: untranslated read reached unit " + u.Name)
}
