package nvme

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/sim"
)

// Media failure sentinels, injectable for fault testing.
var (
	ErrMediaRead  = errors.New("nvme: unrecovered read error")
	ErrMediaWrite = errors.New("nvme: write fault")
)

// Medium is the storage behind a controller. Read/Write block the calling
// simulation process for the medium's access time and move real bytes.
type Medium interface {
	// BlockSize returns the logical block size in bytes.
	BlockSize() int
	// Blocks returns the capacity in logical blocks.
	Blocks() uint64
	// Read fills buf (len = nblk*BlockSize) from blocks [lba, lba+nblk).
	Read(p *sim.Proc, lba uint64, nblk int, buf []byte) error
	// Write stores data (len = nblk*BlockSize) to blocks [lba, lba+nblk).
	Write(p *sim.Proc, lba uint64, nblk int, data []byte) error
	// Flush persists outstanding writes.
	Flush(p *sim.Proc) error
	// Trim deallocates blocks [lba, lba+nblk); they read back as zeros.
	Trim(p *sim.Proc, lba uint64, nblk int) error
}

// FlashParams model an Optane-class device: low, very consistent latency.
// The paper uses an Intel Optane P4800X specifically because its
// consistency keeps the boxplots tight.
type FlashParams struct {
	// ReadBaseNs / WriteBaseNs are median media access times for the first
	// block of a command.
	ReadBaseNs  int64
	WriteBaseNs int64
	// JitterNs bounds the uniform jitter added per command.
	JitterNs int64
	// TailProb is the probability of a tail event adding up to
	// mediumTailNs (models the long whisker up to p99).
	TailProb float64
	// PerBlockNs is the incremental cost per additional block.
	PerBlockNs int64
}

// The medium's fixed costs and parallelism.
const (
	// mediumTailNs bounds the uniform extra latency of a tail event.
	mediumTailNs = 4000
	// mediumChannels bounds internal command concurrency.
	mediumChannels = 7
	// flushNs is the cost of a flush.
	flushNs = 2000
	// trimNs is the cost of a deallocate command (per range).
	trimNs = 3000
)

// DefaultFlashParams returns the Optane P4800X-class calibration.
func DefaultFlashParams() FlashParams {
	return FlashParams{
		ReadBaseNs:  8500,
		WriteBaseNs: 8800,
		JitterNs:    500,
		TailProb:    0.01,
		PerBlockNs:  120,
	}
}

func (p FlashParams) withDefaults() FlashParams {
	d := DefaultFlashParams()
	if p.ReadBaseNs == 0 {
		p.ReadBaseNs = d.ReadBaseNs
	}
	if p.WriteBaseNs == 0 {
		p.WriteBaseNs = d.WriteBaseNs
	}
	if p.JitterNs == 0 {
		p.JitterNs = d.JitterNs
	}
	if p.TailProb == 0 {
		p.TailProb = d.TailProb
	}
	if p.PerBlockNs == 0 {
		p.PerBlockNs = d.PerBlockNs
	}
	return p
}

// FlashMedium is a deterministic (seeded) flash model with sparse backing
// storage, bounded channel parallelism and an Optane-like latency
// distribution.
type FlashMedium struct {
	params    FlashParams
	blockSize int
	blocks    uint64
	// pages is the sparse store, keyed by page number. A page holds
	// perPage consecutive blocks: 4 KiB of them, or one block when
	// blocks are larger. Only written blocks hold nonzero bytes.
	pages   map[uint64]flashPage
	perPage int
	written int // blocks marked written across all pages
	chans   *sim.Semaphore
	rng     *rand.Rand

	// Reads / Writes / Flushes / Trims count operations for tests and
	// tools; BlocksRead / BlocksWritten count logical blocks moved.
	Reads, Writes, Flushes, Trims uint64
	BlocksRead, BlocksWritten     uint64

	failReads, failWrites int
	stallNs               int64
}

// NewFlashMedium creates a flash medium with the given geometry. blockSize
// must be a power of two; params zero-fields are filled from
// DefaultFlashParams.
func NewFlashMedium(k *sim.Kernel, blockSize int, blocks uint64, params FlashParams, seed int64) *FlashMedium {
	return &FlashMedium{
		params:    params.withDefaults(),
		blockSize: blockSize,
		blocks:    blocks,
		pages:     make(map[uint64]flashPage),
		perPage:   max(1, min(PageSize/blockSize, 64)),
		chans:     sim.NewSemaphore(k, mediumChannels),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// flashPage is one page of the sparse store. Bit i of written marks
// block i of the page as written.
type flashPage struct {
	data    []byte
	written uint64
}

// span returns the page holding block lba, the block's slot in it, and
// how many of the nblk blocks from lba lie in that page.
func (f *FlashMedium) span(lba uint64, nblk int) (pg uint64, slot, n int) {
	pg, slot = lba/uint64(f.perPage), int(lba%uint64(f.perPage))
	return pg, slot, min(nblk, f.perPage-slot)
}

// blockMask returns the written bits of n blocks from slot. A shift by 64
// yields 0, so a full 64-block page gets every bit.
func blockMask(slot, n int) uint64 { return (uint64(1)<<n - 1) << slot }

// BlockSize implements Medium.
func (f *FlashMedium) BlockSize() int { return f.blockSize }

// Blocks implements Medium.
func (f *FlashMedium) Blocks() uint64 { return f.blocks }

// Params returns the latency model in use.
func (f *FlashMedium) Params() FlashParams { return f.params }

func (f *FlashMedium) check(lba uint64, nblk int, buf []byte) error {
	if nblk <= 0 {
		return fmt.Errorf("nvme: medium access with nblk=%d", nblk)
	}
	if lba+uint64(nblk) < lba || lba+uint64(nblk) > f.blocks {
		return fmt.Errorf("nvme: LBA out of range: %d+%d of %d", lba, nblk, f.blocks)
	}
	if len(buf) != nblk*f.blockSize {
		return fmt.Errorf("nvme: buffer %d bytes for %d blocks of %d", len(buf), nblk, f.blockSize)
	}
	return nil
}

func (f *FlashMedium) latency(base int64, nblk int) sim.Duration {
	lat := base + int64(nblk-1)*f.params.PerBlockNs + f.rng.Int63n(f.params.JitterNs+1)
	if f.rng.Float64() < f.params.TailProb {
		lat += f.rng.Int63n(mediumTailNs + 1)
	}
	return lat
}

// InjectReadErrors makes the next n reads fail with ErrMediaRead after
// their normal access time, for fault-path testing.
func (f *FlashMedium) InjectReadErrors(n int) { f.failReads += n }

// InjectWriteErrors makes the next n writes fail with ErrMediaWrite.
func (f *FlashMedium) InjectWriteErrors(n int) { f.failWrites += n }

// InjectStall makes the next read or write take an extra d nanoseconds,
// for driver-timeout testing.
func (f *FlashMedium) InjectStall(d int64) { f.stallNs = d }

func (f *FlashMedium) takeStall() int64 {
	d := f.stallNs
	f.stallNs = 0
	return d
}

// Read implements Medium. Unwritten blocks read back as zeros.
func (f *FlashMedium) Read(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	if err := f.check(lba, nblk, buf); err != nil {
		return err
	}
	p.Acquire(f.chans)
	defer f.chans.Release()
	p.Sleep(f.latency(f.params.ReadBaseNs, nblk) + f.takeStall())
	if f.failReads > 0 {
		f.failReads--
		return ErrMediaRead
	}
	bs := f.blockSize
	for i := 0; i < nblk; {
		pg, slot, n := f.span(lba+uint64(i), nblk-i)
		dst := buf[i*bs : (i+n)*bs]
		if page, ok := f.pages[pg]; ok {
			copy(dst, page.data[slot*bs:])
		} else {
			clear(dst)
		}
		i += n
	}
	f.Reads++
	f.BlocksRead += uint64(nblk)
	return nil
}

// Write implements Medium.
func (f *FlashMedium) Write(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	if err := f.check(lba, nblk, data); err != nil {
		return err
	}
	p.Acquire(f.chans)
	defer f.chans.Release()
	p.Sleep(f.latency(f.params.WriteBaseNs, nblk) + f.takeStall())
	if f.failWrites > 0 {
		f.failWrites--
		return ErrMediaWrite
	}
	// A written page is overwritten in place: only Trim drops pages and
	// Read copies them out, so nothing else holds one.
	bs := f.blockSize
	for i := 0; i < nblk; {
		pg, slot, n := f.span(lba+uint64(i), nblk-i)
		page, ok := f.pages[pg]
		if !ok {
			page.data = make([]byte, f.perPage*bs)
		}
		copy(page.data[slot*bs:], data[i*bs:(i+n)*bs])
		if m := blockMask(slot, n); page.written&m != m {
			f.written += bits.OnesCount64(m &^ page.written)
			page.written |= m
			f.pages[pg] = page
		}
		i += n
	}
	f.Writes++
	f.BlocksWritten += uint64(nblk)
	return nil
}

// Flush implements Medium.
func (f *FlashMedium) Flush(p *sim.Proc) error {
	p.Sleep(flushNs)
	f.Flushes++
	return nil
}

// Trim implements Medium: deallocated blocks are cleared and unmarked,
// a page with no written block left is dropped from the sparse store, and
// all of them read back as zeros.
func (f *FlashMedium) Trim(p *sim.Proc, lba uint64, nblk int) error {
	if nblk <= 0 || lba+uint64(nblk) < lba || lba+uint64(nblk) > f.blocks {
		return fmt.Errorf("nvme: trim out of range: %d+%d of %d", lba, nblk, f.blocks)
	}
	p.Sleep(trimNs)
	bs := f.blockSize
	for i := 0; i < nblk; {
		pg, slot, n := f.span(lba+uint64(i), nblk-i)
		page := f.pages[pg]
		if m := blockMask(slot, n) & page.written; m != 0 {
			f.written -= bits.OnesCount64(m)
			page.written &^= m
			if page.written == 0 {
				delete(f.pages, pg)
			} else {
				clear(page.data[slot*bs : (slot+n)*bs])
				f.pages[pg] = page
			}
		}
		i += n
	}
	f.Trims++
	return nil
}

// WrittenBlocks returns how many distinct blocks hold data; tests use it to
// check write coverage without scanning the capacity.
func (f *FlashMedium) WrittenBlocks() int { return f.written }
