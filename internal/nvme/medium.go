package nvme

import (
	"errors"
	"fmt"
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
	// TailProb is the probability of a tail event adding TailNs (models
	// the long whisker up to p99).
	TailProb float64
	TailNs   int64
	// PerBlockNs is the incremental cost per additional block.
	PerBlockNs int64
	// Channels bounds internal command concurrency.
	Channels int
	// FlushNs is the cost of a flush.
	FlushNs int64
	// TrimNs is the cost of a deallocate command (per range).
	TrimNs int64
}

// DefaultFlashParams returns the Optane P4800X-class calibration.
func DefaultFlashParams() FlashParams {
	return FlashParams{
		ReadBaseNs:  8500,
		WriteBaseNs: 8800,
		JitterNs:    500,
		TailProb:    0.01,
		TailNs:      4000,
		PerBlockNs:  120,
		Channels:    7,
		FlushNs:     2000,
		TrimNs:      3000,
	}
}

// FlashMedium is a deterministic (seeded) flash model with per-block
// backing storage, bounded channel parallelism and an Optane-like latency
// distribution.
type FlashMedium struct {
	params    FlashParams
	blockSize int
	blocks    uint64
	data      map[uint64][]byte // sparse: lba -> block contents
	chans     *sim.Semaphore
	rng       *rand.Rand

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
	d := DefaultFlashParams()
	if params.ReadBaseNs == 0 {
		params.ReadBaseNs = d.ReadBaseNs
	}
	if params.WriteBaseNs == 0 {
		params.WriteBaseNs = d.WriteBaseNs
	}
	if params.JitterNs == 0 {
		params.JitterNs = d.JitterNs
	}
	if params.TailProb == 0 {
		params.TailProb = d.TailProb
	}
	if params.TailNs == 0 {
		params.TailNs = d.TailNs
	}
	if params.PerBlockNs == 0 {
		params.PerBlockNs = d.PerBlockNs
	}
	if params.Channels == 0 {
		params.Channels = d.Channels
	}
	if params.FlushNs == 0 {
		params.FlushNs = d.FlushNs
	}
	if params.TrimNs == 0 {
		params.TrimNs = d.TrimNs
	}
	return &FlashMedium{
		params:    params,
		blockSize: blockSize,
		blocks:    blocks,
		data:      make(map[uint64][]byte),
		chans:     sim.NewSemaphore(k, params.Channels),
		rng:       rand.New(rand.NewSource(seed)),
	}
}

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
		lat += f.rng.Int63n(f.params.TailNs + 1)
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
	for i := 0; i < nblk; i++ {
		dst := buf[i*f.blockSize : (i+1)*f.blockSize]
		if blk, ok := f.data[lba+uint64(i)]; ok {
			copy(dst, blk)
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
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
	// A written block is overwritten in place: only Trim drops blocks and
	// Read copies them out, so nothing else holds one.
	for i := 0; i < nblk; i++ {
		src := data[i*f.blockSize : (i+1)*f.blockSize]
		if blk, ok := f.data[lba+uint64(i)]; ok {
			copy(blk, src)
		} else {
			f.data[lba+uint64(i)] = append([]byte(nil), src...)
		}
	}
	f.Writes++
	f.BlocksWritten += uint64(nblk)
	return nil
}

// Flush implements Medium.
func (f *FlashMedium) Flush(p *sim.Proc) error {
	p.Sleep(f.params.FlushNs)
	f.Flushes++
	return nil
}

// Trim implements Medium: deallocated blocks are dropped from the sparse
// store and read back as zeros.
func (f *FlashMedium) Trim(p *sim.Proc, lba uint64, nblk int) error {
	if nblk <= 0 || lba+uint64(nblk) < lba || lba+uint64(nblk) > f.blocks {
		return fmt.Errorf("nvme: trim out of range: %d+%d of %d", lba, nblk, f.blocks)
	}
	p.Sleep(f.params.TrimNs)
	for i := 0; i < nblk; i++ {
		delete(f.data, lba+uint64(i))
	}
	f.Trims++
	return nil
}

// WrittenBlocks returns how many distinct blocks hold data; tests use it to
// check write coverage without scanning the capacity.
func (f *FlashMedium) WrittenBlocks() int { return len(f.data) }
