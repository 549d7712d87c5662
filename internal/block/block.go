// Package block is a miniature Linux block layer: upper layers submit
// requests to a per-device request queue, which validates each, splits
// it for the driver and adds the per-request software cost that sits
// between a filesystem or benchmark and any NVMe driver. As blk-mq does
// (blk_mq_try_issue_directly), the submitting process issues its own
// request to the driver, so the submitters are the queue's concurrency.
package block

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Device is the driver-side interface a block device implements.
type Device interface {
	// Name returns the device name (e.g. "nvme0n1").
	Name() string
	// BlockSize returns the logical block size in bytes.
	BlockSize() int
	// Blocks returns the capacity in logical blocks.
	Blocks() uint64
	// ReadBlocks fills buf from [lba, lba+nblk).
	ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error
	// WriteBlocks stores data to [lba, lba+nblk).
	WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error
	// Flush persists outstanding writes.
	Flush(p *sim.Proc) error
}

// Op is a request operation.
type Op int

// Request operations.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
	// OpDiscard deallocates blocks (TRIM); the device must implement
	// Discarder.
	OpDiscard
	// OpWriteZeroes zeroes blocks without data transfer; the device must
	// implement ZeroWriter.
	OpWriteZeroes
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFlush:
		return "flush"
	case OpDiscard:
		return "discard"
	case OpWriteZeroes:
		return "write-zeroes"
	}
	return "unknown"
}

// Discarder is implemented by devices supporting TRIM/deallocate.
type Discarder interface {
	DiscardBlocks(p *sim.Proc, lba uint64, nblk int) error
}

// ZeroWriter is implemented by devices supporting Write Zeroes.
type ZeroWriter interface {
	WriteZeroesBlocks(p *sim.Proc, lba uint64, nblk int) error
}

// ErrUnsupported is returned for operations the device does not implement.
var ErrUnsupported = errors.New("block: operation not supported by device")

// Errors returned by the request layer.
var (
	ErrOutOfRange = errors.New("block: request beyond device capacity")
	ErrBadRequest = errors.New("block: malformed request")
)

// The block layer's calibrated costs.
const (
	// SubmitNs is the software cost charged on submission.
	SubmitNs = 200
	// CompleteNs is the completion-path cost.
	CompleteNs = 150
	// MaxBlocks is the largest request the driver receives; a longer
	// read or write is split into chunks of at most this many blocks.
	MaxBlocks = 2048
)

// Queue is the block layer's request path to one device. It holds no
// requests: SubmitAndWait runs each one in the process that submits it.
type Queue struct {
	dev     Device
	latHist *stats.PowHistogram
}

// SetLatencyHist attaches a histogram that records each request's
// latency in virtual ns, from the end of the submission cost to the end
// of the completion cost. Pure accounting: it adds no simulated cost and
// never touches the kernel, so attaching it leaves virtual-time results
// bit-identical. Pass nil to detach.
func (q *Queue) SetLatencyHist(h *stats.PowHistogram) { q.latHist = h }

// NewQueue creates the request queue for dev.
func NewQueue(dev Device) *Queue { return &Queue{dev: dev} }

// Device returns the backing device.
func (q *Queue) Device() Device { return q.dev }

// SubmitAndWait runs one request in p and returns its I/O error: it
// validates the request, charges SubmitNs, dispatches it to the driver
// and charges CompleteNs. data is the destination for reads and the
// source for writes; flush, discard and write-zeroes carry none.
func (q *Queue) SubmitAndWait(p *sim.Proc, op Op, lba uint64, nblk int, data []byte) error {
	if err := q.validate(op, lba, nblk, data); err != nil {
		return err
	}
	p.Sleep(SubmitNs)
	start := p.Now()
	err := q.dispatch(p, op, lba, nblk, data)
	p.Sleep(CompleteNs)
	if q.latHist != nil {
		q.latHist.AddNs(p.Now() - start)
	}
	return err
}

func (q *Queue) validate(op Op, lba uint64, nblk int, data []byte) error {
	if op == OpFlush {
		return nil
	}
	if nblk <= 0 {
		return fmt.Errorf("%w: nblk=%d", ErrBadRequest, nblk)
	}
	if lba+uint64(nblk) > q.dev.Blocks() {
		return fmt.Errorf("%w: lba %d + %d > %d", ErrOutOfRange, lba, nblk, q.dev.Blocks())
	}
	if op == OpDiscard || op == OpWriteZeroes {
		return nil // no data payload
	}
	if len(data) != nblk*q.dev.BlockSize() {
		return fmt.Errorf("%w: data %d bytes for %d blocks", ErrBadRequest, len(data), nblk)
	}
	return nil
}

// dispatch runs one request on the driver, splitting it per MaxBlocks.
func (q *Queue) dispatch(p *sim.Proc, op Op, lba uint64, nblk int, data []byte) error {
	switch op {
	case OpFlush:
		return q.dev.Flush(p)
	case OpDiscard:
		d, ok := q.dev.(Discarder)
		if !ok {
			return fmt.Errorf("%w: discard on %s", ErrUnsupported, q.dev.Name())
		}
		return d.DiscardBlocks(p, lba, nblk)
	case OpWriteZeroes:
		z, ok := q.dev.(ZeroWriter)
		if !ok {
			return fmt.Errorf("%w: write-zeroes on %s", ErrUnsupported, q.dev.Name())
		}
		return z.WriteZeroesBlocks(p, lba, nblk)
	case OpRead, OpWrite:
		bs := q.dev.BlockSize()
		for nblk > 0 {
			chunk := min(nblk, MaxBlocks)
			var err error
			if op == OpRead {
				err = q.dev.ReadBlocks(p, lba, chunk, data[:chunk*bs])
			} else {
				err = q.dev.WriteBlocks(p, lba, chunk, data[:chunk*bs])
			}
			if err != nil {
				return err
			}
			lba += uint64(chunk)
			nblk -= chunk
			data = data[chunk*bs:]
		}
		return nil
	default:
		return fmt.Errorf("%w: op %d", ErrBadRequest, op)
	}
}
