// Package block is a miniature Linux-block-layer facsimile: drivers
// register block devices, upper layers submit requests to per-device
// request queues, worker contexts dispatch them to the driver, and
// completion is signaled through events. It adds the per-request software
// cost that sits between a filesystem/benchmark and any NVMe driver.
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
	ErrStopped    = errors.New("block: queue stopped")
)

// Request is one block I/O.
type Request struct {
	Op   Op
	LBA  uint64
	Nblk int
	// Data is the destination for reads and the source for writes.
	Data []byte
	// Done triggers when the request completes; its payload is the error
	// (nil on success).
	Done *sim.Event

	submitted sim.Time
}

// Err extracts the completion error after Done has triggered.
func (r *Request) Err() error {
	if v := r.Done.Payload(); v != nil {
		return v.(error)
	}
	return nil
}

// QueueParams tunes a request queue.
type QueueParams struct {
	// SubmitNs is the block-layer software cost charged on submission.
	SubmitNs int64
	// CompleteNs is the block-layer completion-path cost.
	CompleteNs int64
	// MaxBlocks splits larger requests into chunks (0 = no splitting).
	MaxBlocks int
	// Workers is the number of dispatch contexts (default 16).
	Workers int
}

// DefaultQueueParams returns the standard block layer calibration.
func DefaultQueueParams() QueueParams {
	return QueueParams{SubmitNs: 200, CompleteNs: 150, MaxBlocks: 2048, Workers: 16}
}

func (qp QueueParams) withDefaults() QueueParams {
	d := DefaultQueueParams()
	if qp.SubmitNs == 0 {
		qp.SubmitNs = d.SubmitNs
	}
	if qp.CompleteNs == 0 {
		qp.CompleteNs = d.CompleteNs
	}
	if qp.MaxBlocks == 0 {
		qp.MaxBlocks = d.MaxBlocks
	}
	if qp.Workers == 0 {
		qp.Workers = d.Workers
	}
	return qp
}

// Queue is a per-device request queue with a fixed pool of dispatch
// workers.
type Queue struct {
	dev    Device
	kernel *sim.Kernel
	params QueueParams
	q      *sim.Queue

	// Submitted and Completed count requests for observability.
	Submitted uint64
	Completed uint64

	latHist *stats.PowHistogram
}

// SetLatencyHist attaches a histogram that records each request's
// submit-to-completion latency in virtual ns. Pure accounting: it adds
// no simulated cost and never touches the kernel, so attaching it leaves
// virtual-time results bit-identical. Pass nil to detach.
func (q *Queue) SetLatencyHist(h *stats.PowHistogram) { q.latHist = h }

// NewQueue creates the request queue and starts its workers.
func NewQueue(k *sim.Kernel, dev Device, params QueueParams) *Queue {
	q := &Queue{dev: dev, kernel: k, params: params.withDefaults(), q: sim.NewQueue(k)}
	for i := 0; i < q.params.Workers; i++ {
		k.Spawn(fmt.Sprintf("blk/%s/w%d", dev.Name(), i), q.worker)
	}
	return q
}

// Device returns the backing device.
func (q *Queue) Device() Device { return q.dev }

// Submit validates and enqueues req, charging the submission cost. The
// caller waits on req.Done for completion.
func (q *Queue) Submit(p *sim.Proc, req *Request) error {
	if req.Done == nil {
		req.Done = sim.NewEvent(q.kernel)
	}
	if err := q.validate(req); err != nil {
		return err
	}
	p.Sleep(q.params.SubmitNs)
	req.submitted = p.Now()
	q.Submitted++
	q.q.Push(req)
	return nil
}

func (q *Queue) validate(req *Request) error {
	if req.Op == OpFlush {
		return nil
	}
	if req.Nblk <= 0 {
		return fmt.Errorf("%w: nblk=%d", ErrBadRequest, req.Nblk)
	}
	if req.LBA+uint64(req.Nblk) > q.dev.Blocks() {
		return fmt.Errorf("%w: lba %d + %d > %d", ErrOutOfRange, req.LBA, req.Nblk, q.dev.Blocks())
	}
	if req.Op == OpDiscard || req.Op == OpWriteZeroes {
		return nil // no data payload
	}
	if len(req.Data) != req.Nblk*q.dev.BlockSize() {
		return fmt.Errorf("%w: data %d bytes for %d blocks", ErrBadRequest, len(req.Data), req.Nblk)
	}
	return nil
}

// SubmitAndWait is a convenience wrapper: submit, block until done,
// return the I/O error.
func (q *Queue) SubmitAndWait(p *sim.Proc, op Op, lba uint64, nblk int, data []byte) error {
	req := &Request{Op: op, LBA: lba, Nblk: nblk, Data: data, Done: sim.NewEvent(q.kernel)}
	if err := q.Submit(p, req); err != nil {
		return err
	}
	p.Wait(req.Done)
	return req.Err()
}

func (q *Queue) worker(p *sim.Proc) {
	for {
		req := p.Pop(q.q).(*Request)
		err := q.dispatch(p, req)
		p.Sleep(q.params.CompleteNs)
		q.Completed++
		if q.latHist != nil {
			q.latHist.AddNs(p.Now() - req.submitted)
		}
		if err != nil {
			req.Done.Trigger(err)
		} else {
			req.Done.Trigger(nil)
		}
	}
}

// dispatch runs one request, splitting it per MaxBlocks.
func (q *Queue) dispatch(p *sim.Proc, req *Request) error {
	switch req.Op {
	case OpFlush:
		return q.dev.Flush(p)
	case OpDiscard:
		d, ok := q.dev.(Discarder)
		if !ok {
			return fmt.Errorf("%w: discard on %s", ErrUnsupported, q.dev.Name())
		}
		return d.DiscardBlocks(p, req.LBA, req.Nblk)
	case OpWriteZeroes:
		z, ok := q.dev.(ZeroWriter)
		if !ok {
			return fmt.Errorf("%w: write-zeroes on %s", ErrUnsupported, q.dev.Name())
		}
		return z.WriteZeroesBlocks(p, req.LBA, req.Nblk)
	case OpRead, OpWrite:
		bs := q.dev.BlockSize()
		lba, nblk := req.LBA, req.Nblk
		off := 0
		for nblk > 0 {
			chunk := nblk
			if chunk > q.params.MaxBlocks {
				chunk = q.params.MaxBlocks
			}
			data := req.Data[off : off+chunk*bs]
			var err error
			if req.Op == OpRead {
				err = q.dev.ReadBlocks(p, lba, chunk, data)
			} else {
				err = q.dev.WriteBlocks(p, lba, chunk, data)
			}
			if err != nil {
				return err
			}
			lba += uint64(chunk)
			nblk -= chunk
			off += chunk * bs
		}
		return nil
	default:
		return fmt.Errorf("%w: op %d", ErrBadRequest, req.Op)
	}
}
