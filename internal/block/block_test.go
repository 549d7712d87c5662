package block

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sim"
)

// memDevice is an in-memory Device with a fixed per-op latency, recording
// the chunk sizes it sees (to verify splitting).
type memDevice struct {
	name   string
	bs     int
	blocks uint64
	data   map[uint64][]byte
	latNs  int64
	chunks []int
}

func newMemDevice(bs int, blocks uint64, latNs int64) *memDevice {
	return &memDevice{name: "memdev", bs: bs, blocks: blocks, data: make(map[uint64][]byte), latNs: latNs}
}

func (d *memDevice) Name() string   { return d.name }
func (d *memDevice) BlockSize() int { return d.bs }
func (d *memDevice) Blocks() uint64 { return d.blocks }
func (d *memDevice) Flush(p *sim.Proc) error {
	p.Sleep(d.latNs)
	return nil
}

func (d *memDevice) ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	p.Sleep(d.latNs)
	d.chunks = append(d.chunks, nblk)
	for i := 0; i < nblk; i++ {
		dst := buf[i*d.bs : (i+1)*d.bs]
		if b, ok := d.data[lba+uint64(i)]; ok {
			copy(dst, b)
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return nil
}

func (d *memDevice) WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	p.Sleep(d.latNs)
	d.chunks = append(d.chunks, nblk)
	for i := 0; i < nblk; i++ {
		b := make([]byte, d.bs)
		copy(b, data[i*d.bs:(i+1)*d.bs])
		d.data[lba+uint64(i)] = b
	}
	return nil
}

func run(t *testing.T, fn func(k *sim.Kernel, p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("test", func(p *sim.Proc) { fn(k, p) })
	k.RunAll()
	k.Shutdown()
}

func TestSubmitAndWaitRoundTrip(t *testing.T) {
	run(t, func(k *sim.Kernel, p *sim.Proc) {
		dev := newMemDevice(512, 1024, 1000)
		q := NewQueue(k, dev, QueueParams{})
		want := bytes.Repeat([]byte{0x3C}, 512*4)
		if err := q.SubmitAndWait(p, OpWrite, 8, 4, want); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 512*4)
		if err := q.SubmitAndWait(p, OpRead, 8, 4, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatal("data mismatch")
		}
		if q.Submitted != 2 || q.Completed != 2 {
			t.Fatalf("counters %d/%d", q.Submitted, q.Completed)
		}
	})
}

func TestValidation(t *testing.T) {
	run(t, func(k *sim.Kernel, p *sim.Proc) {
		dev := newMemDevice(512, 100, 10)
		q := NewQueue(k, dev, QueueParams{})
		if err := q.SubmitAndWait(p, OpRead, 99, 2, make([]byte, 1024)); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("OOB: %v", err)
		}
		if err := q.SubmitAndWait(p, OpRead, 0, 0, nil); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("nblk=0: %v", err)
		}
		if err := q.SubmitAndWait(p, OpRead, 0, 2, make([]byte, 512)); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("short buf: %v", err)
		}
	})
}

func TestFlushNeedsNoData(t *testing.T) {
	run(t, func(k *sim.Kernel, p *sim.Proc) {
		dev := newMemDevice(512, 100, 10)
		q := NewQueue(k, dev, QueueParams{})
		if err := q.SubmitAndWait(p, OpFlush, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSplitting(t *testing.T) {
	run(t, func(k *sim.Kernel, p *sim.Proc) {
		dev := newMemDevice(512, 10000, 10)
		q := NewQueue(k, dev, QueueParams{MaxBlocks: 64})
		data := make([]byte, 512*200)
		for i := range data {
			data[i] = byte(i)
		}
		if err := q.SubmitAndWait(p, OpWrite, 0, 200, data); err != nil {
			t.Fatal(err)
		}
		want := []int{64, 64, 64, 8}
		if len(dev.chunks) != len(want) {
			t.Fatalf("chunks %v, want %v", dev.chunks, want)
		}
		for i := range want {
			if dev.chunks[i] != want[i] {
				t.Fatalf("chunks %v, want %v", dev.chunks, want)
			}
		}
		got := make([]byte, len(data))
		if err := q.SubmitAndWait(p, OpRead, 0, 200, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("split write corrupted data")
		}
	})
}

func TestParallelWorkers(t *testing.T) {
	k := sim.NewKernel()
	dev := newMemDevice(512, 10000, 1000)
	q := NewQueue(k, dev, QueueParams{Workers: 4})
	var end sim.Time
	for i := 0; i < 8; i++ {
		lba := uint64(i * 10)
		k.Spawn("io", func(p *sim.Proc) {
			if err := q.SubmitAndWait(p, OpRead, lba, 1, make([]byte, 512)); err != nil {
				t.Error(err)
			}
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	k.RunAll()
	k.Shutdown()
	// 8 requests, 4 workers, 1000 ns each: ~2 waves, far below serial 8000.
	if end >= 8000 {
		t.Fatalf("8 requests finished at %d; workers not parallel", end)
	}
}

func TestRequestErrPropagation(t *testing.T) {
	run(t, func(k *sim.Kernel, p *sim.Proc) {
		dev := newMemDevice(512, 100, 10)
		q := NewQueue(k, dev, QueueParams{})
		req := &Request{Op: OpRead, LBA: 0, Nblk: 1, Data: make([]byte, 512), Done: sim.NewEvent(k)}
		if err := q.Submit(p, req); err != nil {
			t.Fatal(err)
		}
		p.Wait(req.Done)
		if req.Err() != nil {
			t.Fatalf("unexpected error %v", req.Err())
		}
	})
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" ||
		OpFlush.String() != "flush" || Op(9).String() != "unknown" {
		t.Fatal("Op.String broken")
	}
}
