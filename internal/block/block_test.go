package block

import (
	"bytes"
	"errors"
	"slices"
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

func run(t *testing.T, fn func(p *sim.Proc)) {
	t.Helper()
	k := sim.NewKernel()
	k.Spawn("test", fn)
	k.RunAll()
	k.Shutdown()
}

func TestSubmitAndWaitRoundTrip(t *testing.T) {
	run(t, func(p *sim.Proc) {
		dev := newMemDevice(512, 1024, 1000)
		q := NewQueue(dev)
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
	})
}

func TestValidation(t *testing.T) {
	run(t, func(p *sim.Proc) {
		dev := newMemDevice(512, 100, 10)
		q := NewQueue(dev)
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
	run(t, func(p *sim.Proc) {
		dev := newMemDevice(512, 100, 10)
		q := NewQueue(dev)
		if err := q.SubmitAndWait(p, OpFlush, 0, 0, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSplitting sends a write and a read of 3 × MaxBlocks + 8 blocks:
// the driver must see chunks of MaxBlocks, MaxBlocks, MaxBlocks and 8,
// and the data must survive the split.
func TestSplitting(t *testing.T) {
	run(t, func(p *sim.Proc) {
		const nblk = 3*MaxBlocks + 8
		dev := newMemDevice(512, 4*MaxBlocks, 10)
		q := NewQueue(dev)
		data := make([]byte, 512*nblk)
		for i := range data {
			data[i] = byte(i)
		}
		if err := q.SubmitAndWait(p, OpWrite, 0, nblk, data); err != nil {
			t.Fatal(err)
		}
		want := []int{MaxBlocks, MaxBlocks, MaxBlocks, 8}
		if !slices.Equal(dev.chunks, want) {
			t.Fatalf("chunks %v, want %v", dev.chunks, want)
		}
		got := make([]byte, len(data))
		if err := q.SubmitAndWait(p, OpRead, 0, nblk, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("split write corrupted data")
		}
	})
}

// TestConcurrentSubmitters checks that each submitter runs its own
// request, so requests from concurrent processes overlap in virtual time
// with no cap on how many: 32 reads started together all finish one
// request's latency later.
func TestConcurrentSubmitters(t *testing.T) {
	const (
		submitters = 32
		latNs      = 1000
	)
	k := sim.NewKernel()
	dev := newMemDevice(512, 10000, latNs)
	q := NewQueue(dev)
	var ends []sim.Time
	for i := 0; i < submitters; i++ {
		lba := uint64(i * 10)
		k.Spawn("io", func(p *sim.Proc) {
			if err := q.SubmitAndWait(p, OpRead, lba, 1, make([]byte, 512)); err != nil {
				t.Error(err)
			}
			ends = append(ends, p.Now())
		})
	}
	k.RunAll()
	k.Shutdown()
	if len(ends) != submitters {
		t.Fatalf("%d of %d requests finished", len(ends), submitters)
	}
	for _, end := range ends {
		if want := sim.Time(SubmitNs + latNs + CompleteNs); end != want {
			t.Fatalf("a request finished at %d, want every one at %d: requests did not overlap", end, want)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" ||
		OpFlush.String() != "flush" || Op(9).String() != "unknown" {
		t.Fatal("Op.String broken")
	}
}
