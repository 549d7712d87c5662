package nvme

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func mediumRig() (*sim.Kernel, *FlashMedium) {
	k := sim.NewKernel()
	med := NewFlashMedium(k, 512, 1<<16, FlashParams{}, 99)
	return k, med
}

func TestMediumReadWrite(t *testing.T) {
	k, med := mediumRig()
	k.Spawn("p", func(p *sim.Proc) {
		data := bytes.Repeat([]byte{0xCD}, 512*4)
		if err := med.Write(p, 10, 4, data); err != nil {
			t.Error(err)
		}
		got := make([]byte, 512*4)
		if err := med.Read(p, 10, 4, got); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("data mismatch")
		}
	})
	k.RunAll()
	if med.Reads != 1 || med.Writes != 1 || med.WrittenBlocks() != 4 {
		t.Fatalf("counters: r=%d w=%d blocks=%d", med.Reads, med.Writes, med.WrittenBlocks())
	}
}

func TestMediumValidation(t *testing.T) {
	k, med := mediumRig()
	k.Spawn("p", func(p *sim.Proc) {
		if err := med.Read(p, 0, 0, nil); err == nil {
			t.Error("nblk=0 accepted")
		}
		if err := med.Read(p, med.Blocks()-1, 2, make([]byte, 1024)); err == nil {
			t.Error("OOB accepted")
		}
		if err := med.Read(p, 0, 1, make([]byte, 3)); err == nil {
			t.Error("short buffer accepted")
		}
	})
	k.RunAll()
}

func TestMediumLatencyWithinModel(t *testing.T) {
	k := sim.NewKernel()
	params := FlashParams{ReadBaseNs: 8000, JitterNs: 500, TailProb: 1e-12, PerBlockNs: 100}
	med := NewFlashMedium(k, 512, 1<<16, params, 5)
	var took sim.Duration
	k.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		med.Read(p, 0, 8, make([]byte, 4096))
		took = p.Now() - start
	})
	k.RunAll()
	min := params.ReadBaseNs + 7*params.PerBlockNs
	max := min + params.JitterNs
	if took < min || took > max {
		t.Fatalf("latency %d outside [%d,%d]", took, min, max)
	}
}

func TestMediumChannelLimit(t *testing.T) {
	k := sim.NewKernel()
	params := FlashParams{ReadBaseNs: 1000, JitterNs: 1, TailProb: 1e-12}
	med := NewFlashMedium(k, 512, 1<<16, params, 5)
	var end sim.Time
	for i := 0; i < mediumChannels+1; i++ {
		k.Spawn("r", func(p *sim.Proc) {
			med.Read(p, 0, 1, make([]byte, 512))
			if p.Now() > end {
				end = p.Now()
			}
		})
	}
	k.RunAll()
	// One read more than there are channels waits for a second batch.
	if end < 2000 {
		t.Fatalf("finished at %d, expected >= 2000 with %d channels", end, mediumChannels)
	}
}

func TestMediumDeterminism(t *testing.T) {
	run := func() sim.Time {
		k := sim.NewKernel()
		med := NewFlashMedium(k, 512, 1<<16, FlashParams{}, 1234)
		var end sim.Time
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				med.Read(p, uint64(i), 1, make([]byte, 512))
			}
			end = p.Now()
		})
		k.RunAll()
		return end
	}
	if run() != run() {
		t.Fatal("same seed produced different timing")
	}
}

// Property: sparse medium — data written to one LBA never leaks into
// another.
func TestPropMediumIsolation(t *testing.T) {
	f := func(lbaA, lbaB uint16, a, b byte) bool {
		if lbaA == lbaB {
			return true
		}
		k, med := mediumRig()
		ok := true
		k.Spawn("p", func(p *sim.Proc) {
			bufA := bytes.Repeat([]byte{a}, 512)
			bufB := bytes.Repeat([]byte{b}, 512)
			med.Write(p, uint64(lbaA), 1, bufA)
			med.Write(p, uint64(lbaB), 1, bufB)
			got := make([]byte, 512)
			med.Read(p, uint64(lbaA), 1, got)
			if !bytes.Equal(got, bufA) {
				ok = false
			}
			med.Read(p, uint64(lbaB), 1, got)
			if !bytes.Equal(got, bufB) {
				ok = false
			}
		})
		k.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
