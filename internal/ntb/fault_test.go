package ntb

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestInjectLinkDownBlocksThenRecovers(t *testing.T) {
	c := newTriCluster(t)
	toB, err := c.adpt[0].Map(0, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		if err := c.dom[0].MemWrite(p, c.rc[0], toB, []byte{0x01}); err != nil {
			t.Errorf("write before fault: %v", err)
		}
		c.adpt[0].InjectLinkDown(10_000)
		if err := c.dom[0].MemWrite(p, c.rc[0], toB, []byte{0x02}); !errors.Is(err, ErrLinkDown) {
			t.Errorf("write during outage: %v, want ErrLinkDown", err)
		}
		p.Sleep(20_000)
		if err := c.dom[0].MemWrite(p, c.rc[0], toB, []byte{0x03}); err != nil {
			t.Errorf("write after recovery: %v", err)
		}
	})
	c.k.RunAll()
	if c.adpt[0].LinkFaults != 1 {
		t.Fatalf("LinkFaults = %d, want 1", c.adpt[0].LinkFaults)
	}
	b := make([]byte, 1)
	c.mem[1].Read(c.mem[1].Base(), b)
	if b[0] != 0x03 {
		t.Fatalf("remote memory holds %#x; dropped write leaked or recovery write lost", b[0])
	}
}

// TestInjectStallSlowsCrossings: during a stall each crossing pays the
// extra cost on top of CrossNs, so a read, which crosses once each way,
// takes exactly twice the extra longer; after the stall it is back to
// normal.
func TestInjectStallSlowsCrossings(t *testing.T) {
	c := newTriCluster(t)
	a := c.adpt[0]
	toB, err := a.Map(0, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	const extra = 5_000
	var normal, stalled, after sim.Duration
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		read := func() sim.Duration {
			t0 := p.Now()
			if err := c.dom[0].MemRead(p, c.rc[0], toB, make([]byte, 8)); err != nil {
				t.Error(err)
			}
			return p.Now() - t0
		}
		normal = read()
		a.InjectStall(extra, 50_000)
		stalled = read()
		p.Sleep(50_000)
		after = read()
	})
	c.k.RunAll()
	if a.SlowCrossings != 1 {
		t.Fatalf("SlowCrossings = %d, want 1", a.SlowCrossings)
	}
	if stalled != normal+2*extra {
		t.Fatalf("stalled read %d ns, want normal %d + 2 x extra %d", stalled, normal, extra)
	}
	if after != normal {
		t.Fatalf("read after the stall %d ns, want %d", after, normal)
	}
}

// TestAdapterInjectLinkDown: a shorter outage injected during a longer
// one does not end it early.
func TestAdapterInjectLinkDown(t *testing.T) {
	c := newTriCluster(t)
	addr, err := c.adpt[0].MapAuto(4096, 4096, c.dom[1], c.nep[1], c.mem[1].Base())
	if err != nil {
		t.Fatal(err)
	}
	c.k.Spawn("cpuA", func(p *sim.Proc) {
		c.adpt[0].InjectLinkDown(10_000)
		c.adpt[0].InjectLinkDown(2_000)
		p.Sleep(5_000)
		if err := c.dom[0].MemWrite(p, c.rc[0], addr, []byte{0xEE}); !errors.Is(err, ErrLinkDown) {
			t.Errorf("write inside the longer outage: %v, want ErrLinkDown", err)
		}
		p.Sleep(10_000)
		if err := c.dom[0].MemWrite(p, c.rc[0], addr, []byte{0xAB}); err != nil {
			t.Errorf("write after recovery: %v", err)
		}
	})
	c.k.RunAll()
	if c.adpt[0].LinkFaults != 1 {
		t.Fatalf("LinkFaults = %d, want 1", c.adpt[0].LinkFaults)
	}
	b := make([]byte, 1)
	c.mem[1].Read(c.mem[1].Base(), b)
	if b[0] != 0xAB {
		t.Fatalf("remote memory holds %#x after recovery", b[0])
	}
}
