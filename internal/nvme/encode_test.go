package nvme

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestPRPsRoundTrip encodes transfers with PRPs and decodes them with the
// controller's prpSegments: every transfer must come back as the one
// contiguous range it was encoded from, across the two-page, one-list-page
// and chained-list boundaries, at page-aligned and unaligned starts.
func TestPRPsRoundTrip(t *testing.T) {
	r := newRig(t)
	r.run(t, func(p *sim.Proc) {
		for _, off := range []uint64{0, 64, 4032} {
			for _, pages := range []int{1, 2, 3, 512, 513, 514, 1023, 1024, 1025} {
				buf := 0x4000_0000 + off
				n := pages * PageSize
				name := fmt.Sprintf("offset %d, %d pages", off, pages)
				lp := PRPListPages(buf, n)
				var list uint64
				if lp > 0 {
					var err error
					if list, err = r.host.Alloc(uint64(lp)*PageSize, PageSize); err != nil {
						t.Fatalf("%s: list: %v", name, err)
					}
				}
				var cmd SQE
				if err := PRPs(r.host, &cmd, buf, n, list, list); err != nil {
					t.Fatalf("%s: PRPs: %v", name, err)
				}
				segs, st := r.ctrl.prpSegments(p, cmd.PRP1, cmd.PRP2, n, nil)
				if st != StatusOK {
					t.Errorf("%s: decode status %#x", name, st)
					continue
				}
				if got := coalesce(segs); len(got) != 1 || got[0] != (prpSegment{addr: buf, n: n}) {
					t.Errorf("%s: decoded %d segments, first %+v; want one [%#x, +%d)",
						name, len(got), got[0], buf, n)
				}
				if lp > 0 {
					if err := r.host.Free(list); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	})
}

func TestIOCmdLBARange(t *testing.T) {
	for _, c := range []struct {
		lba  uint64
		nblk int
	}{{0, 1}, {7, 8}, {1<<32 + 5, 65536}} {
		cmd := IOCmd(IORead, c.lba, c.nblk)
		if lba, nblk := cmd.LBARange(); lba != c.lba || nblk != c.nblk {
			t.Errorf("IOCmd(%d, %d) decodes as (%d, %d)", c.lba, c.nblk, lba, nblk)
		}
	}
}
