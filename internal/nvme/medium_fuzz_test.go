package nvme

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// lbaStore is the reference for FlashMedium's sparse store: one map entry
// per written logical block.
type lbaStore struct {
	blockSize int
	blocks    uint64
	data      map[uint64][]byte
}

func (s *lbaStore) inRange(lba uint64, nblk int) bool {
	return nblk > 0 && lba+uint64(nblk) >= lba && lba+uint64(nblk) <= s.blocks
}

func (s *lbaStore) write(lba uint64, data []byte) {
	for i := 0; i*s.blockSize < len(data); i++ {
		s.data[lba+uint64(i)] = bytes.Clone(data[i*s.blockSize : (i+1)*s.blockSize])
	}
}

func (s *lbaStore) read(lba uint64, buf []byte) {
	for i := 0; i*s.blockSize < len(buf); i++ {
		dst := buf[i*s.blockSize : (i+1)*s.blockSize]
		if blk, ok := s.data[lba+uint64(i)]; ok {
			copy(dst, blk)
		} else {
			clear(dst)
		}
	}
}

func (s *lbaStore) trim(lba uint64, nblk int) {
	for i := 0; i < nblk; i++ {
		delete(s.data, lba+uint64(i))
	}
}

// FuzzFlashMedium runs a decoded sequence of Write, Read and Trim calls
// against both a FlashMedium and a per-LBA map. Every read must equal the
// reference, WrittenBlocks must equal the reference's block count after
// every call, and a call is rejected exactly when its range leaves the
// medium.
//
// The input's first byte picks the block size (512 B, 4 KiB or 8 KiB).
// Up to 64 4-byte operations follow: opcode, LBA, block count, and a
// byte that seeds the data written. Longer inputs are skipped.
func FuzzFlashMedium(f *testing.F) {
	// 512 B blocks: a write that straddles two pages, a trim of part of
	// one, a read of both, a read past the end, and a trim of all.
	f.Add([]byte{0, 0, 5, 6, 9, 2, 6, 2, 0, 1, 0, 16, 0, 1, 60, 8, 0, 2, 0, 64, 0})
	// 4 KiB blocks: a write, a read around it, an empty read, a trim of
	// one block, and a read back.
	f.Add([]byte{1, 0, 3, 3, 1, 1, 1, 7, 0, 1, 1, 0, 0, 2, 4, 1, 0, 1, 3, 3, 0})
	// 8 KiB blocks: a write, a trim of half of it, a read around it, a
	// write of the last block, and one past the end.
	f.Add([]byte{2, 0, 1, 2, 5, 2, 2, 1, 0, 1, 0, 4, 0, 0, 63, 1, 7, 0, 63, 2, 7})

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 || len(in) > 1+4*64 {
			return
		}
		bs := []int{512, 4096, 8192}[int(in[0])%3]
		ref := &lbaStore{blockSize: bs, blocks: 64, data: map[uint64][]byte{}}
		k := sim.NewKernel()
		med := NewFlashMedium(k, bs, ref.blocks, FlashParams{}, 1)
		var fail error
		k.Spawn("fuzz", func(p *sim.Proc) { fail = runMediumOps(p, med, ref, in[1:]) })
		k.RunAll()
		if fail != nil {
			t.Fatal(fail)
		}
	})
}

// runMediumOps decodes ops and applies each to med and ref, returning the
// first difference.
func runMediumOps(p *sim.Proc, med *FlashMedium, ref *lbaStore, ops []byte) error {
	bs := ref.blockSize
	for ; len(ops) >= 4; ops = ops[4:] {
		lba, nblk, arg := uint64(ops[1]), int(ops[2]%24), ops[3]
		ok := ref.inRange(lba, nblk)
		var err error
		switch ops[0] % 3 {
		case 0:
			data := make([]byte, nblk*bs)
			for i := range data {
				data[i] = arg + byte(i/bs) + byte(i*3)
			}
			if err = med.Write(p, lba, nblk, data); err == nil {
				ref.write(lba, data)
			}
		case 1:
			buf := bytes.Repeat([]byte{0xA5}, nblk*bs)
			want := make([]byte, len(buf))
			if err = med.Read(p, lba, nblk, buf); err == nil {
				ref.read(lba, want)
				if !bytes.Equal(buf, want) {
					return fmt.Errorf("Read(%d, %d) differs from the reference", lba, nblk)
				}
			}
		case 2:
			if err = med.Trim(p, lba, nblk); err == nil {
				ref.trim(lba, nblk)
			}
		}
		if ok != (err == nil) {
			return fmt.Errorf("op %d on [%d,+%d) of %d blocks: %v", ops[0]%3, lba, nblk, ref.blocks, err)
		}
		if got, want := med.WrittenBlocks(), len(ref.data); got != want {
			return fmt.Errorf("WrittenBlocks = %d, want %d", got, want)
		}
	}
	got := make([]byte, int(ref.blocks)*bs)
	want := make([]byte, len(got))
	if err := med.Read(p, 0, int(ref.blocks), got); err != nil {
		return err
	}
	ref.read(0, want)
	if !bytes.Equal(got, want) {
		return fmt.Errorf("final contents differ from the reference")
	}
	return nil
}
