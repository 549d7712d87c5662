package nvmeof_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/nvme"
	"repro/internal/nvmeof"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// rig: host 0 = target (controller local), host 1 = initiator; ConnectX
// NICs on both, no NTB involvement.
type rig struct {
	c    *cluster.Cluster
	ctrl *nvme.Controller
	nicT *rdma.NIC
	qpT  *rdma.QP
	qpI  *rdma.QP
}

func newRig(t *testing.T, nvmeCfg cluster.NVMeConfig) *rig {
	t.Helper()
	c, err := cluster.New(cluster.Config{Hosts: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := c.AttachNVMe(0, nvmeCfg)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(h *cluster.Host, name string) *rdma.NIC {
		ep := h.Dom.AddNode(pcie.Endpoint, name)
		if err := h.Dom.Connect(h.RC, ep); err != nil {
			t.Fatal(err)
		}
		return rdma.NewNIC(name, h.Port, ep)
	}
	nicT := attach(c.Hosts[0], "cx5-target")
	nicI := attach(c.Hosts[1], "cx5-init")
	qpT := nicT.NewQP()
	qpI := nicI.NewQP()
	rdma.Connect(qpT, qpI)
	return &rig{c: c, ctrl: ctrl, nicT: nicT, qpT: qpT, qpI: qpI}
}

// start brings up target + initiator, then runs fn as the initiator host.
func (r *rig) start(t *testing.T, tparams nvmeof.TargetParams, iparams nvmeof.InitiatorParams,
	fn func(p *sim.Proc, ini *nvmeof.Initiator)) {
	t.Helper()
	r.c.Go("main", func(p *sim.Proc) {
		tgt, err := nvmeof.NewTarget(p, r.c.Hosts[0].Port, cluster.NVMeBARBase, tparams)
		if err != nil {
			t.Errorf("target: %v", err)
			return
		}
		if err := tgt.Serve(p, r.qpT); err != nil {
			t.Errorf("serve: %v", err)
			return
		}
		ini, err := nvmeof.NewInitiator(p, "nvme1n1", r.c.Hosts[1].Port, r.qpI, iparams)
		if err != nil {
			t.Errorf("initiator: %v", err)
			return
		}
		fn(p, ini)
	})
	r.c.Run()
}

func TestConnectHandshake(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		if ini.BlockSize() != 512 {
			t.Errorf("block size %d", ini.BlockSize())
		}
		if ini.Blocks() == 0 {
			t.Error("no capacity reported")
		}
	})
}

func TestReadWriteInCapsule(t *testing.T) {
	// The payload starts right after the 64-byte capsule header, so 4 kB
	// straddles two pages and 16 kB needs a PRP list from an unaligned
	// start.
	for _, n := range []int{4096, 16384} {
		t.Run(fmt.Sprintf("%d bytes", n), func(t *testing.T) {
			r := newRig(t, cluster.NVMeConfig{})
			r.start(t, nvmeof.TargetParams{InCapsule: n}, nvmeof.InitiatorParams{},
				func(p *sim.Proc, ini *nvmeof.Initiator) {
					want := bytes.Repeat([]byte{0xFA, 0xB1}, n/2)
					if err := ini.WriteBlocks(p, 555, n/512, want); err != nil {
						t.Errorf("write: %v", err)
						return
					}
					got := make([]byte, n)
					if err := ini.ReadBlocks(p, 555, n/512, got); err != nil {
						t.Errorf("read: %v", err)
						return
					}
					if !bytes.Equal(got, want) {
						t.Error("data mismatch over fabrics")
					}
				})
			if r.ctrl.Stats.ReadCmds != 1 || r.ctrl.Stats.WriteCmds != 1 {
				t.Fatalf("controller stats %+v", r.ctrl.Stats)
			}
		})
	}
}

// TestInitiatorHonoursTargetInCapsule writes 4 kB to a target that takes
// only 2 kB in-capsule: the initiator learns that at connect and stages
// the write for an RDMA READ instead of sending a capsule the target
// drops.
func TestInitiatorHonoursTargetInCapsule(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{InCapsule: 2048}, nvmeof.InitiatorParams{},
		func(p *sim.Proc, ini *nvmeof.Initiator) {
			want := bytes.Repeat([]byte{0x3C}, 4096)
			if err := ini.WriteBlocks(p, 40, 8, want); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			got := make([]byte, 4096)
			if err := ini.ReadBlocks(p, 40, 8, got); err != nil {
				t.Errorf("read: %v", err)
				return
			}
			if !bytes.Equal(got, want) {
				t.Error("data mismatch over fabrics")
			}
		})
	if r.ctrl.Stats.ReadCmds != 1 || r.ctrl.Stats.WriteCmds != 1 {
		t.Fatalf("controller stats %+v", r.ctrl.Stats)
	}
}

// TestInitiatorHonoursTargetSlots runs more concurrent reads than a
// QueueDepth-4 target has receive slots (3): the initiator holds the rest
// back instead of sending capsules the target has nowhere to put.
func TestInitiatorHonoursTargetSlots(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	done := 0
	r.start(t, nvmeof.TargetParams{QueueDepth: 4}, nvmeof.InitiatorParams{},
		func(p *sim.Proc, ini *nvmeof.Initiator) {
			evs := make([]*sim.Event, 8)
			for i := range evs {
				ev := sim.NewEvent(r.c.K)
				evs[i] = ev
				r.c.K.Spawn("read", func(wp *sim.Proc) {
					defer ev.Trigger(nil)
					if err := ini.ReadBlocks(wp, uint64(i*8), 8, make([]byte, 4096)); err != nil {
						t.Errorf("read %d: %v", i, err)
						return
					}
					done++
				})
			}
			for _, ev := range evs {
				p.Wait(ev)
			}
		})
	if done != 8 || r.ctrl.Stats.ReadCmds != 8 {
		t.Fatalf("%d of 8 reads returned, controller stats %+v", done, r.ctrl.Stats)
	}
}

// TestLargeWriteUsesRDMARead moves transfers beyond in-capsule and beyond
// two pages with default parameters on both sides, up to the 128 kB the
// initiator's slot holds, which fills the target's staging partition.
func TestLargeWriteUsesRDMARead(t *testing.T) {
	for _, n := range []int{64 << 10, 128 << 10} {
		t.Run(fmt.Sprintf("%d kB", n>>10), func(t *testing.T) {
			r := newRig(t, cluster.NVMeConfig{})
			r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
				want := make([]byte, n)
				for i := range want {
					want[i] = byte(i*11 + 3)
				}
				if err := ini.WriteBlocks(p, 0, n/512, want); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got := make([]byte, n)
				if err := ini.ReadBlocks(p, 0, n/512, got); err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Error("large transfer mismatch")
				}
			})
		})
	}
}

func TestFlushOverFabrics(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		if err := ini.Flush(p); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	if r.ctrl.Stats.FlushCmds != 1 {
		t.Fatalf("flushes %d", r.ctrl.Stats.FlushCmds)
	}
}

// TestTargetRejectsMisstatedData posts command capsules straight on the
// initiator's QP, as a hostile host could, to a target with default
// parameters. Each capsule misstates its data. Its DataLen disagrees
// with the blocks or ranges its command moves or with the bytes it
// carries, so the PRPs the target would encode for DataLen bytes do not
// cover what the controller decodes. Or it names 0 blocks, which the
// command's count, less one, cannot hold. Each must fail with Invalid
// Field before any command reaches the controller. Unchecked, the
// in-capsule writes had the controller
// write 64 KiB or 4 KiB of target memory past the receive buffer to the
// LBAs. The staged write had it read the second staged page, which holds
// bytes the initiator sent, as a PRP list, and DMA-read 24 KiB from the
// target addresses in it. The DSM had it read 48 bytes past the one
// range carried, and the zero-block Write Zeroes had it zero 65536
// blocks. The read and the zero-block write reached the controller too,
// which failed them only because their PRPs pointed at no valid list.
func TestTargetRejectsMisstatedData(t *testing.T) {
	cases := []struct {
		name string
		cap  nvmeof.CmdCapsule
		// carried is the payload bytes sent after the header; staged is
		// the bytes the target may RDMA-READ from RAddr. Past the first
		// page, the staged bytes are a PRP list of target DRAM pages.
		carried, staged int
	}{
		{name: "in-capsule write claims 64 KiB, carries 16 bytes",
			cap:     nvmeof.CmdCapsule{Opcode: nvme.IOWrite, Flags: nvmeof.FlagInline, NSID: 1, Nblk: 128, DataLen: 64 << 10},
			carried: 16},
		{name: "in-capsule write claims 4 KiB, carries 16 bytes",
			cap:     nvmeof.CmdCapsule{Opcode: nvme.IOWrite, Flags: nvmeof.FlagInline, NSID: 1, Nblk: 8, DataLen: 4 << 10},
			carried: 16},
		{name: "staged write of 8 KiB claims 64 blocks",
			cap:    nvmeof.CmdCapsule{Opcode: nvme.IOWrite, NSID: 1, Nblk: 64, DataLen: 8 << 10},
			staged: 8 << 10},
		{name: "read of 8 KiB claims 64 blocks",
			cap:    nvmeof.CmdCapsule{Opcode: nvme.IORead, NSID: 1, Nblk: 64, DataLen: 8 << 10},
			staged: 8 << 10},
		{name: "in-capsule write of 0 blocks",
			cap: nvmeof.CmdCapsule{Opcode: nvme.IOWrite, Flags: nvmeof.FlagInline, NSID: 1}},
		{name: "write zeroes of 0 blocks",
			cap: nvmeof.CmdCapsule{Opcode: nvme.IOWriteZeroes, NSID: 1}},
		{name: "DSM claims 4 ranges, carries 1",
			cap:     nvmeof.CmdCapsule{Opcode: nvme.IODSM, Flags: nvmeof.FlagInline, NSID: 1, Nblk: 4, DataLen: nvme.DSMRangeSize},
			carried: nvme.DSMRangeSize},
	}
	want := nvme.Status(nvme.SCTGeneric, nvme.SCInvalidField)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, cluster.NVMeConfig{})
			h := r.c.Hosts[1]
			var status uint16
			var fetches uint64
			r.c.Go("main", func(p *sim.Proc) {
				tgt, err := nvmeof.NewTarget(p, r.c.Hosts[0].Port, cluster.NVMeBARBase, nvmeof.TargetParams{})
				if err != nil {
					t.Error(err)
					return
				}
				if err := tgt.Serve(p, r.qpT); err != nil {
					t.Error(err)
					return
				}
				fetches = r.ctrl.Stats.Fetches
				resp, _ := h.Port.Alloc(nvmeof.RespSize, 64)
				if tc.staged > 0 {
					buf, _ := h.Port.Alloc(uint64(tc.staged), nvme.PageSize)
					victim, _ := r.c.Hosts[0].Port.Alloc(64<<10, nvme.PageSize)
					list := make([]byte, tc.staged-nvme.PageSize)
					for i := 0; i+8 <= len(list); i += 8 {
						binary.LittleEndian.PutUint64(list[i:], uint64(victim)+uint64(i/8)*nvme.PageSize)
					}
					if err := h.Port.Mem().Write(buf+nvme.PageSize, list); err != nil {
						t.Error(err)
						return
					}
					tc.cap.RAddr = uint64(buf)
				}
				r.qpI.PostRecv(0, resp, nvmeof.RespSize)
				r.qpI.PostSendInline(1, append(tc.cap.Marshal(), make([]byte, tc.carried)...))
				if wc := rdma.WaitWC(p, r.qpI.RecvCQ); wc.Status != nil {
					t.Error(wc.Status)
					return
				}
				raw := make([]byte, nvmeof.RespSize)
				if err := h.Port.Mem().Read(resp, raw); err != nil {
					t.Error(err)
					return
				}
				rc, err := nvmeof.UnmarshalRespCapsule(raw)
				if err != nil {
					t.Error(err)
					return
				}
				status = rc.Status
			})
			r.c.Run()
			if status != want {
				t.Errorf("status %#x, want %#x (Invalid Field)", status, want)
			}
			if r.ctrl.Stats.Fetches != fetches {
				t.Errorf("the controller fetched %d commands, want none", r.ctrl.Stats.Fetches-fetches)
			}
		})
	}
}

// TestShortCapsuleRunsNothing: a SEND shorter than a capsule header runs
// no command and gets no response, and the receive slot it landed in
// still takes the next capsule. With one receive slot, the target once
// decoded a whole header from that slot, so a 1-byte SEND of the Read
// opcode after a read ran the read again from the stale bytes and
// answered it with the earlier capsule's CID.
func TestShortCapsuleRunsNothing(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	h := r.c.Hosts[1]
	r.c.Go("main", func(p *sim.Proc) {
		tgt, err := nvmeof.NewTarget(p, r.c.Hosts[0].Port, cluster.NVMeBARBase, nvmeof.TargetParams{QueueDepth: 2})
		if err != nil {
			t.Error(err)
			return
		}
		if err := tgt.Serve(p, r.qpT); err != nil {
			t.Error(err)
			return
		}
		resp, _ := h.Port.Alloc(nvmeof.RespSize, 64)
		data, _ := h.Port.Alloc(4096, nvme.PageSize)
		read := nvmeof.CmdCapsule{Opcode: nvme.IORead, CID: 7, NSID: 1, Nblk: 8, DataLen: 4096, RAddr: uint64(data)}
		// exchange sends msg as WRID wrid and, unless the target answers
		// nothing, returns its response.
		exchange := func(wrid uint64, msg []byte) (nvmeof.RespCapsule, bool) {
			r.qpI.PostRecv(0, resp, nvmeof.RespSize)
			r.qpI.PostSendInline(wrid, msg)
			if wc := rdma.WaitWCID(p, r.qpI.SendCQ, wrid); wc.Status != nil {
				t.Errorf("send %d: %v", wrid, wc.Status)
				return nvmeof.RespCapsule{}, false
			}
			p.Sleep(sim.Millisecond)
			if _, ok := r.qpI.RecvCQ.Poll(); !ok {
				return nvmeof.RespCapsule{}, false
			}
			raw := make([]byte, nvmeof.RespSize)
			if err := h.Port.Mem().Read(resp, raw); err != nil {
				t.Error(err)
			}
			rc, err := nvmeof.UnmarshalRespCapsule(raw)
			if err != nil {
				t.Error(err)
			}
			return rc, true
		}
		if rc, ok := exchange(1, read.Marshal()); !ok || rc.CID != 7 || rc.Status != 0 {
			t.Errorf("first read: response %+v (arrived %v), want CID 7 status 0", rc, ok)
		}
		if rc, ok := exchange(2, []byte{nvme.IORead}); ok {
			t.Errorf("a 1-byte capsule got response %+v; the controller has run %d reads", rc, r.ctrl.Stats.ReadCmds)
		}
		read.CID = 8
		if rc, ok := exchange(3, read.Marshal()); !ok || rc.CID != 8 || rc.Status != 0 {
			t.Errorf("read after the short capsule: response %+v (arrived %v), want CID 8 status 0", rc, ok)
		}
	})
	r.c.Run()
	if r.ctrl.Stats.ReadCmds != 2 {
		t.Errorf("the controller ran %d reads, want 2", r.ctrl.Stats.ReadCmds)
	}
}

// TestOversizeSendKeepsSlot: a SEND longer than a receive slot consumes
// the slot and lands nothing, and the target reposts it. With one receive
// slot, the target once never got that slot back, so every capsule after
// the oversize SEND failed with ErrRNR.
func TestOversizeSendKeepsSlot(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	h := r.c.Hosts[1]
	r.c.Go("main", func(p *sim.Proc) {
		tgt, err := nvmeof.NewTarget(p, r.c.Hosts[0].Port, cluster.NVMeBARBase, nvmeof.TargetParams{QueueDepth: 2})
		if err != nil {
			t.Error(err)
			return
		}
		if err := tgt.Serve(p, r.qpT); err != nil {
			t.Error(err)
			return
		}
		r.qpI.PostSendInline(1, make([]byte, nvmeof.CmdHeaderSize+4097))
		if wc := rdma.WaitWCID(p, r.qpI.SendCQ, 1); !errors.Is(wc.Status, rdma.ErrBadLength) {
			t.Errorf("oversize SEND: %v, want ErrBadLength", wc.Status)
		}
		resp, _ := h.Port.Alloc(nvmeof.RespSize, 64)
		data, _ := h.Port.Alloc(4096, nvme.PageSize)
		read := nvmeof.CmdCapsule{Opcode: nvme.IORead, CID: 7, NSID: 1, Nblk: 8, DataLen: 4096, RAddr: uint64(data)}
		r.qpI.PostRecv(0, resp, nvmeof.RespSize)
		r.qpI.PostSendInline(2, read.Marshal())
		if wc := rdma.WaitWCID(p, r.qpI.SendCQ, 2); wc.Status != nil {
			t.Errorf("read capsule after the oversize SEND: %v", wc.Status)
			return
		}
		if wc := rdma.WaitWC(p, r.qpI.RecvCQ); wc.Status != nil {
			t.Errorf("response: %v", wc.Status)
			return
		}
		raw := make([]byte, nvmeof.RespSize)
		if err := h.Port.Mem().Read(resp, raw); err != nil {
			t.Error(err)
		}
		if rc, err := nvmeof.UnmarshalRespCapsule(raw); err != nil || rc.CID != 7 || rc.Status != 0 {
			t.Errorf("response %+v (%v), want CID 7 status 0", rc, err)
		}
	})
	r.c.Run()
}

// TestOversizeResponseKeepsISR: a SEND longer than a response buffer
// fails the initiator's receive and lands nothing. The ISR reposts the
// buffer and keeps serving, so a read afterwards completes. The ISR once
// returned on the failed receive, and every later IO on the initiator
// hung.
func TestOversizeResponseKeepsISR(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	read := false
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		r.qpT.PostSendInline(0xbad, make([]byte, nvmeof.RespSize+1))
		if wc := rdma.WaitWCID(p, r.qpT.SendCQ, 0xbad); !errors.Is(wc.Status, rdma.ErrBadLength) {
			t.Errorf("oversize response SEND: %v, want ErrBadLength", wc.Status)
		}
		if err := ini.ReadBlocks(p, 0, 8, make([]byte, 4096)); err != nil {
			t.Errorf("read after the oversize response: %v", err)
			return
		}
		read = true
	})
	if !read {
		t.Fatal("the read after an oversize response never returned")
	}
}

// TestFailedSendFailsIO: a read whose capsule SEND fails returns an
// error. Here the initiator's QP is connected again, to a QP with no
// receive posted, so the SEND fails with receiver not ready. The ISR once
// dropped the failed completion with the rest of the send CQ, and the
// read waited forever for a response.
func TestFailedSendFailsIO(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	var err error
	returned := false
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		rdma.Connect(r.qpI, r.nicT.NewQP())
		err = ini.ReadBlocks(p, 0, 8, make([]byte, 4096))
		returned = true
	})
	if !returned {
		t.Fatal("the read whose capsule SEND failed never returned")
	}
	if !errors.Is(err, nvmeof.ErrIOFailed) || !errors.Is(err, rdma.ErrRNR) {
		t.Fatalf("read: %v, want ErrIOFailed from ErrRNR", err)
	}
}

func TestTooLargeRejected(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{SlotBytes: 8192},
		func(p *sim.Proc, ini *nvmeof.Initiator) {
			buf := make([]byte, 16384)
			if err := ini.ReadBlocks(p, 0, len(buf)/512, buf); !errors.Is(err, nvmeof.ErrTooLarge) {
				t.Errorf("got %v, want ErrTooLarge", err)
			}
		})
}

func TestIOErrorPropagates(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		// Read past capacity: controller reports LBA out of range; the
		// status must surface through the response capsule.
		err := ini.ReadBlocks(p, ini.Blocks(), 8, make([]byte, 4096))
		if !errors.Is(err, nvmeof.ErrIOFailed) {
			t.Errorf("got %v, want ErrIOFailed", err)
		}
	})
}

func TestInitiatorAsBlockDevice(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		q := block.NewQueue(ini)
		want := bytes.Repeat([]byte{0x21}, 4096)
		if err := q.SubmitAndWait(p, block.OpWrite, 99, 8, want); err != nil {
			t.Errorf("blk write: %v", err)
			return
		}
		got := make([]byte, 4096)
		if err := q.SubmitAndWait(p, block.OpRead, 99, 8, got); err != nil {
			t.Errorf("blk read: %v", err)
			return
		}
		if !bytes.Equal(got, want) {
			t.Error("mismatch via block layer")
		}
	})
}

func TestConcurrentFabricIO(t *testing.T) {
	r := newRig(t, cluster.NVMeConfig{})
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		done := make([]*sim.Event, 8)
		for i := range done {
			done[i] = sim.NewEvent(r.c.K)
			idx := i
			ev := done[i]
			r.c.K.Spawn("io", func(wp *sim.Proc) {
				defer ev.Trigger(nil)
				pat := bytes.Repeat([]byte{byte(idx + 1)}, 4096)
				lba := uint64(idx * 1000)
				if err := ini.WriteBlocks(wp, lba, 8, pat); err != nil {
					t.Errorf("w%d: %v", idx, err)
					return
				}
				got := make([]byte, 4096)
				if err := ini.ReadBlocks(wp, lba, 8, got); err != nil {
					t.Errorf("r%d: %v", idx, err)
					return
				}
				if !bytes.Equal(got, pat) {
					t.Errorf("io %d mismatch", idx)
				}
			})
		}
		for _, ev := range done {
			p.Wait(ev)
		}
	})
	if r.ctrl.Stats.ReadCmds != 8 || r.ctrl.Stats.WriteCmds != 8 {
		t.Fatalf("stats %+v", r.ctrl.Stats)
	}
}

func TestFabricsLatencyShape(t *testing.T) {
	// NVMe-oF remote 4 kB QD1 read must carry several microseconds of
	// network+software overhead on top of the ~10 us medium — the paper
	// measures a 7.7 us delta vs. local. Accept a broad window here; the
	// precise calibration is asserted in the cluster-level experiments.
	r := newRig(t, cluster.NVMeConfig{Flash: nvme.FlashParams{JitterNs: 1, TailProb: 1e-12}})
	var avg sim.Duration
	r.start(t, nvmeof.TargetParams{}, nvmeof.InitiatorParams{}, func(p *sim.Proc, ini *nvmeof.Initiator) {
		buf := make([]byte, 4096)
		ini.ReadBlocks(p, 0, 8, buf) // warm-up
		start := p.Now()
		const n = 10
		for i := 0; i < n; i++ {
			if err := ini.ReadBlocks(p, uint64(i*8), 8, buf); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
		avg = (p.Now() - start) / n
	})
	if avg < 14000 || avg > 25000 {
		t.Fatalf("fabrics QD1 read %d ns; expected ~16-20 us (medium + ~7 us fabric overhead)", avg)
	}
}
