package rdma_test

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
)

// rig: two hosts with NICs attached at dedicated endpoints; no NTB use.
type rig struct {
	c    *cluster.Cluster
	nicA *rdma.NIC
	nicB *rdma.NIC
	qpA  *rdma.QP
	qpB  *rdma.QP
}

func newRig(t *testing.T) *rig {
	t.Helper()
	c, err := cluster.New(cluster.Config{Hosts: 2})
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
	r := &rig{c: c}
	r.nicA = attach(c.Hosts[0], "cx5-a")
	r.nicB = attach(c.Hosts[1], "cx5-b")
	r.qpA = r.nicA.NewQP()
	r.qpB = r.nicB.NewQP()
	rdma.Connect(r.qpA, r.qpB)
	return r
}

func (r *rig) alloc(t *testing.T, host int, n uint64) pcie.Addr {
	t.Helper()
	a, err := r.c.Hosts[host].Port.Alloc(n, 64)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSendRecv: a SEND consumes the oldest posted receive, and both
// sides complete with their own WRID, opcode and the message length.
func TestSendRecv(t *testing.T) {
	r := newRig(t)
	dst := r.alloc(t, 1, 256)
	msg := []byte("rdma send/recv payload")
	r.qpB.PostRecv(7, dst, 256)
	var sendWC, recvWC rdma.WC
	r.c.Go("sender", func(p *sim.Proc) {
		r.qpA.PostSendInline(1, msg)
		sendWC = rdma.WaitWC(p, r.qpA.SendCQ)
	})
	r.c.Go("receiver", func(p *sim.Proc) {
		recvWC = rdma.WaitWC(p, r.qpB.RecvCQ)
	})
	r.c.Run()
	if sendWC.Status != nil || recvWC.Status != nil {
		t.Fatalf("wc errors: %v %v", sendWC.Status, recvWC.Status)
	}
	if sendWC.WRID != 1 || sendWC.Op != rdma.OpSend || sendWC.ByteLen != len(msg) {
		t.Fatalf("send wc %+v", sendWC)
	}
	if recvWC.WRID != 7 || recvWC.Op != rdma.OpRecv || recvWC.ByteLen != len(msg) {
		t.Fatalf("recv wc %+v", recvWC)
	}
	got, _ := r.c.Hosts[1].Port.Slice(dst, uint64(len(msg)))
	if !bytes.Equal(got, msg) {
		t.Fatal("payload mismatch")
	}
}

// TestSendInline: an inline SEND carries the bytes its source held at
// post time, though the caller overwrites the source before the message
// leaves.
func TestSendInline(t *testing.T) {
	r := newRig(t)
	dst := r.alloc(t, 1, 128)
	r.qpB.PostRecv(1, dst, 128)
	msg := []byte("inline capsule")
	r.c.Go("s", func(p *sim.Proc) {
		src := append([]byte(nil), msg...)
		r.qpA.PostSendInline(2, src)
		copy(src, "overwritten!!!")
		wc := rdma.WaitWC(p, r.qpA.SendCQ)
		if wc.Status != nil {
			t.Errorf("send: %v", wc.Status)
		}
	})
	r.c.Run()
	got, _ := r.c.Hosts[1].Port.Slice(dst, uint64(len(msg)))
	if !bytes.Equal(got, msg) {
		t.Fatalf("inline payload %q, want %q", got, msg)
	}
}

func TestRNRWhenNoReceivePosted(t *testing.T) {
	r := newRig(t)
	var wc rdma.WC
	r.c.Go("s", func(p *sim.Proc) {
		r.qpA.PostSendInline(3, []byte("x"))
		wc = rdma.WaitWC(p, r.qpA.SendCQ)
	})
	r.c.Run()
	if !errors.Is(wc.Status, rdma.ErrRNR) {
		t.Fatalf("got %v, want ErrRNR", wc.Status)
	}
}

func TestRecvBufferTooSmall(t *testing.T) {
	r := newRig(t)
	dst := r.alloc(t, 1, 4)
	r.qpB.PostRecv(1, dst, 4)
	var wc rdma.WC
	r.c.Go("s", func(p *sim.Proc) {
		r.qpA.PostSendInline(3, []byte("longer than four"))
		wc = rdma.WaitWC(p, r.qpA.SendCQ)
	})
	r.c.Run()
	if !errors.Is(wc.Status, rdma.ErrBadLength) {
		t.Fatalf("got %v, want ErrBadLength", wc.Status)
	}
}

func TestNotConnected(t *testing.T) {
	r := newRig(t)
	lone := r.nicA.NewQP()
	var wc rdma.WC
	r.c.Go("s", func(p *sim.Proc) {
		lone.PostSendInline(1, []byte("x"))
		wc = rdma.WaitWC(p, lone.SendCQ)
	})
	r.c.Run()
	if !errors.Is(wc.Status, rdma.ErrNotConnected) {
		t.Fatalf("got %v, want ErrNotConnected", wc.Status)
	}
}

func TestRDMAWriteOneSided(t *testing.T) {
	r := newRig(t)
	src := r.alloc(t, 0, 4096)
	dst := r.alloc(t, 1, 4096)
	data := bytes.Repeat([]byte{0xD0}, 4096)
	s, _ := r.c.Hosts[0].Port.Slice(src, 4096)
	copy(s, data)
	r.c.Go("s", func(p *sim.Proc) {
		r.qpA.PostWrite(9, src, 4096, dst)
		wc := rdma.WaitWC(p, r.qpA.SendCQ)
		if wc.Status != nil || wc.Op != rdma.OpWrite {
			t.Errorf("wc %+v", wc)
		}
	})
	r.c.Run()
	got, _ := r.c.Hosts[1].Port.Slice(dst, 4096)
	if !bytes.Equal(got, data) {
		t.Fatal("RDMA WRITE payload mismatch")
	}
}

func TestRDMAReadOneSided(t *testing.T) {
	r := newRig(t)
	local := r.alloc(t, 0, 4096)
	remote := r.alloc(t, 1, 4096)
	data := bytes.Repeat([]byte{0x5E}, 4096)
	s, _ := r.c.Hosts[1].Port.Slice(remote, 4096)
	copy(s, data)
	r.c.Go("s", func(p *sim.Proc) {
		r.qpA.PostRead(10, local, 4096, remote)
		wc := rdma.WaitWC(p, r.qpA.SendCQ)
		if wc.Status != nil || wc.Op != rdma.OpRead {
			t.Errorf("wc %+v", wc)
		}
	})
	r.c.Run()
	got, _ := r.c.Hosts[0].Port.Slice(local, 4096)
	if !bytes.Equal(got, data) {
		t.Fatal("RDMA READ payload mismatch")
	}
}

// TestPayloadBuffersReused: a NIC keeps its RDMA READ and WRITE payload
// buffers for the next message rather than allocating one per message.
// After a first round has backed the destination pages and warmed the
// free lists, 16 more rounds of a 64 KiB READ and a 64 KiB WRITE
// allocate less than one payload, and every byte still arrives.
func TestPayloadBuffersReused(t *testing.T) {
	const n, size = 16, 64 << 10
	r := newRig(t)
	readDst, readSrc := r.alloc(t, 0, size), r.alloc(t, 1, size)
	writeSrc, writeDst := r.alloc(t, 0, size), r.alloc(t, 1, size)
	if err := r.c.Hosts[1].Port.Mem().Write(readSrc, bytes.Repeat([]byte{0x3C}, size)); err != nil {
		t.Fatal(err)
	}
	if err := r.c.Hosts[0].Port.Mem().Write(writeSrc, bytes.Repeat([]byte{0xC3}, size)); err != nil {
		t.Fatal(err)
	}
	var allocated uint64
	r.c.Go("s", func(p *sim.Proc) {
		var before, after runtime.MemStats
		for i := 0; i <= n; i++ {
			if i == 1 {
				runtime.ReadMemStats(&before)
			}
			r.qpA.PostRead(uint64(2*i), readDst, size, readSrc)
			r.qpA.PostWrite(uint64(2*i+1), writeSrc, size, writeDst)
			for j := 0; j < 2; j++ {
				if wc := rdma.WaitWC(p, r.qpA.SendCQ); wc.Status != nil {
					t.Errorf("wc %+v", wc)
				}
			}
		}
		runtime.ReadMemStats(&after)
		allocated = after.TotalAlloc - before.TotalAlloc
	})
	r.c.Run()
	if allocated >= size {
		t.Errorf("%d transfers of %d bytes allocated %d bytes, want less than one transfer's", 2*n, size, allocated)
	}
	for _, c := range []struct {
		host int
		addr pcie.Addr
		want byte
	}{{0, readDst, 0x3C}, {1, writeDst, 0xC3}} {
		got := make([]byte, size)
		if err := r.c.Hosts[c.host].Port.Mem().Read(c.addr, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, bytes.Repeat([]byte{c.want}, size)) {
			t.Errorf("host %d's buffer lost bytes of the transfer into it", c.host)
		}
	}
}

func TestOrderingWithinQP(t *testing.T) {
	// Two sends from one QP arrive in post order.
	r := newRig(t)
	d1 := r.alloc(t, 1, 16)
	d2 := r.alloc(t, 1, 16)
	r.qpB.PostRecv(1, d1, 16)
	r.qpB.PostRecv(2, d2, 16)
	var order []uint64
	r.c.Go("recv", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			wc := rdma.WaitWC(p, r.qpB.RecvCQ)
			order = append(order, wc.WRID)
		}
	})
	r.c.Go("send", func(p *sim.Proc) {
		r.qpA.PostSendInline(1, bytes.Repeat([]byte{1}, 16))
		r.qpA.PostSendInline(2, []byte{2})
	})
	r.c.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order %v", order)
	}
}

func TestLatencyModelReasonable(t *testing.T) {
	// One 4 kB RDMA WRITE should cost on the order of 1-3 us — the wire,
	// two NIC traversals and serialization — far less than a capsule
	// round trip but clearly more than a PCIe hop.
	r := newRig(t)
	src := r.alloc(t, 0, 4096)
	dst := r.alloc(t, 1, 4096)
	var took sim.Duration
	r.c.Go("s", func(p *sim.Proc) {
		start := p.Now()
		r.qpA.PostWrite(1, src, 4096, dst)
		rdma.WaitWC(p, r.qpA.SendCQ)
		took = p.Now() - start
	})
	r.c.Run()
	if took < 800 || took > 6000 {
		t.Fatalf("4kB RDMA WRITE took %d ns; model out of calibration", took)
	}
}
