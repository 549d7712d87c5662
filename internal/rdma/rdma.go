// Package rdma models an InfiniBand/RoCE-class RDMA fabric: NICs attached
// to host PCIe domains, reliable-connected queue pairs with send/receive
// work queues, completion queues polled by software, two-sided SEND/RECV
// and one-sided RDMA READ/WRITE. It is the transport under the NVMe-oF
// baseline (paper §II, Fig. 3): queues live in host memory, the NIC moves
// payloads with DMA, and — unlike the PCIe/NTB path — target software must
// run on the critical path.
package rdma

import (
	"errors"
	"fmt"

	"repro/internal/pcie"
	"repro/internal/sim"
)

// The calibrated NIC/network cost model (ConnectX-5 class, 100 Gb/s).
const (
	// TxNs is send-side NIC processing per work request.
	TxNs = 500
	// RxNs is receive-side NIC processing per message.
	RxNs = 500
	// WireNs is one-way propagation including the IB switch.
	WireNs = 450
	// BytesPerNs is wire bandwidth (100 Gb/s = 12.5 B/ns).
	BytesPerNs = 12.5
)

// serNs is the wire serialization time of n bytes.
func serNs(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(float64(n) / BytesPerNs)
}

// Errors returned by the verbs layer.
var (
	ErrNotConnected = errors.New("rdma: queue pair not connected")
	ErrRNR          = errors.New("rdma: receiver not ready (no posted receive)")
	ErrBadLength    = errors.New("rdma: receive buffer too small")
)

// Opcode identifies a completed operation.
type Opcode int

// Completion opcodes.
const (
	OpSend Opcode = iota
	OpRecv
	OpWrite
	OpRead
)

// WC is a work completion.
type WC struct {
	WRID    uint64
	Op      Opcode
	Status  error // nil on success
	ByteLen int
}

// CQ is a completion queue polled by software; its signal fires on every
// new entry so waiters need not burn virtual time.
type CQ struct {
	entries []WC
	sig     *sim.Signal
	// onError, when set, sees each failed completion as it lands.
	onError func(WC)
}

// OnError calls fn with each failed completion as it lands on cq, as a
// verbs CQ armed for solicited events only still raises an event for an
// unsuccessful completion. The completion stays queued for pollers. fn
// runs in the NIC's process and must not block.
func (cq *CQ) OnError(fn func(WC)) { cq.onError = fn }

// NewCQ creates an empty completion queue.
func NewCQ(k *sim.Kernel) *CQ {
	return &CQ{sig: sim.NewSignal(k)}
}

// Poll removes and returns the oldest completion.
func (cq *CQ) Poll() (WC, bool) {
	if len(cq.entries) == 0 {
		return WC{}, false
	}
	wc := cq.entries[0]
	cq.entries = cq.entries[1:]
	return wc, true
}

// PollID removes and returns the completion with the given WRID, leaving
// other entries for their own waiters. Use it when multiple contexts
// share one CQ.
func (cq *CQ) PollID(wrid uint64) (WC, bool) {
	for i, wc := range cq.entries {
		if wc.WRID == wrid {
			cq.entries = append(cq.entries[:i], cq.entries[i+1:]...)
			return wc, true
		}
	}
	return WC{}, false
}

// WaitPoll blocks the process until a completion is available.
func (p *CQ) waitPoll(proc *sim.Proc) WC {
	for {
		if wc, ok := p.Poll(); ok {
			return wc
		}
		proc.WaitSignal(p.sig)
	}
}

func (cq *CQ) push(wc WC) {
	cq.entries = append(cq.entries, wc)
	if wc.Status != nil && cq.onError != nil {
		cq.onError(wc)
	}
	cq.sig.Set()
}

// NIC is an RDMA adapter attached to a host domain at a fabric endpoint.
type NIC struct {
	Name   string
	host   *pcie.HostPort
	node   pcie.NodeID
	kernel *sim.Kernel
	nextQP int
	// bufs is the free list of payload buffers, each holding the bytes of
	// one RDMA WRITE or READ between the DMA read that fetches them and
	// the DMA write that lands them.
	bufs [][]byte
}

// NewNIC attaches an adapter at node in the host's domain.
func NewNIC(name string, host *pcie.HostPort, node pcie.NodeID) *NIC {
	return &NIC{
		Name:   name,
		host:   host,
		node:   node,
		kernel: host.Domain().Kernel(),
	}
}

// payload returns an n-byte buffer from the free list. Its bytes are
// stale: a DMA read fills every one (pcie.Target).
func (n *NIC) payload(size int) []byte {
	if last := len(n.bufs) - 1; last >= 0 {
		b := n.bufs[last]
		n.bufs[last] = nil
		n.bufs = n.bufs[:last]
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// release returns a payload buffer to the free list. deliver's posted
// write copies the bytes it lands, so a buffer may go back as soon as
// deliver returns.
func (n *NIC) release(b []byte) { n.bufs = append(n.bufs, b) }

type recvWR struct {
	wrid uint64
	addr pcie.Addr
	n    int
}

type sendWR struct {
	wrid   uint64
	op     Opcode
	laddr  pcie.Addr
	n      int
	raddr  pcie.Addr // for RDMA read/write
	inline []byte    // a SEND's payload, captured at post time
}

// QP is a reliable-connected queue pair.
type QP struct {
	Num    int
	nic    *NIC
	peer   *QP
	recvs  []recvWR
	sendQ  *sim.Queue
	SendCQ *CQ
	RecvCQ *CQ

	// lastArrival keeps wire deliveries in order while messages pipeline.
	lastArrival sim.Time
	// lastDone chains remote-side completion visibility: a message's
	// completions become visible only after all earlier messages' data
	// has landed, matching NIC DMA ordering.
	lastDone *sim.Event
	msgSeq   uint64
}

// NewQP creates a queue pair with fresh CQs.
func (n *NIC) NewQP() *QP {
	n.nextQP++
	qp := &QP{
		Num:    n.nextQP,
		nic:    n,
		sendQ:  sim.NewQueue(n.kernel),
		SendCQ: NewCQ(n.kernel),
		RecvCQ: NewCQ(n.kernel),
	}
	n.kernel.Spawn(fmt.Sprintf("%s/qp%d", n.Name, qp.Num), qp.engine)
	return qp
}

// Connect pairs two QPs (both directions).
func Connect(a, b *QP) {
	a.peer = b
	b.peer = a
}

// PostRecv posts a receive buffer in host memory.
func (q *QP) PostRecv(wrid uint64, addr pcie.Addr, n int) {
	q.recvs = append(q.recvs, recvWR{wrid: wrid, addr: addr, n: n})
}

// PostSendInline enqueues a SEND whose payload is captured from data at
// post time (no local DMA read), as small command capsules are sent.
// Completion arrives on SendCQ.
func (q *QP) PostSendInline(wrid uint64, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	q.sendQ.Push(&sendWR{wrid: wrid, op: OpSend, n: len(buf), inline: buf})
}

// PostWrite enqueues an RDMA WRITE of n bytes from local addr to remote
// raddr (peer host memory). One-sided: no receive consumed.
func (q *QP) PostWrite(wrid uint64, laddr pcie.Addr, n int, raddr pcie.Addr) {
	q.sendQ.Push(&sendWR{wrid: wrid, op: OpWrite, laddr: laddr, n: n, raddr: raddr})
}

// PostRead enqueues an RDMA READ of n bytes from remote raddr into local
// laddr.
func (q *QP) PostRead(wrid uint64, laddr pcie.Addr, n int, raddr pcie.Addr) {
	q.sendQ.Push(&sendWR{wrid: wrid, op: OpRead, laddr: laddr, n: n, raddr: raddr})
}

// engine is the QP's send engine process. It serializes only the NIC's
// transmit-side occupancy (per-message processing plus payload
// serialization); wire flight and remote-side work pipeline across
// messages, as on hardware. Ordering is preserved: deliveries arrive in
// post order and completion visibility is chained behind earlier
// messages' data landing.
func (q *QP) engine(p *sim.Proc) {
	for {
		wr := p.Pop(q.sendQ).(*sendWR)
		if q.peer == nil {
			q.SendCQ.push(WC{WRID: wr.wrid, Op: wr.op, Status: ErrNotConnected})
			continue
		}
		switch wr.op {
		case OpSend, OpWrite:
			// Engine occupancy is per-message processing plus payload
			// serialization; the payload DMA from host memory is
			// pipelined into the flight (fetched by remoteSide).
			p.Sleep(TxNs + serNs(wr.n))
		case OpRead:
			p.Sleep(TxNs)
		}
		q.dispatch(wr)
	}
}

// dispatch schedules the message's remote-side work one wire flight from
// now, keeping per-QP arrival order and chaining completion visibility.
func (q *QP) dispatch(wr *sendWR) {
	k := q.nic.kernel
	arrival := k.Now() + WireNs
	if arrival < q.lastArrival {
		arrival = q.lastArrival
	}
	q.lastArrival = arrival
	prev := q.lastDone
	done := sim.NewEvent(k)
	q.lastDone = done
	q.msgSeq++
	seq := q.msgSeq
	k.After(arrival-k.Now(), func() {
		k.Spawn(fmt.Sprintf("%s/qp%d/rx%d", q.nic.Name, q.Num, seq), func(rp *sim.Proc) {
			defer done.Trigger(nil)
			q.remoteSide(rp, wr, prev)
		})
	})
}

// remoteSide performs the receiver-side work of one message. prev is the
// previous message's done event: completions are published only after it,
// so a small message never becomes visible before an earlier large one's
// data.
func (q *QP) remoteSide(rp *sim.Proc, wr *sendWR, prev *sim.Event) {
	peer := q.peer
	finish := func(local WC, recv *WC) {
		if prev != nil {
			rp.Wait(prev)
		}
		if recv != nil {
			peer.RecvCQ.push(*recv)
		}
		q.SendCQ.push(local)
	}
	switch wr.op {
	case OpSend:
		payload := wr.inline
		rp.Sleep(RxNs)
		if len(peer.recvs) == 0 {
			finish(WC{WRID: wr.wrid, Op: OpSend, Status: ErrRNR}, nil)
			return
		}
		rwr := peer.recvs[0]
		peer.recvs = peer.recvs[1:]
		if rwr.n < len(payload) {
			// The message consumed the receive and landed nothing; like
			// a verbs NIC's local length error, the receiver gets that
			// receive back as a failed completion to repost.
			finish(WC{WRID: wr.wrid, Op: OpSend, Status: ErrBadLength},
				&WC{WRID: rwr.wrid, Op: OpRecv, Status: ErrBadLength})
			return
		}
		if len(payload) > 0 {
			if err := deliver(rp, peer.nic, rwr.addr, payload); err != nil {
				finish(WC{WRID: wr.wrid, Op: OpSend, Status: err}, nil)
				return
			}
		}
		finish(WC{WRID: wr.wrid, Op: OpSend, ByteLen: len(payload)},
			&WC{WRID: rwr.wrid, Op: OpRecv, ByteLen: len(payload)})

	case OpWrite:
		// The payload was DMA-fetched from the sender's memory by the
		// NIC, pipelined with the wire flight; materialize it here.
		buf := q.nic.payload(wr.n)
		var err error
		if wr.n > 0 {
			err = q.nic.host.Domain().MemRead(rp, q.nic.node, wr.laddr, buf)
		}
		if err == nil {
			rp.Sleep(RxNs)
			err = deliver(rp, peer.nic, wr.raddr, buf)
		}
		q.nic.release(buf)
		if err != nil {
			finish(WC{WRID: wr.wrid, Op: OpWrite, Status: err}, nil)
			return
		}
		finish(WC{WRID: wr.wrid, Op: OpWrite, ByteLen: wr.n}, nil)

	case OpRead:
		// The request has arrived at the peer; fetch the data and fly it
		// back.
		buf := q.nic.payload(wr.n)
		err := peer.nic.host.Domain().MemRead(rp, peer.nic.node, wr.raddr, buf)
		if err == nil {
			rp.Sleep(WireNs + serNs(wr.n) + RxNs)
			err = deliver(rp, q.nic, wr.laddr, buf)
		}
		q.nic.release(buf)
		if err != nil {
			finish(WC{WRID: wr.wrid, Op: OpRead, Status: err}, nil)
			return
		}
		finish(WC{WRID: wr.wrid, Op: OpRead, ByteLen: wr.n}, nil)
	}
}

// deliver issues a posted DMA write from the NIC and waits until it has
// physically landed, so completions pushed afterwards never race ahead of
// their payload (the NIC orders the CQE DMA behind the data DMA).
func deliver(p *sim.Proc, nic *NIC, addr pcie.Addr, payload []byte) error {
	dom := nic.host.Domain()
	lat, err := dom.WriteLatency(nic.node, addr, len(payload))
	if err != nil {
		return err
	}
	if err := dom.MemWrite(p, nic.node, addr, payload); err != nil {
		return err
	}
	p.Sleep(lat)
	return nil
}

// WaitWC blocks until the next completion on cq.
func WaitWC(p *sim.Proc, cq *CQ) WC { return cq.waitPoll(p) }

// WaitWCID blocks until the completion with the given WRID arrives on cq,
// ignoring (and preserving) completions belonging to other contexts.
func WaitWCID(p *sim.Proc, cq *CQ, wrid uint64) WC {
	for {
		if wc, ok := cq.PollID(wrid); ok {
			return wc
		}
		p.WaitSignal(cq.sig)
	}
}
