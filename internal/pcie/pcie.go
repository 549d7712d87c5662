// Package pcie models a PCIe memory fabric at the transaction level.
//
// Each host owns a Domain: an address space in which devices, switches and
// the root complex form a tree. Memory transactions are routed by address.
// The model distinguishes the two transaction classes the paper's latency
// argument rests on:
//
//   - Posted writes (MWr): fire-and-forget. The initiator is blocked only
//     for the issue cost; delivery happens one path-traversal later.
//     Posted writes from one initiator never pass each other (PCIe
//     ordering rule), which is what makes the paper's "write SQE, then
//     ring doorbell" sequence safe across an NTB.
//   - Non-posted reads (MRd): the initiator blocks for a full round trip
//     plus completer service time and payload serialization.
//
// Every switch chip on the path adds a configurable per-direction delay
// (the paper, §VI: 100–150 ns per chip per direction). Domains are glued
// together by address-translating Forwarders (NTB windows, package ntb),
// and routing follows translations recursively so one transaction's cost
// covers the full multi-domain path.
package pcie

import (
	"errors"
	"fmt"

	"repro/internal/attr"
	"repro/internal/sim"
)

// Addr is a physical address within a domain.
type Addr = uint64

// NodeID identifies a node within one domain.
type NodeID int

// NodeKind classifies fabric nodes.
type NodeKind int

// Node kinds.
const (
	RootComplex NodeKind = iota
	Switch
	Endpoint
)

func (k NodeKind) String() string {
	switch k {
	case RootComplex:
		return "root-complex"
	case Switch:
		return "switch"
	case Endpoint:
		return "endpoint"
	}
	return "unknown"
}

// Node is a fabric element in a domain.
type Node struct {
	ID   NodeID
	Kind NodeKind
	Name string
}

// Target services memory transactions for a claimed address range.
// Implementations must not block; they run inline in the event kernel.
type Target interface {
	// TargetWrite delivers a posted write. data is the fabric's buffer,
	// reused for a later write once TargetWrite returns: an
	// implementation copies what it needs and keeps no reference.
	TargetWrite(addr Addr, data []byte)
	// TargetRead services a read, filling buf.
	TargetRead(addr Addr, buf []byte)
}

// Forwarder is a Target that translates transactions into another domain
// (the NTB primitive). Resolve follows forwarders recursively.
type Forwarder interface {
	// Forward translates the n-byte range at addr, returning the
	// destination domain, the node through which traffic enters it, the
	// translated address, and the one-way nanosecond cost of the crossing
	// itself. A range that one translation does not cover whole fails:
	// delivering it from the translated start would move bytes past the
	// mapping.
	Forward(addr Addr, n uint64) (dom *Domain, entry NodeID, raddr Addr, crossNs int64, err error)
}

// Range is a claimed address window.
type Range struct {
	Base Addr
	Size uint64
}

// Contains reports whether [a, a+n) lies within the range.
func (r Range) Contains(a Addr, n uint64) bool {
	return a >= r.Base && a+n >= a && a+n <= r.Base+r.Size
}

// End returns one past the last address of the range.
func (r Range) End() Addr { return r.Base + r.Size }

// Overlaps reports whether two ranges intersect.
func (r Range) Overlaps(o Range) bool {
	return r.Base < o.End() && o.Base < r.End()
}

// The link costs no caller varies: a Gen3 x8 class fabric.
const (
	// PropNs is the base propagation/SERDES cost per path per direction.
	PropNs = 250
	// BytesPerNs is link bandwidth (PCIe gen3 x8 ≈ 7.9 GB/s ≈ 7.9 B/ns).
	BytesPerNs float64 = 7.9
	// CplServiceNs is completer service time for a read (DRAM or register
	// file access at the target).
	CplServiceNs = 80
)

// SerializeNs returns the time to move n payload bytes across the link.
func SerializeNs(n int) int64 {
	if n <= 0 {
		return 0
	}
	return int64(float64(n) / BytesPerNs)
}

// LinkParams is the part of the fabric cost model a what-if overlay
// scales. Zero values are replaced by DefaultLinkParams fields.
type LinkParams struct {
	// PerSwitchNs is the added delay per switch chip per direction.
	// The paper cites 100–150 ns; default 125.
	PerSwitchNs int64
	// MMIOIssueNs is the CPU-side cost of issuing a posted store.
	MMIOIssueNs int64
}

// DefaultLinkParams returns the calibrated Gen3-class model used throughout
// the evaluation.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		PerSwitchNs: 125,
		MMIOIssueNs: 40,
	}
}

func (lp LinkParams) withDefaults() LinkParams {
	d := DefaultLinkParams()
	if lp.PerSwitchNs == 0 {
		lp.PerSwitchNs = d.PerSwitchNs
	}
	if lp.MMIOIssueNs == 0 {
		lp.MMIOIssueNs = d.MMIOIssueNs
	}
	return lp
}

// Errors returned by routing.
var (
	ErrNoRoute      = errors.New("pcie: no target claims address")
	ErrOverlap      = errors.New("pcie: claim overlaps existing claim")
	ErrUnknownNode  = errors.New("pcie: unknown node")
	ErrLoop         = errors.New("pcie: forwarding loop")
	ErrDisconnected = errors.New("pcie: nodes not connected")
)

type claim struct {
	rng    Range
	node   NodeID
	target Target
	// fw is target as a Forwarder, or nil. Asserting once at Claim keeps
	// the runtime's type-assertion cache, which it rebuilds at random
	// misses, off every routed transaction.
	fw Forwarder
}

// Domain is one host's PCIe address space and fabric topology.
type Domain struct {
	Name   string
	kernel *sim.Kernel
	params LinkParams
	nodes  []Node
	adj    map[NodeID][]NodeID
	claims []claim
	// hops[from*len(nodes)+to] counts the switch chips between two nodes,
	// -1 when no path joins them. AddNode and Connect drop the table, and
	// the next route builds it again.
	hops []int
	// lastArrival enforces per-initiator posted-write ordering: a later
	// posted write from the same initiator never arrives before an
	// earlier one, matching PCIe ordering rules. It is indexed by NodeID.
	lastArrival []sim.Time
	// posted is the free list of posted-write records.
	posted []*postedWrite
	stats  DomainStats
	// link accounts the flight intervals of transactions that cross an
	// NTB boundary (Crossings > 0): offered busy time and mean bytes in
	// flight on the cluster link, as seen from this domain's initiators.
	link attr.Window
}

// DomainStats counts fabric transactions initiated in this domain. All
// fields are monotonic totals; reading them never perturbs the model.
type DomainStats struct {
	PostedWrites uint64 // MemWrite TLPs issued
	MMIOWrites   uint64 // MMIOWrite TLPs issued
	Reads        uint64 // MemRead round trips issued
	BytesWritten uint64 // payload bytes of posted + MMIO writes
	BytesRead    uint64 // payload bytes of reads
	Crossings    uint64 // NTB crossings summed over all routed transactions
}

// Stats returns the domain's transaction counters.
func (d *Domain) Stats() DomainStats { return d.stats }

// Link returns the cross-link flight accounting for transactions this
// domain's initiators routed over an NTB boundary.
func (d *Domain) Link() attr.Window { return d.link }

// NewDomain creates an empty domain on kernel k. Pass a zero LinkParams to
// use defaults.
func NewDomain(name string, k *sim.Kernel, params LinkParams) *Domain {
	return &Domain{
		Name:   name,
		kernel: k,
		params: params.withDefaults(),
		adj:    make(map[NodeID][]NodeID),
	}
}

// Kernel returns the simulation kernel the domain runs on.
func (d *Domain) Kernel() *sim.Kernel { return d.kernel }

// AddNode adds a fabric node and returns its ID.
func (d *Domain) AddNode(kind NodeKind, name string) NodeID {
	id := NodeID(len(d.nodes))
	d.nodes = append(d.nodes, Node{ID: id, Kind: kind, Name: name})
	d.lastArrival = append(d.lastArrival, 0)
	d.hops = nil
	return id
}

// Connect links two nodes with a bidirectional edge.
func (d *Domain) Connect(a, b NodeID) error {
	if !d.valid(a) || !d.valid(b) {
		return ErrUnknownNode
	}
	d.adj[a] = append(d.adj[a], b)
	d.adj[b] = append(d.adj[b], a)
	d.hops = nil
	return nil
}

func (d *Domain) valid(n NodeID) bool { return n >= 0 && int(n) < len(d.nodes) }

// Node returns the node with the given ID.
func (d *Domain) Node(id NodeID) (Node, error) {
	if !d.valid(id) {
		return Node{}, ErrUnknownNode
	}
	return d.nodes[id], nil
}

// Claim registers target as servicing rng, attached at node.
func (d *Domain) Claim(rng Range, node NodeID, target Target) error {
	if !d.valid(node) {
		return ErrUnknownNode
	}
	for _, c := range d.claims {
		if c.rng.Overlaps(rng) {
			return fmt.Errorf("%w: [%#x,%#x) vs [%#x,%#x)",
				ErrOverlap, rng.Base, rng.End(), c.rng.Base, c.rng.End())
		}
	}
	fw, _ := target.(Forwarder)
	d.claims = append(d.claims, claim{rng: rng, node: node, target: target, fw: fw})
	return nil
}

// Unclaim removes the claim exactly matching rng, if present.
func (d *Domain) Unclaim(rng Range) bool {
	for i, c := range d.claims {
		if c.rng == rng {
			d.claims = append(d.claims[:i], d.claims[i+1:]...)
			return true
		}
	}
	return false
}

// lookup finds the claim containing [addr, addr+n).
func (d *Domain) lookup(addr Addr, n uint64) (*claim, error) {
	for i := range d.claims {
		if c := &d.claims[i]; c.rng.Contains(addr, n) {
			return c, nil
		}
	}
	return nil, fmt.Errorf("%w: %s [%#x,+%d)", ErrNoRoute, d.Name, addr, n)
}

// switchHops counts switch chips on the path between two nodes. The
// endpoints themselves are not counted even if they are switches.
func (d *Domain) switchHops(from, to NodeID) (int, error) {
	if d.hops == nil {
		d.buildHops()
	}
	n := len(d.nodes)
	if d.valid(from) {
		if h := d.hops[int(from)*n+int(to)]; h >= 0 {
			return h, nil
		}
	}
	return 0, fmt.Errorf("%w: %s %d -> %d", ErrDisconnected, d.Name, from, to)
}

// buildHops fills the hop table with a breadth-first search from every
// node. Each search visits neighbors in the order Connect added them, so
// of two shortest paths the table takes the one a search for that pair
// alone would find.
func (d *Domain) buildHops() {
	n := len(d.nodes)
	d.hops = make([]int, n*n)
	queue := make([]NodeID, 0, n)
	for from := range n {
		row := d.hops[from*n : (from+1)*n]
		for i := range row {
			row[i] = -1
		}
		row[from] = 0
		queue = append(queue[:0], NodeID(from))
		for i := 0; i < len(queue); i++ {
			cur := queue[i]
			// Switches between from and a node reached through cur.
			via := row[cur]
			if int(cur) != from && d.nodes[cur].Kind == Switch {
				via++
			}
			for _, nb := range d.adj[cur] {
				if row[nb] < 0 {
					row[nb] = via
					queue = append(queue, nb)
				}
			}
		}
	}
}

// Resolved is the outcome of routing an address, possibly across domains.
type Resolved struct {
	// Target services the transaction, with Addr already translated into
	// its final domain.
	Target Target
	Addr   Addr
	// OneWayNs is the total one-direction path cost from initiator to
	// target, excluding payload serialization.
	OneWayNs int64
	// Crossings is the number of domain (NTB) crossings on the path.
	Crossings int
	// Domain is the final domain the target lives in.
	Domain *Domain
}

const maxForwardDepth = 8

// Resolve routes [addr, addr+n) from initiator node `from`, following NTB
// forwarders across domains, and returns the final target plus the one-way
// structural cost of the path.
func (d *Domain) Resolve(from NodeID, addr Addr, n uint64) (Resolved, error) {
	var res Resolved
	cur := d
	curFrom := from
	curAddr := addr
	var cost int64
	for depth := 0; ; depth++ {
		if depth > maxForwardDepth {
			return res, ErrLoop
		}
		c, err := cur.lookup(curAddr, n)
		if err != nil {
			return res, err
		}
		hops, err := cur.switchHops(curFrom, c.node)
		if err != nil {
			return res, err
		}
		cost += int64(hops)*cur.params.PerSwitchNs + PropNs
		if c.fw != nil {
			next, entry, raddr, crossNs, err := c.fw.Forward(curAddr, n)
			if err != nil {
				return res, err
			}
			cost += crossNs
			res.Crossings++
			cur, curFrom, curAddr = next, entry, raddr
			continue
		}
		res.Target = c.target
		res.Addr = curAddr
		res.OneWayNs = cost
		res.Domain = cur
		return res, nil
	}
}

// postedArrival computes the delivery time for a posted write issued now,
// enforcing per-initiator FIFO ordering.
func (d *Domain) postedArrival(from NodeID, lat int64) sim.Time {
	arr := d.kernel.Now() + lat
	if last := d.lastArrival[from]; arr < last {
		arr = last
	}
	d.lastArrival[from] = arr
	return arr
}

// postedWrite is a posted write in flight: its resolved target, the
// translated address and a copy of the payload. Records are recycled
// through the issuing domain's free list, payload buffer and all, so a
// write allocates nothing once the list is warm.
type postedWrite struct {
	d      *Domain
	target Target
	addr   Addr
	buf    []byte
	// deliver is w.run, bound once when the record is made.
	deliver func()
}

// run delivers the write and returns the record to the free list.
func (w *postedWrite) run() {
	w.target.TargetWrite(w.addr, w.buf)
	w.target = nil
	w.d.posted = append(w.d.posted, w)
}

// post captures data in a record and schedules its delivery to the
// resolved target one path traversal after the issue at t0, after
// already-scheduled posted writes from the same initiator.
func (d *Domain) post(from NodeID, res Resolved, t0 sim.Time, data []byte) {
	var w *postedWrite
	if n := len(d.posted) - 1; n >= 0 {
		w = d.posted[n]
		d.posted[n] = nil
		d.posted = d.posted[:n]
	} else {
		w = &postedWrite{d: d}
		w.deliver = w.run
	}
	w.target, w.addr = res.Target, res.Addr
	w.buf = append(w.buf[:0], data...)
	arrival := d.postedArrival(from, res.OneWayNs)
	if res.Crossings > 0 {
		d.link.Record(t0, int64(arrival), uint64(len(data)))
	}
	d.kernel.After(arrival-d.kernel.Now(), w.deliver)
}

// MemWrite issues a posted write of data to addr from node `from`. The
// calling process is blocked only for the issue plus serialization cost;
// delivery is scheduled for one path traversal later. The data is captured
// at the end of the issue cost; MemWrite keeps no reference to it.
func (d *Domain) MemWrite(p *sim.Proc, from NodeID, addr Addr, data []byte) error {
	res, err := d.Resolve(from, addr, uint64(len(data)))
	if err != nil {
		return err
	}
	d.stats.PostedWrites++
	d.stats.BytesWritten += uint64(len(data))
	d.stats.Crossings += uint64(res.Crossings)
	t0 := d.kernel.Now()
	// The initiator occupies its port for the serialization time.
	p.Sleep(SerializeNs(len(data)))
	d.post(from, res, t0, data)
	return nil
}

// MMIOWrite issues a small posted register write from a CPU: the process is
// blocked for the store-issue cost only. Like MemWrite, it captures data
// at the end of that cost and keeps no reference to it.
func (d *Domain) MMIOWrite(p *sim.Proc, from NodeID, addr Addr, data []byte) error {
	res, err := d.Resolve(from, addr, uint64(len(data)))
	if err != nil {
		return err
	}
	d.stats.MMIOWrites++
	d.stats.BytesWritten += uint64(len(data))
	d.stats.Crossings += uint64(res.Crossings)
	t0 := d.kernel.Now()
	p.Sleep(d.params.MMIOIssueNs)
	d.post(from, res, t0, data)
	return nil
}

// MemRead performs a non-posted read of len(buf) bytes into buf. The
// calling process blocks for the full round trip: request traversal,
// completer service, and completion traversal with payload serialization.
// Data is captured at the target when the request arrives, matching real
// completer semantics.
func (d *Domain) MemRead(p *sim.Proc, from NodeID, addr Addr, buf []byte) error {
	res, err := d.Resolve(from, addr, uint64(len(buf)))
	if err != nil {
		return err
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	d.stats.Crossings += uint64(res.Crossings)
	t0 := d.kernel.Now()
	// Request flight.
	p.Sleep(res.OneWayNs)
	// Completer services the read now.
	res.Target.TargetRead(res.Addr, buf)
	// Completion flight plus payload serialization.
	p.Sleep(res.OneWayNs + CplServiceNs + SerializeNs(len(buf)))
	if res.Crossings > 0 {
		d.link.Record(t0, d.kernel.Now(), uint64(len(buf)))
	}
	return nil
}

// ReadLatency returns the round-trip cost of reading n bytes at addr from
// node `from`, without performing the read. Useful for calibration tests.
func (d *Domain) ReadLatency(from NodeID, addr Addr, n int) (int64, error) {
	res, err := d.Resolve(from, addr, uint64(n))
	if err != nil {
		return 0, err
	}
	return 2*res.OneWayNs + CplServiceNs + SerializeNs(n), nil
}

// WriteLatency returns the one-way delivery cost of writing n bytes.
func (d *Domain) WriteLatency(from NodeID, addr Addr, n int) (int64, error) {
	res, err := d.Resolve(from, addr, uint64(n))
	if err != nil {
		return 0, err
	}
	return res.OneWayNs + SerializeNs(n), nil
}
