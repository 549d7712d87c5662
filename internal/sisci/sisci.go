// Package sisci models the SISCI shared-memory API (paper §III–IV base
// layer): hosts allocate contiguous physical "segments", make them
// available to the cluster, and other hosts connect to them and map them
// through their NTB adapters into their own address spaces.
//
// Nodes are hosts in a Dolphin-style PCIe cluster. Each node owns a
// HostPort (CPU + DRAM) and a ClusterAdapter (the NTB into the cluster
// switch). The package is control-plane only: data-path transactions go
// through the pcie fabric model.
package sisci

import (
	"errors"
	"fmt"

	"repro/internal/ntb"
	"repro/internal/pcie"
)

// NodeID identifies a host in the cluster.
type NodeID int

// SegmentID identifies a segment within its owning node.
type SegmentID uint32

// Errors returned by the API.
var (
	ErrNoSuchNode    = errors.New("sisci: no such node")
	ErrNoSuchSegment = errors.New("sisci: no such segment")
	ErrSegmentExists = errors.New("sisci: segment id in use")
	ErrNotAvailable  = errors.New("sisci: segment not available")
	ErrAlreadyMapped = errors.New("sisci: segment already mapped")
	ErrNotMapped     = errors.New("sisci: segment not mapped")
	ErrSelfConnect   = errors.New("sisci: connecting to a local segment; use the local segment directly")
)

// Cluster is the directory of nodes. In the real system this knowledge is
// distributed; the model centralizes it, which changes no timing (lookup
// is control-plane).
type Cluster struct {
	nodes map[NodeID]*Node
}

// NewCluster creates an empty cluster directory.
func NewCluster() *Cluster {
	return &Cluster{nodes: make(map[NodeID]*Node)}
}

// AddNode registers a host with its port and adapter.
func (c *Cluster) AddNode(id NodeID, host *pcie.HostPort, adapter *ntb.ClusterAdapter) (*Node, error) {
	if _, ok := c.nodes[id]; ok {
		return nil, fmt.Errorf("sisci: node %d already registered", id)
	}
	n := &Node{
		ID:       id,
		cluster:  c,
		host:     host,
		adapter:  adapter,
		segments: make(map[SegmentID]*Segment),
	}
	c.nodes[id] = n
	return n, nil
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) (*Node, error) {
	n, ok := c.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchNode, id)
	}
	return n, nil
}

// Node is one host's SISCI endpoint.
type Node struct {
	ID       NodeID
	cluster  *Cluster
	host     *pcie.HostPort
	adapter  *ntb.ClusterAdapter
	segments map[SegmentID]*Segment
}

// Host returns the node's CPU/DRAM port.
func (n *Node) Host() *pcie.HostPort { return n.host }

// ClusterNode looks up another node in the same cluster.
func (n *Node) ClusterNode(id NodeID) (*Node, error) { return n.cluster.Node(id) }

// Adapter returns the node's cluster NTB adapter.
func (n *Node) Adapter() *ntb.ClusterAdapter { return n.adapter }

// Segment is a contiguous region of physical memory on its owning node.
type Segment struct {
	Owner NodeID
	ID    SegmentID
	// Addr is the physical address in the owner's domain.
	Addr pcie.Addr
	Size uint64

	node      *Node
	available bool
}

// CreateSegment allocates a local segment of size bytes, page-aligned.
func (n *Node) CreateSegment(id SegmentID, size uint64) (*Segment, error) {
	if _, ok := n.segments[id]; ok {
		return nil, fmt.Errorf("%w: node %d segment %d", ErrSegmentExists, n.ID, id)
	}
	addr, err := n.host.Alloc(size, 4096)
	if err != nil {
		return nil, err
	}
	s := &Segment{Owner: n.ID, ID: id, Addr: addr, Size: size, node: n}
	n.segments[id] = s
	return s, nil
}

// RegisterSegment wraps an existing physical range (for example a device
// BAR exported by SmartIO) as a segment without allocating memory.
func (n *Node) RegisterSegment(id SegmentID, addr pcie.Addr, size uint64) (*Segment, error) {
	if _, ok := n.segments[id]; ok {
		return nil, fmt.Errorf("%w: node %d segment %d", ErrSegmentExists, n.ID, id)
	}
	s := &Segment{Owner: n.ID, ID: id, Addr: addr, Size: size, node: n}
	n.segments[id] = s
	return s, nil
}

// RemoveSegment frees a segment. Segments created with CreateSegment have
// their memory released; registered ranges are only forgotten.
func (n *Node) RemoveSegment(id SegmentID) error {
	s, ok := n.segments[id]
	if !ok {
		return fmt.Errorf("%w: node %d segment %d", ErrNoSuchSegment, n.ID, id)
	}
	delete(n.segments, id)
	if n.host.Mem().Contains(s.Addr, 1) {
		// Best effort: registered BAR ranges are outside DRAM and skip this.
		_ = n.host.Free(s.Addr)
	}
	return nil
}

// SetAvailable publishes the segment so remote nodes may connect.
func (s *Segment) SetAvailable() { s.available = true }

// LocalSegment returns a local segment by ID.
func (n *Node) LocalSegment(id SegmentID) (*Segment, error) {
	s, ok := n.segments[id]
	if !ok {
		return nil, fmt.Errorf("%w: node %d segment %d", ErrNoSuchSegment, n.ID, id)
	}
	return s, nil
}

// RemoteSegment is a connection from one node to a segment on another.
type RemoteSegment struct {
	Seg    *Segment
	via    *Node
	addr   pcie.Addr // local window address once mapped
	mapped bool
}

// ConnectSegment connects this node to segment (owner, id). The segment
// must have been made available.
func (n *Node) ConnectSegment(owner NodeID, id SegmentID) (*RemoteSegment, error) {
	if owner == n.ID {
		return nil, ErrSelfConnect
	}
	on, err := n.cluster.Node(owner)
	if err != nil {
		return nil, err
	}
	s, ok := on.segments[id]
	if !ok {
		return nil, fmt.Errorf("%w: node %d segment %d", ErrNoSuchSegment, owner, id)
	}
	if !s.available {
		return nil, fmt.Errorf("%w: node %d segment %d", ErrNotAvailable, owner, id)
	}
	return &RemoteSegment{Seg: s, via: n}, nil
}

// Map programs an NTB window for the remote segment and returns the local
// address through which the CPU can access it.
func (r *RemoteSegment) Map() (pcie.Addr, error) {
	if r.mapped {
		return 0, ErrAlreadyMapped
	}
	owner := r.Seg.node
	addr, err := r.via.adapter.MapAuto(r.Seg.Size, 4096,
		owner.host.Domain(), owner.adapter.Node(), r.Seg.Addr)
	if err != nil {
		return 0, err
	}
	r.addr = addr
	r.mapped = true
	return addr, nil
}

// Addr returns the mapped local address.
func (r *RemoteSegment) Addr() (pcie.Addr, error) {
	if !r.mapped {
		return 0, ErrNotMapped
	}
	return r.addr, nil
}

// Unmap releases the NTB window.
func (r *RemoteSegment) Unmap() error {
	if !r.mapped {
		return ErrNotMapped
	}
	r.mapped = false
	return r.via.adapter.UnmapAddr(r.addr)
}
