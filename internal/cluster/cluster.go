// Package cluster assembles simulated PCIe clusters: N hosts, each with a
// CPU/DRAM port and an NTB cluster adapter (MXH932-class) behind its own
// switch chip, interconnected through a cluster switch (MXS924-class),
// with NVMe controllers attached to chosen hosts. It provides the
// topologies of the paper's Figure 9 scenarios to drivers, examples and
// benchmarks.
package cluster

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/ntb"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/sisci"
)

// Default address map constants for every host domain.
const (
	// DRAMBase is where each host's system memory starts.
	DRAMBase = 0x0010_0000
	// AdapterBARBase is each host's NTB adapter window region.
	AdapterBARBase = 0x8000_0000
	// AdapterBARSize is the adapter aperture (windows carved from it).
	AdapterBARSize = 0x1000_0000
	// NVMeBARBase is where an attached NVMe controller's BAR0 sits.
	NVMeBARBase = 0xF000_0000
	// NVMeBARSize covers registers plus the doorbell region.
	NVMeBARSize = 0x8000
)

// DefaultCrossNs is the calibrated cluster-switch+LUT crossing cost per
// direction (Config.CrossNs zero value) — the paper's "each switch chip
// adds 100–150 ns" figure.
const DefaultCrossNs int64 = 125

// Config parameterizes a cluster build.
type Config struct {
	// Hosts is the number of hosts (≥ 1).
	Hosts int
	// MemBytes is per-host DRAM (default 64 MiB).
	MemBytes uint64
	// Link is the fabric cost model (defaults applied per pcie).
	Link pcie.LinkParams
	// CPU is the CPU access cost model.
	CPU pcie.CPUParams
	// CrossNs is the cluster-switch+LUT crossing cost per direction.
	// Combined with the adapter switch chips on both sides this yields
	// the paper's "each switch chip adds 100–150 ns" remote penalty.
	CrossNs int64
	// AdapterWindows bounds each adapter's LUT (default ntb default).
	AdapterWindows int
}

func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 2
	}
	if c.MemBytes == 0 {
		c.MemBytes = 64 << 20
	}
	if c.CrossNs == 0 {
		c.CrossNs = DefaultCrossNs // the cluster switch chip traversal
	}
	return c
}

// Host is one assembled host.
type Host struct {
	Index int
	Dom   *pcie.Domain
	// RC is the root complex node; AdapterSw the adapter's on-board
	// switch chip; AdapterEP the NTB endpoint.
	RC, AdapterSw, AdapterEP pcie.NodeID
	Port                     *pcie.HostPort
	Adapter                  *ntb.ClusterAdapter
	Node                     *sisci.Node
}

// Cluster is an assembled simulation topology.
type Cluster struct {
	K     *sim.Kernel
	Dir   *sisci.Cluster
	Hosts []*Host
	cfg   Config
}

// New builds a cluster per cfg on a fresh kernel.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	k := sim.NewKernel()
	c := &Cluster{K: k, Dir: sisci.NewCluster(), cfg: cfg}
	for i := 0; i < cfg.Hosts; i++ {
		h, err := c.addHost(i)
		if err != nil {
			return nil, err
		}
		c.Hosts = append(c.Hosts, h)
	}
	return c, nil
}

func (c *Cluster) addHost(i int) (*Host, error) {
	name := fmt.Sprintf("host%d", i)
	d := pcie.NewDomain(name, c.K, c.cfg.Link)
	rc := d.AddNode(pcie.RootComplex, "rc")
	sw := d.AddNode(pcie.Switch, "mxh932-sw")
	nep := d.AddNode(pcie.Endpoint, "mxh932-ntb")
	if err := d.Connect(rc, sw); err != nil {
		return nil, err
	}
	if err := d.Connect(sw, nep); err != nil {
		return nil, err
	}
	mem := memory.New(DRAMBase, c.cfg.MemBytes)
	port, err := pcie.NewHostPort(d, rc, mem, c.cfg.CPU)
	if err != nil {
		return nil, err
	}
	adapter, err := ntb.NewClusterAdapter(ntb.AdapterConfig{
		Name:       name + "-adapter",
		Local:      d,
		Node:       nep,
		BAR:        pcie.Range{Base: AdapterBARBase, Size: AdapterBARSize},
		CrossNs:    c.cfg.CrossNs,
		MaxWindows: c.cfg.AdapterWindows,
	})
	if err != nil {
		return nil, err
	}
	node, err := c.Dir.AddNode(sisci.NodeID(i), port, adapter)
	if err != nil {
		return nil, err
	}
	return &Host{
		Index: i, Dom: d,
		RC: rc, AdapterSw: sw, AdapterEP: nep,
		Port: port, Adapter: adapter, Node: node,
	}, nil
}

// NVMeConfig parameterizes an attached controller.
type NVMeConfig struct {
	// BlockSize and Blocks define the namespace (defaults 512 B, 4 GiB).
	BlockSize int
	Blocks    uint64
	Flash     nvme.FlashParams
	Ctrl      nvme.Params
	Seed      int64
	// ExtraSwitches inserts switch chips between the root complex and the
	// device, for hop-scaling experiments.
	ExtraSwitches int
}

// AttachNVMe plugs a controller into host hostIdx and returns it.
func (c *Cluster) AttachNVMe(hostIdx int, cfg NVMeConfig) (*nvme.Controller, error) {
	if hostIdx < 0 || hostIdx >= len(c.Hosts) {
		return nil, fmt.Errorf("cluster: no host %d", hostIdx)
	}
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 512
	}
	if cfg.Blocks == 0 {
		cfg.Blocks = (4 << 30) / uint64(cfg.BlockSize)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5EED
	}
	h := c.Hosts[hostIdx]
	prev := h.RC
	for i := 0; i < cfg.ExtraSwitches; i++ {
		sw := h.Dom.AddNode(pcie.Switch, fmt.Sprintf("riser-sw%d", i))
		if err := h.Dom.Connect(prev, sw); err != nil {
			return nil, err
		}
		prev = sw
	}
	ep := h.Dom.AddNode(pcie.Endpoint, "nvme")
	if err := h.Dom.Connect(prev, ep); err != nil {
		return nil, err
	}
	med := nvme.NewFlashMedium(c.K, cfg.BlockSize, cfg.Blocks, cfg.Flash, cfg.Seed)
	ctrl, err := nvme.New(fmt.Sprintf("nvme@host%d", hostIdx), h.Dom, ep,
		pcie.Range{Base: NVMeBARBase, Size: NVMeBARSize}, med, cfg.Ctrl)
	if err != nil {
		return nil, err
	}
	return ctrl, nil
}

// AttachNIC plugs an RDMA NIC named name into the host's root complex.
func (h *Host) AttachNIC(name string) (*rdma.NIC, error) {
	ep := h.Dom.AddNode(pcie.Endpoint, name)
	if err := h.Dom.Connect(h.RC, ep); err != nil {
		return nil, err
	}
	return rdma.NewNIC(name, h.Port, ep, rdma.Params{}), nil
}

// Run drains the simulation and unwinds remaining processes.
func (c *Cluster) Run() { c.K.RunAll(); c.K.Shutdown() }

// Go spawns fn as a simulated process on the cluster kernel.
func (c *Cluster) Go(name string, fn func(p *sim.Proc)) *sim.Proc {
	return c.K.Spawn(name, fn)
}
