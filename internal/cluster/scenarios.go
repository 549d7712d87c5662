package cluster

import (
	"fmt"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/hostdriver"
	"repro/internal/nvme"
	"repro/internal/nvmeof"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Scenario names the four benchmark configurations of the paper's
// Figure 9/10.
type Scenario string

// The four scenarios.
const (
	// LinuxLocal: stock Linux NVMe driver on the device's own host
	// (Fig. 9a, local baseline).
	LinuxLocal Scenario = "linux-local"
	// NVMeoFRemote: stock initiator on a second host, SPDK-style target
	// on the device host, RDMA transport (Fig. 9a, remote).
	NVMeoFRemote Scenario = "nvmeof-remote"
	// OursLocal: the distributed driver's client on the device host
	// (Fig. 9b, local baseline).
	OursLocal Scenario = "ours-local"
	// OursRemote: the distributed driver's client on a second host over
	// the NTB cluster (Fig. 9b, remote).
	OursRemote Scenario = "ours-remote"
)

// Scenarios lists all four in the paper's presentation order.
func Scenarios() []Scenario {
	return []Scenario{LinuxLocal, NVMeoFRemote, OursLocal, OursRemote}
}

// ScenarioConfig parameterizes a scenario build.
type ScenarioConfig struct {
	// NVMe configures the shared controller and medium.
	NVMe NVMeConfig
	// Cluster overrides fabric parameters (Hosts is set per scenario).
	Cluster Config
	// Client tunes the distributed driver's client (ours-* scenarios).
	Client core.ClientParams
	// Manager tunes the distributed driver's manager (ours-* scenarios).
	Manager core.ManagerParams
	// HostDriver tunes the stock driver (linux-local).
	HostDriver hostdriver.Params
	// Target and Initiator tune the NVMe-oF pair (nvmeof-remote).
	Target    nvmeof.TargetParams
	Initiator nvmeof.InitiatorParams
	// BlockQueue tunes the block layer shared by every scenario.
	BlockQueue block.QueueParams
	// Overlay scales calibrated latency knobs for counterfactual
	// experiments (see LatencyOverlay); nil is the identity. The rig
	// applies it over the fields above with defaults materialized, so an
	// overlaid scenario differs from the baseline only in the scaled
	// knobs.
	Overlay LatencyOverlay
	// Tracer, when non-nil, is threaded through the controller and the
	// scenario's driver stack so every I/O leaves a per-hop span. Traced
	// runs must produce identical virtual-time results to untraced ones.
	Tracer *trace.Tracer
}

// Env is an assembled scenario: a block queue backed by the scenario's
// driver stack, ready for workloads.
type Env struct {
	Scenario Scenario
	Cluster  *Cluster
	Ctrl     *nvme.Controller
	Queue    *block.Queue
	// Client is the distributed-driver client for the ours-* scenarios
	// (nil otherwise); exposes phase instrumentation.
	Client *core.Client
	// Driver is the stock local driver (linux-local only).
	Driver *hostdriver.Driver
	// Target and Initiator are the NVMe-oF pair (nvmeof-remote only).
	Target    *nvmeof.Target
	Initiator *nvmeof.Initiator
}

// Build creates the cluster for scenario s (but no drivers yet).
func Build(s Scenario, cfg ScenarioConfig) (*Cluster, *nvme.Controller, error) {
	r, err := buildRig(s, cfg)
	if err != nil {
		return nil, nil, err
	}
	return r.Cluster, r.Ctrls[0], nil
}

// buildRig is Build keeping the rig, whose registered device the ours-*
// scenarios bring up.
func buildRig(s Scenario, cfg ScenarioConfig) (*Rig, error) {
	cc := cfg.Cluster
	switch s {
	case LinuxLocal, OursLocal:
		cc.Hosts = 1
	case NVMeoFRemote, OursRemote:
		cc.Hosts = 2
	default:
		return nil, fmt.Errorf("cluster: unknown scenario %q", s)
	}
	if cc.MemBytes == 0 {
		// The stock driver's default calibration (QD 256, 32-page PRP
		// pools) needs more DRAM than the rig's multi-host default.
		cc.MemBytes = 64 << 20
	}
	if cc.AdapterWindows == 0 {
		cc.AdapterWindows = 256
	}
	return NewRig(RigConfig{Cluster: cc, NVMe: []NVMeConfig{cfg.NVMe},
		tracer: cfg.Tracer, overlay: cfg.Overlay})
}

// bringUp constructs the scenario's driver stack inside process p and
// returns the block queue. The rig's overlay and tracer reach the stock
// driver and the NVMe-oF initiator here, and the client through
// Rig.Client.
func bringUp(p *sim.Proc, s Scenario, r *Rig, cfg ScenarioConfig) (*Env, error) {
	c, ctrl := r.Cluster, r.Ctrls[0]
	env := &Env{Scenario: s, Cluster: c, Ctrl: ctrl}
	switch s {
	case LinuxLocal:
		hp := r.overlay.applyHostDriver(cfg.HostDriver)
		if r.tracer != nil {
			hp.Tracer = r.tracer
		}
		drv, err := hostdriver.New(p, "nvme0n1", c.Hosts[0].Port, NVMeBARBase, ctrl, hp)
		if err != nil {
			return nil, err
		}
		env.Driver = drv
		env.Queue = block.NewQueue(c.K, drv, cfg.BlockQueue)
		return env, nil

	case OursLocal, OursRemote:
		mgr, err := r.Manager(p, 0, cfg.Manager)
		if err != nil {
			return nil, err
		}
		clientHost := 0
		if s == OursRemote {
			clientHost = 1
		}
		cl, err := r.Client(p, clientHost, mgr, "dnvme0", cfg.Client)
		if err != nil {
			return nil, err
		}
		env.Client = cl
		env.Queue = block.NewQueue(c.K, cl, cfg.BlockQueue)
		return env, nil

	case NVMeoFRemote:
		nicT, err := c.Hosts[0].AttachNIC("cx5-target")
		if err != nil {
			return nil, err
		}
		nicI, err := c.Hosts[1].AttachNIC("cx5-init")
		if err != nil {
			return nil, err
		}
		qpT, qpI := nicT.NewQP(), nicI.NewQP()
		rdma.Connect(qpT, qpI)
		tgt, err := nvmeof.NewTarget(p, c.Hosts[0].Port, NVMeBARBase, cfg.Target)
		if err != nil {
			return nil, err
		}
		if err := tgt.Serve(p, qpT); err != nil {
			return nil, err
		}
		ip := cfg.Initiator
		if r.tracer != nil {
			ip.Tracer = r.tracer
		}
		ini, err := nvmeof.NewInitiator(p, "nvme1n1", c.Hosts[1].Port, qpI, ip)
		if err != nil {
			return nil, err
		}
		env.Target, env.Initiator = tgt, ini
		env.Queue = block.NewQueue(c.K, ini, cfg.BlockQueue)
		return env, nil
	}
	return nil, fmt.Errorf("cluster: unknown scenario %q", s)
}

// RunWorkload builds scenario s and executes fn (from a simulation
// process) against its block queue, then drains the simulation. It
// returns a *DrainedError if the kernel drains before fn returns.
func RunWorkload(s Scenario, cfg ScenarioConfig, fn func(p *sim.Proc, env *Env) error) error {
	r, err := buildRig(s, cfg)
	if err != nil {
		return err
	}
	return r.Run(string(s), func(p *sim.Proc) error {
		env, err := bringUp(p, s, r, cfg)
		if err != nil {
			return err
		}
		return fn(p, env)
	})
}

// RunJob builds scenario s and runs one fio job on it.
func RunJob(s Scenario, cfg ScenarioConfig, spec fio.JobSpec) (*fio.Result, error) {
	res, _, err := RunJobStats(s, cfg, spec)
	return res, err
}

// SimStats summarizes the kernel work behind a completed scenario run,
// for wall-clock throughput metrics (events/sec, ns per simulated I/O).
type SimStats struct {
	// Events is the number of kernel events dispatched.
	Events uint64
	// VirtualNs is the final virtual clock value.
	VirtualNs sim.Time
}

// RunJobStats is RunJob plus kernel statistics from the run.
func RunJobStats(s Scenario, cfg ScenarioConfig, spec fio.JobSpec) (*fio.Result, SimStats, error) {
	var res *fio.Result
	var k *sim.Kernel
	err := RunWorkload(s, cfg, func(p *sim.Proc, env *Env) error {
		k = p.Kernel()
		var err error
		res, err = fio.Run(p, env.Queue, spec)
		return err
	})
	if k == nil {
		return res, SimStats{}, err
	}
	return res, SimStats{Events: k.Executed(), VirtualNs: k.Now()}, err
}
