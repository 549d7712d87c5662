package cluster

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/sisci"
	"repro/internal/smartio"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// RigConfig parameterizes NewRig.
type RigConfig struct {
	// Cluster is the topology. Zero MemBytes and AdapterWindows get the
	// multi-host defaults: 16 MiB of DRAM and 1024 adapter windows.
	Cluster Config
	// NVMe attaches one controller per entry, entry i on host i.
	NVMe []NVMeConfig
	// Registry, when non-nil, receives the kernel, per-host and
	// controller-0 metrics. nvme.ctrl.* is unlabeled, so only one
	// controller can own it.
	Registry *trace.Registry
	// Pipeline, when non-nil, samples on the rig's kernel and takes a
	// final sample once the run drains.
	Pipeline *telemetry.Pipeline

	// tracer and overlay are how a scenario's Tracer and Overlay fields
	// reach the run. NewRig applies the overlay to Cluster and every NVMe
	// entry and the tracer to every controller; Client applies both to
	// every client, and a scenario reads them for the drivers it builds
	// itself. Two limits:
	//   - One tracer cannot serve two controllers. Spans key on (qid,
	//     cid), and two controllers each grant their first client QID 1,
	//     so one host's clients on two devices (the volume scenario's
	//     path clients) would record colliding spans.
	//   - A controller attached after NewRig and a driver built without
	//     Client are neither traced nor overlaid: the LocalBaseline host
	//     of RunMultiHost is outside both.
	tracer  *trace.Tracer
	overlay LatencyOverlay
}

// Rig is the bring-up every shared-device run starts with (§IV–V): each
// controller's BAR is registered with one SmartIO service, a manager on
// the device host initializes the controller (Manager), and clients
// then attach through that manager for their own queue pairs.
type Rig struct {
	*Cluster
	// Ctrls[i] is attached to host i; Devs[i] is its registration.
	Ctrls []*nvme.Controller
	Devs  []*smartio.Device
	Svc   *smartio.Service

	pipe     *telemetry.Pipeline
	tracer   *trace.Tracer
	overlay  LatencyOverlay
	name     string
	err      error
	finished bool
}

// NewRig builds the cluster, attaches and registers the controllers and
// wires the observers.
func NewRig(cfg RigConfig) (*Rig, error) {
	if len(cfg.NVMe) == 0 {
		return nil, errors.New("cluster: a rig needs at least one controller")
	}
	cc := cfg.overlay.applyCluster(cfg.Cluster)
	if cc.MemBytes == 0 {
		cc.MemBytes = 16 << 20
	}
	if cc.AdapterWindows == 0 {
		cc.AdapterWindows = 1024
	}
	c, err := New(cc)
	if err != nil {
		return nil, err
	}
	r := &Rig{Cluster: c, Svc: smartio.NewService(c.Dir), pipe: cfg.Pipeline,
		tracer: cfg.tracer, overlay: cfg.overlay}
	for i, nc := range cfg.NVMe {
		ctrl, err := c.AttachNVMe(i, cfg.overlay.applyNVMe(nc))
		if err != nil {
			return nil, err
		}
		ctrl.SetTracer(cfg.tracer)
		dev, err := r.Svc.Register(sisci.NodeID(i), fmt.Sprintf("nvme%d", i),
			pcie.Range{Base: NVMeBARBase, Size: NVMeBARSize})
		if err != nil {
			return nil, err
		}
		r.Ctrls = append(r.Ctrls, ctrl)
		r.Devs = append(r.Devs, dev)
	}
	if reg := cfg.Registry; reg != nil {
		WireKernelMetrics(reg, c.K)
		for _, h := range c.Hosts {
			WireHostMetrics(reg, h)
		}
		WireControllerMetrics(reg, r.Ctrls[0])
	}
	if cfg.Pipeline != nil {
		cfg.Pipeline.Attach(c.K)
	}
	return r, nil
}

// Manager starts the manager of Devs[dev] on the device's own host.
func (r *Rig) Manager(p *sim.Proc, dev int, params core.ManagerParams) (*core.Manager, error) {
	d := r.Devs[dev]
	return core.NewManager(p, r.Svc, d.ID, r.Hosts[d.Host].Node, params)
}

// Client attaches a distributed-driver client named name on host
// through mgr, with the rig's overlay and tracer applied to params.
func (r *Rig) Client(p *sim.Proc, host int, mgr *core.Manager, name string, params core.ClientParams) (*core.Client, error) {
	params = r.overlay.applyClient(params)
	if r.tracer != nil {
		params.Tracer = r.tracer
	}
	return core.NewClient(p, name, r.Svc, r.Hosts[host].Node, mgr, params)
}

// Run spawns body as process name and drains the simulation: Start,
// then Wait.
func (r *Rig) Run(name string, body func(p *sim.Proc) error) error {
	r.Start(name, body)
	return r.Wait()
}

// Start spawns body as process name without running the kernel, so a
// caller can spawn further processes after it. Call it once per rig.
func (r *Rig) Start(name string, body func(p *sim.Proc) error) {
	r.name = name
	r.Go(name, func(p *sim.Proc) {
		r.err = body(p)
		r.finished = true
	})
}

// Wait drains the simulation and unwinds what is left. It returns the
// body's error, or a *DrainedError if the kernel ran out of events
// before the body returned. With a pipeline it then takes the final
// sample, flushing the tail below one interval (and anything at the
// final instant: ticks fire before same-time completions).
func (r *Rig) Wait() error {
	r.K.RunAll()
	if !r.finished {
		r.err = &DrainedError{Scenario: Scenario(r.name), AtNs: r.K.Now()}
	}
	r.K.Shutdown()
	if r.pipe != nil {
		r.pipe.Sample(r.K.Now())
	}
	return r.err
}

// DrainedError reports that a simulation ran out of events before its
// workload returned: every process blocked with nothing left to wake
// it, so the workload can never finish. It is the signature of a lost
// wakeup or a deadlock in the modeled stack.
type DrainedError struct {
	// Scenario names the run: the scenario for RunWorkload, otherwise
	// the process name given to Rig.Run.
	Scenario Scenario
	// AtNs is the virtual time at which the kernel drained.
	AtNs sim.Time
}

func (e *DrainedError) Error() string {
	return fmt.Sprintf("cluster: %s: simulation drained at %d ns with the workload unfinished", e.Scenario, e.AtNs)
}
