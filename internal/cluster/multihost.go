package cluster

import (
	"fmt"
	"sort"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/hostdriver"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// MultiHostConfig parameterizes a fairness-oriented sharing run: one
// single-function controller on host 0 (with the manager), N client
// hosts each attaching a distributed-driver client and running the same
// workload shape concurrently.
type MultiHostConfig struct {
	// Hosts is the number of client hosts (1..31); the cluster has
	// Hosts+1 with the device and manager on host 0.
	Hosts int
	// QueueDepth is each client's fio queue depth (default 4).
	QueueDepth int
	// IOsPerHost is the measured I/O count per client (default 200).
	IOsPerHost int
	// RangeBlocks is each client's LBA working-set size (default 2^14).
	RangeBlocks uint64
	// Seed offsets each host's workload stream (host i uses Seed+i).
	Seed int64
	// Op is the workload mix (zero value fio.RandRead; fairness runs
	// usually want fio.RandRW so reads and writes both attribute).
	Op fio.Op
	// NVMe configures the shared controller.
	NVMe NVMeConfig
	// Cluster overrides fabric parameters (Hosts is set from the field
	// above).
	Cluster Config
	// Client tunes each client (queue depth and partition size get
	// workable defaults when zero).
	Client core.ClientParams
	// LocalBaseline adds one extra host running the stock hostdriver
	// against its own private controller, with the same workload shape.
	// It shares nothing (own device, own PCIe domain) — it exists so a
	// live telemetry endpoint shows every driver layer side by side and
	// the fairness table can contrast local-baseline latency with the
	// shared-device hosts'. The baseline is neither traced nor overlaid.
	LocalBaseline bool
	// Registry, when non-nil, receives the full labeled metric wiring:
	// kernel, per-host fabric, controller aggregates, per-queue
	// attribution, per-client counters and host.* fairness inputs.
	Registry *trace.Registry
	// Pipeline, when non-nil, is attached to the cluster's kernel for
	// the run (sampling Registry on virtual time) and flushed with a
	// final sample after the run drains.
	Pipeline *telemetry.Pipeline
	// Overlay scales calibrated latency knobs for counterfactual
	// experiments (see LatencyOverlay); nil is the identity. The rig
	// applies it to the fields above.
	Overlay LatencyOverlay
	// Tracer, when non-nil, is threaded through the controller and every
	// client so each I/O leaves a per-hop span (clients own distinct
	// queue pairs, so spans never collide). Traced runs must leave
	// virtual-time results unchanged.
	Tracer *trace.Tracer
}

func (cfg MultiHostConfig) withDefaults() MultiHostConfig {
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4
	}
	if cfg.IOsPerHost == 0 {
		cfg.IOsPerHost = 200
	}
	if cfg.RangeBlocks == 0 {
		cfg.RangeBlocks = 1 << 14
	}
	if cfg.Client.QueueDepth == 0 {
		cfg.Client.QueueDepth = cfg.QueueDepth + 1
	}
	if cfg.Client.PartitionBytes == 0 {
		cfg.Client.PartitionBytes = 16 << 10
	}
	return cfg
}

// HostRun is one client host's outcome.
type HostRun struct {
	Host int
	Res  *fio.Result
	Err  error
}

// MultiHostResult aggregates a RunMultiHost outcome.
type MultiHostResult struct {
	// PerHost in ascending host order.
	PerHost []HostRun
	// ElapsedNs is virtual time from manager-ready to last client done.
	ElapsedNs sim.Duration
	// TotalIOs across all clients (including errored ones' attempts).
	TotalIOs int
	// Fairness is the full-window report (nil without a Pipeline).
	Fairness *telemetry.FairnessReport
	// Utils maps attribution resource names to measured busy-fraction
	// utilization over the run (see UtilWindow).
	Utils map[string]float64
}

// AggIOPS is the aggregate virtual-time IOPS across all hosts.
func (r *MultiHostResult) AggIOPS() float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return float64(r.TotalIOs) / (float64(r.ElapsedNs) / float64(sim.Second))
}

// RunMultiHost executes the multihost sharing scenario: manager on the
// device host, one distributed-driver client per remote host, all
// running fio concurrently against the one controller. With a Registry
// it wires every layer's labeled metrics (per-queue attribution
// included, since each client owns exactly one I/O queue pair); with a
// Pipeline it samples them on virtual time, making per-host fairness
// and tail-latency series available live and after the run.
func RunMultiHost(cfg MultiHostConfig) (*MultiHostResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts < 1 || cfg.Hosts > 31 {
		return nil, fmt.Errorf("cluster: multihost needs 1..31 client hosts, got %d", cfg.Hosts)
	}
	cc := cfg.Cluster
	cc.Hosts = cfg.Hosts + 1
	if cfg.LocalBaseline {
		cc.Hosts++
		if cc.MemBytes == 0 {
			// The stock driver's default calibration (QD 256, 32-page
			// PRP pools) needs more DRAM than the lean clients do.
			cc.MemBytes = 64 << 20
		}
	}
	r, err := NewRig(RigConfig{Cluster: cc, NVMe: []NVMeConfig{cfg.NVMe},
		Registry: cfg.Registry, Pipeline: cfg.Pipeline,
		tracer: cfg.Tracer, overlay: cfg.Overlay})
	if err != nil {
		return nil, err
	}
	ctrl := r.Ctrls[0]

	res := &MultiHostResult{}
	r.Start("manager", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}
		start := p.Now()
		done := make([]*sim.Event, 0, cfg.Hosts)
		for i := 1; i <= cfg.Hosts; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("host%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				cl, err := r.Client(cp, host, mgr, fmt.Sprintf("dnvme%d", host), cfg.Client)
				if err != nil {
					res.PerHost = append(res.PerHost, HostRun{Host: host, Err: err})
					return
				}
				if cfg.Registry != nil {
					WireClientMetrics(cfg.Registry, cl, host)
					WireControllerQueueMetrics(cfg.Registry, ctrl, cl.QID(), host)
				}
				q := block.NewQueue(r.K, cl, block.QueueParams{})
				op := cfg.Op
				fr, err := fio.Run(cp, q, fio.JobSpec{
					Name: fmt.Sprintf("host%d", host), Op: op,
					QueueDepth: cfg.QueueDepth, MaxIOs: cfg.IOsPerHost,
					RangeBlocks: cfg.RangeBlocks, Seed: cfg.Seed + int64(host),
				})
				res.PerHost = append(res.PerHost, HostRun{Host: host, Res: fr, Err: err})
			})
		}
		p.WaitAll(done...)
		res.ElapsedNs = p.Now() - start
		return nil
	})
	// The baseline controller attaches after the manager process is
	// spawned: same-timestamp event order depends on it.
	if cfg.LocalBaseline {
		base := cfg.Hosts + 1
		bctrl, err := r.AttachNVMe(base, cfg.NVMe)
		if err != nil {
			return nil, err
		}
		r.Go("baseline", func(p *sim.Proc) {
			drv, err := hostdriver.New(p, "nvme-local", r.Hosts[base].Port,
				NVMeBARBase, bctrl, hostdriver.Params{})
			if err != nil {
				res.PerHost = append(res.PerHost, HostRun{Host: base, Err: err})
				return
			}
			if cfg.Registry != nil {
				WireHostDriverMetrics(cfg.Registry, drv, base)
				for _, qid := range bctrl.ActiveIOQueues() {
					WireControllerQueueMetrics(cfg.Registry, bctrl, qid, base)
				}
			}
			q := block.NewQueue(r.K, drv, block.QueueParams{})
			if cfg.Registry != nil {
				// The stock driver has no client-side completion hook, so
				// the baseline's host.latency fairness input comes from the
				// block layer (submit-to-completion, same end-to-end span).
				q.SetLatencyHist(cfg.Registry.Histogram("host.latency", trace.L("host", base)).Hist())
			}
			fr, err := fio.Run(p, q, fio.JobSpec{
				Name: "baseline", Op: cfg.Op,
				QueueDepth: cfg.QueueDepth, MaxIOs: cfg.IOsPerHost,
				RangeBlocks: cfg.RangeBlocks, Seed: cfg.Seed + int64(base),
			})
			res.PerHost = append(res.PerHost, HostRun{Host: base, Res: fr, Err: err})
		})
	}
	if err := r.Wait(); err != nil {
		return nil, err
	}
	if cfg.Pipeline != nil {
		f := cfg.Pipeline.Fairness(0)
		res.Fairness = &f
	}
	sort.Slice(res.PerHost, func(i, j int) bool { return res.PerHost[i].Host < res.PerHost[j].Host })
	for _, hr := range res.PerHost {
		if hr.Res != nil {
			res.TotalIOs += hr.Res.IOs + hr.Res.Errors
		}
	}
	res.Utils = UtilWindow{}.utils(ctrl, r.Hosts, int64(r.K.Now()))
	return res, nil
}
