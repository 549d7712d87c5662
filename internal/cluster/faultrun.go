package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// The fault scenario's fixed crash and the lease/retry knobs that govern
// recovery from it.
const (
	// faultCrashHost is the host killed mid-run. Every fault run crashes
	// one host.
	faultCrashHost = 2
	// faultCrashAtNs is the crash time relative to client start.
	faultCrashAtNs = 500 * sim.Microsecond
	// faultHeartbeatNs is the client lease-refresh period.
	faultHeartbeatNs = 50 * sim.Microsecond
	// faultLeaseNs is the manager's liveness lease.
	faultLeaseNs = 300 * sim.Microsecond
	// faultIOTimeoutNs is the client command timeout.
	faultIOTimeoutNs = 250 * sim.Microsecond
	// faultMaxRetries bounds transient-failure retries.
	faultMaxRetries = 4
	// faultRangeBlocks bounds the LBA range touched.
	faultRangeBlocks = 1 << 14
)

// FaultRunConfig parameterizes the fault/recovery scenario: the
// multihost sharing topology plus a deterministic fault plan (one host
// crash, optional fabric noise and a manager restart).
type FaultRunConfig struct {
	// Hosts is the number of client hosts (default 4).
	Hosts int
	// QueueDepth is the per-host workload queue depth (default 4).
	QueueDepth int
	// IOsPerHost is each survivor's full I/O budget (default 400).
	IOsPerHost int
	// Seed drives the workload RNGs and the fault plane's random plan.
	Seed int64

	// ManagerRestart, when > 0, takes the manager down for that many ns
	// at ManagerRestartAtNs (relative to client start).
	ManagerRestart     int64
	ManagerRestartAtNs int64

	// Noise adds seed-derived fabric faults (link stalls, dropped
	// doorbells, dropped CQEs) on top of the explicit crash/restart.
	Noise fault.PlanSpec

	Registry *trace.Registry
	Pipeline *telemetry.Pipeline
}

func (cfg FaultRunConfig) withDefaults() FaultRunConfig {
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4
	}
	if cfg.IOsPerHost == 0 {
		cfg.IOsPerHost = 400
	}
	return cfg
}

// FaultHostRun is one client host's outcome under faults.
type FaultHostRun struct {
	Host            int    `json:"host"`
	QID             uint16 `json:"qid"`
	IOs             int    `json:"ios"`
	Errors          int    `json:"errors"`
	Timeouts        uint64 `json:"timeouts"`
	Retries         uint64 `json:"retries"`
	Aborts          uint64 `json:"aborts"`
	LateCompletions uint64 `json:"late_completions"`
	Crashed         bool   `json:"crashed"`
	Err             string `json:"err,omitempty"`
}

// FaultRunResult aggregates a RunFaultScenario outcome.
type FaultRunResult struct {
	// PerHost in ascending host order.
	PerHost []FaultHostRun `json:"per_host"`
	// Reclaims is the manager's reclamation log.
	Reclaims []core.ReclaimEvent `json:"reclaims"`
	// ElapsedNs is virtual time from client start to scenario end.
	ElapsedNs int64 `json:"elapsed_ns"`
	// ReusedQID is the crashed host's QID as re-granted to the probe
	// client after reclamation; ReuseOK reports the probe's round trip.
	ReusedQID uint16 `json:"reused_qid"`
	ReuseOK   bool   `json:"reuse_ok"`
	// JainBefore/JainAfter are survivor-throughput fairness indices over
	// the windows before and after the crash (0 without a Pipeline).
	JainBefore float64 `json:"jain_before"`
	JainAfter  float64 `json:"jain_after"`
	// Fault tallies the plane's injections; Plan echoes the schedule.
	Fault fault.Counters `json:"fault"`
	Plan  []fault.Action `json:"plan"`
	// Manager-side recovery totals.
	Heartbeats uint64 `json:"heartbeats"`
	Restarts   uint64 `json:"restarts"`
}

// WireManagerMetrics registers the manager's grant/lease/reclaim
// counters plus the reclaim-latency histogram, and a per-host
// reclaimed_queues gauge for each client host (node ID == host index).
func WireManagerMetrics(reg *trace.Registry, m *core.Manager, hosts int) {
	reg.GaugeFunc("core.manager.granted_queues", func() float64 { return float64(m.GrantedQueues) })
	reg.GaugeFunc("core.manager.heartbeats", func() float64 { return float64(m.HeartbeatsSeen) })
	reg.GaugeFunc("core.manager.reclaims", func() float64 { return float64(m.Reclaims) })
	reg.GaugeFunc("core.manager.aborts_issued", func() float64 { return float64(m.AbortsIssued) })
	reg.GaugeFunc("core.manager.restarts", func() float64 { return float64(m.Restarts) })
	m.SetReclaimHist(reg.Histogram("core.manager.reclaim_latency").Hist())
	for i := 1; i <= hosts; i++ {
		host := uint32(i)
		reg.GaugeFunc("core.manager.reclaimed_queues",
			func() float64 { return float64(m.ReclaimsByHost[host]) }, trace.L("host", i))
	}
}

// WireClientRecoveryMetrics registers one client's fault-recovery
// counters (timeouts, retries, aborts, late completions, quarantined
// slots) under a host label.
func WireClientRecoveryMetrics(reg *trace.Registry, cl *core.Client, host int) {
	hl := trace.L("host", host)
	reg.GaugeFunc("core.client.timeouts", func() float64 { return float64(cl.TimedOut) }, hl)
	reg.GaugeFunc("core.client.retries", func() float64 { return float64(cl.Retries) }, hl)
	reg.GaugeFunc("core.client.aborts", func() float64 { return float64(cl.Aborts) }, hl)
	reg.GaugeFunc("core.client.late_completions", func() float64 { return float64(cl.LateCompletions) }, hl)
	reg.GaugeFunc("core.client.quarantined_slots", func() float64 { return float64(cl.QuarantinedSlots()) }, hl)
}

// RunFaultScenario executes the fault/recovery scenario: the multihost
// sharing topology with a session/lease manager, one heartbeating
// client per host, and a deterministic fault plane that crashes one
// host mid-run. It then verifies recovery end to end: the manager must
// reclaim the dead host's queue pair, the freed QID must be
// re-grantable to a probe client that completes a real I/O through it,
// and every survivor must finish its full I/O budget.
func RunFaultScenario(cfg FaultRunConfig) (*FaultRunResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Hosts < 2 || cfg.Hosts > 31 {
		return nil, fmt.Errorf("cluster: fault scenario needs 2..31 client hosts, got %d", cfg.Hosts)
	}
	r, err := NewRig(RigConfig{Cluster: Config{Hosts: cfg.Hosts + 1}, NVMe: []NVMeConfig{{}},
		Registry: cfg.Registry, Pipeline: cfg.Pipeline})
	if err != nil {
		return nil, err
	}
	ctrl := r.Ctrls[0]

	plane := fault.New(r.K, cfg.Seed)
	// Link faults target client hosts only; the device host's adapter
	// carries every DMA and would turn a single-host fault into a
	// cluster partition.
	for i := 1; i <= cfg.Hosts; i++ {
		plane.BindAdapter(i, r.Hosts[i].Adapter)
	}
	plane.BindController(ctrl)
	if cfg.Registry != nil {
		plane.Wire(cfg.Registry)
	}

	res := &FaultRunResult{}
	var crashT, endT sim.Time
	err = r.Run("manager", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{LeaseNs: faultLeaseNs})
		if err != nil {
			return err
		}
		plane.BindManager(mgr)
		if cfg.Registry != nil {
			WireManagerMetrics(cfg.Registry, mgr, cfg.Hosts)
		}
		start := p.Now()

		// Arm the plan relative to client start: the explicit crash and
		// restart, then the seed-derived noise.
		plane.Schedule(fault.Action{AtNs: int64(start) + faultCrashAtNs,
			Kind: fault.CrashHost, Host: faultCrashHost})
		if cfg.ManagerRestart > 0 {
			plane.Schedule(fault.Action{AtNs: int64(start) + cfg.ManagerRestartAtNs,
				Kind: fault.RestartManager, DurationNs: cfg.ManagerRestart})
		}
		if noise := cfg.Noise; noise != (fault.PlanSpec{}) {
			noise.StartNs += int64(start)
			noise.EndNs += int64(start)
			if noise.Hosts == 0 {
				noise.Hosts = cfg.Hosts
			}
			plane.RandomPlan(noise)
		}
		plane.Arm()
		crashT = start + faultCrashAtNs

		runs := make([]FaultHostRun, cfg.Hosts)
		clients := make([]*core.Client, cfg.Hosts+1)
		done := make([]*sim.Event, 0, cfg.Hosts)
		for i := 1; i <= cfg.Hosts; i++ {
			host := i
			fin := sim.NewEvent(r.K)
			done = append(done, fin)
			r.Go(fmt.Sprintf("host%d", host), func(cp *sim.Proc) {
				defer fin.Trigger(nil)
				run := &runs[host-1]
				run.Host = host
				cl, err := r.Client(cp, host, mgr, fmt.Sprintf("dnvme%d", host), core.ClientParams{
					QueueDepth:     cfg.QueueDepth + 1,
					PartitionBytes: 16 << 10,
					IOTimeoutNs:    faultIOTimeoutNs,
					MaxRetries:     faultMaxRetries,
					AbortOnTimeout: true,
					HeartbeatNs:    faultHeartbeatNs,
				})
				if err != nil {
					run.Err = err.Error()
					return
				}
				clients[host] = cl
				run.QID = cl.QID()
				plane.BindClient(host, cl)
				if cfg.Registry != nil {
					WireClientMetrics(cfg.Registry, cl, host)
					WireClientRecoveryMetrics(cfg.Registry, cl, host)
					WireControllerQueueMetrics(cfg.Registry, ctrl, cl.QID(), host)
				}
				runFaultWorkload(cp, cl, cfg, host, run)
				run.Timeouts = cl.TimedOut
				run.Retries = cl.Retries
				run.Aborts = cl.Aborts
				run.LateCompletions = cl.LateCompletions
				run.Crashed = cl.Crashed()
			})
		}
		p.WaitAll(done...)

		// Prove the reclaimed QID is reusable: wait for the reaper, then
		// re-request a queue on a survivor host while every survivor
		// still holds its own QID — the only grant the manager can hand
		// the probe is the reclaimed one — and push one real I/O through
		// it.
		for mgr.Reclaims == 0 {
			p.Sleep(faultLeaseNs / 2)
		}
		probe, err := r.Client(p, 1, mgr, "dnvme-probe",
			core.ClientParams{QueueDepth: cfg.QueueDepth + 1, PartitionBytes: 16 << 10})
		if err == nil {
			res.ReusedQID = probe.QID()
			buf := make([]byte, probe.BlockSize())
			res.ReuseOK = probe.ReadBlocks(p, 0, 1, buf) == nil &&
				res.ReusedQID == runs[faultCrashHost-1].QID
			probe.Close(p)
		}
		for i := 1; i <= cfg.Hosts; i++ {
			cl := clients[i]
			if cl == nil || cl.Crashed() {
				continue
			}
			if err := cl.Close(p); err != nil && runs[i-1].Err == "" {
				runs[i-1].Err = err.Error()
			}
		}
		endT = p.Now()
		res.PerHost = runs
		res.Reclaims = append([]core.ReclaimEvent(nil), mgr.ReclaimLog...)
		res.ElapsedNs = int64(endT - start)
		res.Heartbeats = mgr.HeartbeatsSeen
		res.Restarts = mgr.Restarts
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Fault = plane.C
	res.Plan = plane.Plan()
	if cfg.Pipeline != nil {
		res.JainBefore = jainWindow(cfg.Pipeline, 0, int64(crashT), -1)
		res.JainAfter = jainWindow(cfg.Pipeline, int64(crashT), int64(endT), faultCrashHost)
	}
	return res, nil
}

// runFaultWorkload drives one client with a bounded random-I/O loop
// that tolerates transient faults (the client retries internally) and
// stops on fatal ones — a crashed client or a reclaimed queue must not
// spin at a frozen virtual instant the way a throughput harness would.
func runFaultWorkload(p *sim.Proc, cl *core.Client, cfg FaultRunConfig, host int, run *FaultHostRun) {
	bs := cl.BlockSize()
	workers := cfg.QueueDepth
	per := cfg.IOsPerHost / workers
	fins := make([]*sim.Event, 0, workers)
	for w := 0; w < workers; w++ {
		n := per
		if w == 0 {
			n += cfg.IOsPerHost % workers
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(host)*131 + int64(w)))
		fin := sim.NewEvent(p.Kernel())
		fins = append(fins, fin)
		p.Kernel().Spawn(fmt.Sprintf("host%d/w%d", host, w), func(wp *sim.Proc) {
			defer fin.Trigger(nil)
			buf := make([]byte, bs)
			for i := 0; i < n; i++ {
				lba := rng.Uint64() % faultRangeBlocks
				var err error
				if rng.Intn(2) == 0 {
					err = cl.ReadBlocks(wp, lba, 1, buf)
				} else {
					err = cl.WriteBlocks(wp, lba, 1, buf)
				}
				if err != nil {
					run.Errors++
					if errors.Is(err, core.ErrClosed) || core.IsFatal(err) {
						return
					}
					continue
				}
				run.IOs++
			}
		})
	}
	p.WaitAll(fins...)
}

// jainWindow computes the Jain fairness index of per-host I/O
// completions inside virtual-time window (t0, t1], from the pipeline's
// host.ios_completed series. Host exclude (e.g. the crashed host, whose
// share legitimately collapses) is skipped; pass -1 to include all.
func jainWindow(pipe *telemetry.Pipeline, t0, t1 int64, exclude int) float64 {
	var xs []float64
	for _, s := range pipe.Series() {
		if s.Name != telemetry.MetricHostIOs {
			continue
		}
		host := -1
		for _, l := range s.Labels {
			if l.Key == "host" {
				if v, err := strconv.Atoi(l.Value); err == nil {
					host = v
				}
			}
		}
		if host == exclude {
			continue
		}
		var sum float64
		for i := 0; i < s.Len(); i++ {
			pt := s.At(i)
			if pt.T > t0 && pt.T <= t1 {
				sum += pt.D
			}
		}
		xs = append(xs, sum)
	}
	return telemetry.Jain(xs)
}
