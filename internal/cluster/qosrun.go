package cluster

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/qos"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// QoS scenario names. Both multiplex large open-loop tenant populations
// onto the shared controller through two client hosts; they differ in
// what the second population does.
const (
	// QoSNoisyNeighbor: host 1 carries latency-sensitive Poisson
	// tenants, host 2 carries bursty MMPP bulk tenants that overdrive
	// the device — the paper's interference case.
	QoSNoisyNeighbor = "noisy-neighbor"
	// QoSLatencySensitive: both hosts carry latency-sensitive tenants —
	// the homogeneous capacity case.
	QoSLatencySensitive = "latency-sensitive"
)

// QoSScenarios lists the supported scenario names.
func QoSScenarios() []string { return []string{QoSNoisyNeighbor, QoSLatencySensitive} }

// The QoS scenario's tenant populations, client queue depths and SLOs,
// which the qos package judges over its default 1 ms window.
const (
	// qosLatencyTenants and qosNoisyTenants size the populations: the
	// "hundreds of tenants onto one queue pair" regime.
	qosLatencyTenants = 100
	qosNoisyTenants   = 100
	// qosLatencyRateHz and qosNoisyRateHz are per-tenant base rates
	// before RateScale. The noisy rate is the MMPP on-state rate,
	// duty-cycled to a fifth of that on average; the noisy fleet's
	// on-state bursts alone oversubscribe the Optane-class device's ~800k
	// IOPS of channel capacity.
	qosLatencyRateHz = 400
	qosNoisyRateHz   = 25000
	// qosQueueDepth is the latency client's queue depth.
	qosQueueDepth = 16
	// qosNoisyQueueDepth is the noisy client's queue depth: deep enough
	// to fill the controller's shared inflight window, which is exactly
	// how a bulk workload interferes with everyone else.
	qosNoisyQueueDepth = 64
	// qosP99SLONs is the latency class's p99 budget: ample against the
	// ~25µs uncontended p99, blown when the noisy class keeps the
	// device's inflight window full.
	qosP99SLONs = 80 * sim.Microsecond
	// qosP999SLONs is the latency class's p99.9 budget.
	qosP999SLONs = 200 * sim.Microsecond
	// qosNoisyP99SLONs is the noisy class's own (loose) budget, the lever
	// admission control uses to make an overdriving tenant back off.
	qosNoisyP99SLONs = 300 * sim.Microsecond
	// qosViolationBudget is the tolerated fraction of SLO-violating
	// windows before a class counts as failing: one bad window in ten is
	// noise, more is interference.
	qosViolationBudget = 0.10
	// qosSpanBlocks is the LBA range every tenant draws from.
	qosSpanBlocks = 1 << 16
)

// QoSRunConfig parameterizes RunQoSScenario.
type QoSRunConfig struct {
	// Scenario selects the tenant mix (default QoSNoisyNeighbor).
	Scenario string
	// QoS enables the full QoS stack: WRR arbitration on the controller
	// (latency client's queue in the high class, noisy client's in low)
	// plus client-side SLO-driven admission control. Off, both queues
	// are plain round-robin peers and nothing is ever shed.
	QoS bool
	// RateScale multiplies every tenant's base arrival rate — the load
	// axis the sweep searches along (default 1.0).
	RateScale float64
	// DurationNs is the generation horizon (default 20ms virtual).
	DurationNs int64
	// Seed drives arrival streams (default 42).
	Seed uint64

	NVMe     NVMeConfig
	Registry *trace.Registry
	Pipeline *telemetry.Pipeline
	Tracer   *trace.Tracer
}

func (cfg QoSRunConfig) withDefaults() QoSRunConfig {
	if cfg.Scenario == "" {
		cfg.Scenario = QoSNoisyNeighbor
	}
	if cfg.RateScale == 0 {
		cfg.RateScale = 1.0
	}
	if cfg.DurationNs == 0 {
		cfg.DurationNs = 20 * sim.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	return cfg
}

// QoSClassResult is one tenant class's outcome.
type QoSClassResult struct {
	Class   string `json:"class"`
	Host    int    `json:"host"`
	Tenants int    `json:"tenants"`

	Issued    uint64 `json:"issued"`
	Dropped   uint64 `json:"dropped"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	Failed    uint64 `json:"failed"`

	MeanNs float64 `json:"mean_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`

	SLOP99Ns  int64  `json:"slo_p99_ns"`
	SLOP999Ns int64  `json:"slo_p999_ns"`
	Windows   uint64 `json:"windows"`
	// Violations counts SLO-violating evaluation windows summed over
	// the class's tenants; Throttles counts AIMD backoff events.
	Violations uint64 `json:"violations"`
	Throttles  uint64 `json:"throttles"`
	// SLOMet: the class stayed within its ViolationBudget.
	SLOMet bool `json:"slo_met"`
}

// QoSRunResult aggregates one RunQoSScenario outcome.
type QoSRunResult struct {
	Scenario  string  `json:"scenario"`
	QoS       bool    `json:"qos"`
	RateScale float64 `json:"rate_scale"`
	// OfferedIOPS is the aggregate configured arrival rate (after
	// RateScale, using the MMPP duty-cycled average for noisy tenants).
	OfferedIOPS float64 `json:"offered_iops"`
	ElapsedNs   int64   `json:"elapsed_ns"`

	Classes []QoSClassResult `json:"classes"`

	// ArrivalDigest folds both engines' streams — byte-identical across
	// GOMAXPROCS for a fixed seed and config.
	ArrivalDigest string `json:"arrival_digest"`

	// Client-side fault accounting, for the shed-vs-timeout regression:
	// a shed must never surface as a timeout, retry or quarantine.
	Timeouts    uint64 `json:"timeouts"`
	Retries     uint64 `json:"retries"`
	Quarantined uint64 `json:"quarantined"`
	ClientSheds uint64 `json:"client_sheds"`

	// SLOMet: the latency-sensitive class met its budget.
	SLOMet bool `json:"slo_met"`
}

// qosClass describes one client host's tenant population.
type qosClass struct {
	name   string
	prio   core.QueuePrio // used only when cfg.QoS
	qd     int            // client queue depth
	specs  []arrival.TenantSpec
	slo    qos.SLO
	exempt bool    // latency-critical: tracked, never throttled
	rateHz float64 // aggregate average offered rate
}

// classesFor builds the scenario's two populations.
func classesFor(cfg QoSRunConfig) ([]qosClass, error) {
	latency := qosClass{
		name: "latency",
		prio: core.PrioHigh,
		qd:   qosQueueDepth,
		specs: arrival.Fleet(qosLatencyTenants, arrival.TenantSpec{
			Name:           "lat",
			Kind:           arrival.Poisson,
			RateHz:         qosLatencyRateHz * cfg.RateScale,
			ReadFrac:       1.0,
			MaxOutstanding: 4,
		}),
		slo:    qos.SLO{P99Ns: qosP99SLONs, P999Ns: qosP999SLONs},
		exempt: true,
		rateHz: float64(qosLatencyTenants) * qosLatencyRateHz * cfg.RateScale,
	}
	switch cfg.Scenario {
	case QoSNoisyNeighbor:
		// On 2ms, off 8ms: a 20% duty cycle whose on-state bursts hit
		// the device at 5x the average — the interference source.
		noisy := qosClass{
			name: "noisy",
			prio: core.PrioLow,
			qd:   qosNoisyQueueDepth,
			specs: arrival.Fleet(qosNoisyTenants, arrival.TenantSpec{
				Name:           "noisy",
				Kind:           arrival.MMPP,
				RateHz:         qosNoisyRateHz * cfg.RateScale,
				OnMeanNs:       2 * sim.Millisecond,
				OffMeanNs:      8 * sim.Millisecond,
				ReadFrac:       0.3,
				MaxOutstanding: 8,
			}),
			slo:    qos.SLO{P99Ns: qosNoisyP99SLONs},
			rateHz: float64(qosNoisyTenants) * qosNoisyRateHz * cfg.RateScale * 0.2,
		}
		return []qosClass{latency, noisy}, nil
	case QoSLatencySensitive:
		second := latency
		second.specs = arrival.Fleet(qosLatencyTenants, arrival.TenantSpec{
			Name:           "lat2",
			Kind:           arrival.Poisson,
			RateHz:         qosLatencyRateHz * cfg.RateScale,
			ReadFrac:       1.0,
			MaxOutstanding: 4,
		})
		return []qosClass{latency, second}, nil
	}
	return nil, fmt.Errorf("cluster: unknown QoS scenario %q", cfg.Scenario)
}

// WireQoSMetrics registers one class's SLO-tracking gauges.
func WireQoSMetrics(reg *trace.Registry, c *qos.Controller, class string) {
	cl := trace.L("class", class)
	reg.GaugeFunc("qos.windows", func() float64 {
		var n uint64
		for i := 0; i < c.Tenants(); i++ {
			n += c.Snapshot(i).Windows
		}
		return float64(n)
	}, cl)
	reg.GaugeFunc("qos.violations", func() float64 { return float64(c.TotalViolations()) }, cl)
	reg.GaugeFunc("qos.throttles", func() float64 { return float64(c.TotalThrottles()) }, cl)
	reg.GaugeFunc("qos.sheds", func() float64 { return float64(c.TotalSheds()) }, cl)
	reg.GaugeFunc("qos.min_admit_frac", func() float64 { return c.MinAdmitFrac() }, cl)
}

// WireArrivalMetrics registers one engine's stream counters.
func WireArrivalMetrics(reg *trace.Registry, e *arrival.Engine, class string) {
	cl := trace.L("class", class)
	reg.GaugeFunc("arrival.issued", func() float64 { return float64(e.Totals().Issued) }, cl)
	reg.GaugeFunc("arrival.dropped", func() float64 { return float64(e.Totals().Dropped) }, cl)
	reg.GaugeFunc("arrival.completed", func() float64 { return float64(e.Totals().Completed) }, cl)
	reg.GaugeFunc("arrival.shed", func() float64 { return float64(e.Totals().Shed) }, cl)
	reg.GaugeFunc("arrival.failed", func() float64 { return float64(e.Totals().Failed) }, cl)
}

// RunQoSScenario assembles the multi-tenant sharing topology — one
// device host, two client hosts, each client multiplexing an open-loop
// tenant population onto its queue pair — and runs the configured
// scenario to its horizon. With cfg.QoS set it layers the full QoS
// stack (WRR arbitration classes plus SLO-driven admission control);
// without it the same offered load hits a plain round-robin controller
// with no policing, which is the baseline the sweep compares against.
func RunQoSScenario(cfg QoSRunConfig) (*QoSRunResult, error) {
	cfg = cfg.withDefaults()
	classes, err := classesFor(cfg)
	if err != nil {
		return nil, err
	}

	r, err := NewRig(RigConfig{Cluster: Config{Hosts: len(classes) + 1}, NVMe: []NVMeConfig{cfg.NVMe},
		Registry: cfg.Registry, Pipeline: cfg.Pipeline, tracer: cfg.Tracer})
	if err != nil {
		return nil, err
	}
	ctrl := r.Ctrls[0]

	res := &QoSRunResult{Scenario: cfg.Scenario, QoS: cfg.QoS, RateScale: cfg.RateScale}
	for _, qc := range classes {
		res.OfferedIOPS += qc.rateHz
	}
	err = r.Run("qos-run", func(p *sim.Proc) error {
		mgrParams := core.ManagerParams{}
		if cfg.QoS {
			// Burst 4, weights high 8 / medium 4 / low 1: the latency
			// class outdraws the bulk class 8:1 when both queues are
			// backlogged, without ever starving it.
			mgrParams.WRR = &core.ArbConfig{Burst: 2, HPW: 7, MPW: 3, LPW: 0}
		}
		mgr, err := r.Manager(p, 0, mgrParams)
		if err != nil {
			return err
		}
		start := p.Now()

		engines := make([]*arrival.Engine, len(classes))
		ctrls := make([]*qos.Controller, len(classes))
		clients := make([]*core.Client, len(classes))
		gens := make([]*sim.Event, 0, len(classes))
		for ci, qc := range classes {
			host := ci + 1
			params := core.ClientParams{
				QueueDepth:     qc.qd,
				PartitionBytes: 64 << 10,
			}
			if cfg.QoS {
				params.Priority = qc.prio
			}
			cl, err := r.Client(p, host, mgr, fmt.Sprintf("dnvme%d", host), params)
			if err != nil {
				return err
			}
			clients[ci] = cl

			tenants := make([]qos.TenantConfig, len(qc.specs))
			for i, s := range qc.specs {
				tenants[i] = qos.TenantConfig{Name: s.Name, SLO: qc.slo, Exempt: qc.exempt}
			}
			qctrl := qos.NewController(r.K, qos.Params{
				// Trip on the first bad window, back off hard, recover
				// slowly: a bursty aggressor must not shake the throttle
				// loose during every off-dwell.
				ViolateAfter: 1,
				Decrease:     0.4,
				Increase:     0.05,
			}, tenants)
			ctrls[ci] = qctrl
			if cfg.QoS {
				cl.SetAdmission(qctrl.Admit)
			}

			bs := cl.BlockSize()
			eng, err := arrival.New(arrival.Config{
				Seed:       cfg.Seed + uint64(ci)*0x9E37,
				Tenants:    qc.specs,
				SpanBlocks: qosSpanBlocks,
				Shed:       core.ErrShed,
				Submit: func(wp *sim.Proc, tenant int, read bool, lba uint64, nblk int) error {
					buf := make([]byte, nblk*bs)
					if read {
						return cl.ReadBlocksTenant(wp, tenant, lba, nblk, buf)
					}
					return cl.WriteBlocksTenant(wp, tenant, lba, nblk, buf)
				},
				OnComplete: func(tenant int, latNs int64, err error) {
					if err == nil {
						qctrl.Observe(tenant, latNs)
					}
				},
				HorizonNs: cfg.DurationNs,
			})
			if err != nil {
				return err
			}
			engines[ci] = eng
			if cfg.Registry != nil {
				WireClientMetrics(cfg.Registry, cl, host)
				WireControllerQueueMetrics(cfg.Registry, ctrl, cl.QID(), host)
				WireQoSMetrics(cfg.Registry, qctrl, qc.name)
				WireArrivalMetrics(cfg.Registry, eng, qc.name)
			}
			gp := r.K.Spawn(fmt.Sprintf("arrival/%s", qc.name), eng.Run)
			gens = append(gens, gp.Exited())
		}
		p.WaitAll(gens...)

		// Generators are done; wait for in-flight requests to drain.
		for {
			pending := 0
			for ci := range classes {
				for i := range classes[ci].specs {
					pending += engines[ci].Outstanding(i)
				}
			}
			if pending == 0 {
				break
			}
			p.Sleep(10 * sim.Microsecond)
		}

		digest := uint64(0xcbf29ce484222325)
		for ci, qc := range classes {
			eng, qctrl, cl := engines[ci], ctrls[ci], clients[ci]
			qctrl.Stop()
			tot := eng.Totals()
			cr := QoSClassResult{
				Class: qc.name, Host: ci + 1, Tenants: len(qc.specs),
				Issued: tot.Issued, Dropped: tot.Dropped, Completed: tot.Completed,
				Shed: tot.Shed, Failed: tot.Failed,
				SLOP99Ns: qc.slo.P99Ns, SLOP999Ns: qc.slo.P999Ns,
			}
			// Class-level latency/violation rollup over tenants.
			var sumMean, meanN float64
			for i := 0; i < qctrl.Tenants(); i++ {
				s := qctrl.Snapshot(i)
				cr.Windows += s.Windows
				cr.Violations += s.Violations
				cr.Throttles += s.Throttles
				if s.TotalCount > 0 {
					sumMean += s.TotalMeanNs * float64(s.TotalCount)
					meanN += float64(s.TotalCount)
					if s.TotalP99Ns > cr.P99Ns {
						cr.P99Ns = s.TotalP99Ns
					}
					if s.TotalP999Ns > cr.P999Ns {
						cr.P999Ns = s.TotalP999Ns
					}
				}
			}
			if meanN > 0 {
				cr.MeanNs = sumMean / meanN
			}
			cr.SLOMet = float64(cr.Violations) <= qosViolationBudget*float64(cr.Windows)
			res.Classes = append(res.Classes, cr)

			digest = digest*0x100000001b3 ^ eng.Digest()
			res.Timeouts += cl.TimedOut
			res.Retries += cl.Retries
			res.Quarantined += uint64(cl.QuarantinedSlots())
			res.ClientSheds += cl.Sheds
			if err := cl.Close(p); err != nil {
				return fmt.Errorf("%s client close: %w", qc.name, err)
			}
		}
		res.ArrivalDigest = fmt.Sprintf("%016x", digest)
		res.ElapsedNs = int64(p.Now() - start)
		res.SLOMet = res.Classes[0].SLOMet
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
