package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/core"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/volume"
)

// The volume scenario's fixed outage and the path clients' recovery
// knobs.
const (
	// volumeRangePerWorker is each worker's private LBA range.
	volumeRangePerWorker = 64
	// volumeLinkDownNs is the outage duration on the device-A host's
	// adapter. The outage starts when phase 2 begins.
	volumeLinkDownNs = 400 * sim.Microsecond
	// volumeDetectNs is the delay from outage start until the nexus
	// declares path A dead and fences it.
	volumeDetectNs = 100 * sim.Microsecond
	// volumeIOTimeoutNs is the path clients' command timeout.
	volumeIOTimeoutNs = 100 * sim.Microsecond
	// volumeMaxRetries bounds each path client's internal retries: the
	// nexus is the retry layer during an outage.
	volumeMaxRetries = 1
)

// VolumeRunConfig parameterizes the nexus-volume fault scenario: a
// mirrored volume over two single-function NVMe devices on different
// hosts, one path killed mid-traffic by an NTB link outage, the dead
// path fenced with a reservation preempt, and the full write history
// verified against a reference image afterwards.
type VolumeRunConfig struct {
	// Workers is the number of concurrent writer processes (default 4).
	Workers int
	// IOsPerWorker is each worker's write budget per phase (default 150).
	IOsPerWorker int
	// QueueDepth is each path client's queue depth (default 8).
	QueueDepth int
	// Seed drives the two devices' medium calibration: device A's medium
	// is seeded Seed+1 and B's Seed+2.
	Seed int64

	Registry *trace.Registry
	Pipeline *telemetry.Pipeline
}

func (cfg VolumeRunConfig) withDefaults() VolumeRunConfig {
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.IOsPerWorker == 0 {
		cfg.IOsPerWorker = 150
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 8
	}
	return cfg
}

// VolumeRunResult aggregates a RunVolumeScenario outcome. Virtual-time
// facts only: a fixed config reproduces it byte for byte at any
// GOMAXPROCS.
type VolumeRunResult struct {
	// Phase write tallies: phase 1 runs with both paths healthy, phase 2
	// under the outage and after the fence.
	Phase1Acked int `json:"phase1_acked"`
	Phase2Acked int `json:"phase2_acked"`
	WriteErrors int `json:"write_errors"`
	// Nexus counters at scenario end.
	MirroredWrites uint64 `json:"mirrored_writes"`
	DegradedWrites uint64 `json:"degraded_writes"`
	ReadFailovers  uint64 `json:"read_failovers"`
	Fences         uint64 `json:"fences"`
	// PathStates are the final ANA states ("optimized", ...).
	PathStates [2]string `json:"path_states"`
	// StaleWriteConflict: the fenced path client's direct write returned
	// Reservation Conflict. StaleDataAbsent: its payload is not on the
	// medium (checked through a read at the probe LBA).
	StaleWriteConflict bool `json:"stale_write_conflict"`
	StaleDataAbsent    bool `json:"stale_data_absent"`
	// Integrity: every acknowledged write byte-verified via the nexus.
	VerifiedBlocks int    `json:"verified_blocks"`
	LostWrites     int    `json:"lost_writes"`
	Digest         uint64 `json:"digest"`
	// Controller A's reservation state after the fence.
	ResvGen       uint32 `json:"resv_gen"`
	ResvRType     uint8  `json:"resv_rtype"`
	ResvRegs      int    `json:"resv_regs"`
	ResvConflicts uint64 `json:"resv_conflicts"`
	ResvPreempts  uint64 `json:"resv_preempts"`
	// CtrlAFatal/CtrlBFatal: neither controller may die — the link
	// outage must be ridden out (nvme.LinkRetryNs), not fatal.
	CtrlAFatal bool `json:"ctrl_a_fatal"`
	CtrlBFatal bool `json:"ctrl_b_fatal"`
	// CtrlALinkRetries counts controller A's ridden-out DMA failures.
	CtrlALinkRetries uint64 `json:"ctrl_a_link_retries"`
	// Path-A client recovery counters (the casualties of the outage).
	PathATimeouts  uint64 `json:"path_a_timeouts"`
	PathALateCQEs  uint64 `json:"path_a_late_cqes"`
	PathAAbandoned uint64 `json:"path_a_abandoned"`
	ElapsedNs      int64  `json:"elapsed_ns"`
}

// WireNexusMetrics registers the nexus's mirror/failover counters and a
// per-path state gauge (0 optimized, 1 non-optimized, 2 inaccessible)
// plus per-path op/error counters.
func WireNexusMetrics(reg *trace.Registry, nx *volume.Nexus) {
	reg.GaugeFunc("volume.nexus.mirrored_writes", func() float64 { return float64(nx.MirroredWrites.Load()) })
	reg.GaugeFunc("volume.nexus.degraded_writes", func() float64 { return float64(nx.DegradedWrites.Load()) })
	reg.GaugeFunc("volume.nexus.read_failovers", func() float64 { return float64(nx.ReadFailovers.Load()) })
	reg.GaugeFunc("volume.nexus.fences", func() float64 { return float64(nx.Fences.Load()) })
	for i := 0; i < 2; i++ {
		pt := nx.Path(i)
		pl := trace.L("path", i)
		reg.GaugeFunc("volume.path.state", func() float64 { return float64(pt.State()) }, pl)
		reg.GaugeFunc("volume.path.reads", func() float64 { return float64(pt.Reads.Load()) }, pl)
		reg.GaugeFunc("volume.path.writes", func() float64 { return float64(pt.Writes.Load()) }, pl)
		reg.GaugeFunc("volume.path.errors", func() float64 { return float64(pt.Errors.Load()) }, pl)
	}
}

// volumePattern fills buf with the deterministic content of (lba, gen):
// generation-stamped so phase-2 overwrites are distinguishable from the
// phase-1 data a stale replica would serve.
func volumePattern(buf []byte, lba uint64, gen int) {
	for i := range buf {
		buf[i] = byte(uint64(gen)*131 + lba*31 + uint64(i)*7)
	}
}

// RunVolumeScenario executes the path-death acceptance scenario:
//
//  1. Two devices (controller A on host 0, B on host 1) are shared
//     through per-device managers; the nexus host (2) attaches one path
//     client to each, registers a reservation key per path and acquires
//     Write Exclusive on its own controller.
//  2. Phase 1 mirrors a write workload to both replicas.
//  3. The NTB link of device A's host goes down mid-traffic (phase 2
//     starts concurrently). Writes continue degraded on path B.
//  4. After DetectNs the nexus fences the dead path: a fence client
//     local to device A's host registers a fresh key and issues
//     preempt-and-abort on path A's key. Path A is inaccessible.
//  5. After the link recovers, the stale path-A client writes directly:
//     the command must complete with Reservation Conflict and its data
//     must never reach the medium.
//  6. Every acknowledged write is byte-verified through the nexus
//     against a reference image — zero lost writes.
func RunVolumeScenario(cfg VolumeRunConfig) (*VolumeRunResult, error) {
	cfg = cfg.withDefaults()
	r, err := NewRig(RigConfig{Cluster: Config{Hosts: 3},
		NVMe:     []NVMeConfig{{Seed: cfg.Seed + 1}, {Seed: cfg.Seed + 2}},
		Registry: cfg.Registry, Pipeline: cfg.Pipeline})
	if err != nil {
		return nil, err
	}
	ctrlA, ctrlB := r.Ctrls[0], r.Ctrls[1]

	const (
		keyA     = 0x0A11
		keyB     = 0x0B22
		fenceKey = 0xFE2C
	)
	res := &VolumeRunResult{}
	err = r.Run("volume", func(p *sim.Proc) error {
		start := p.Now()
		mgrA, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return fmt.Errorf("manager A: %w", err)
		}
		mgrB, err := r.Manager(p, 1, core.ManagerParams{})
		if err != nil {
			return fmt.Errorf("manager B: %w", err)
		}
		cp := core.ClientParams{
			QueueDepth:     cfg.QueueDepth,
			PartitionBytes: 16 << 10,
			IOTimeoutNs:    volumeIOTimeoutNs,
			MaxRetries:     volumeMaxRetries,
		}
		clA, err := r.Client(p, 2, mgrA, "pathA", cp)
		if err != nil {
			return fmt.Errorf("path A client: %w", err)
		}
		clB, err := r.Client(p, 2, mgrB, "pathB", cp)
		if err != nil {
			return fmt.Errorf("path B client: %w", err)
		}
		// Each path registers and holds Write Exclusive on its own
		// controller: the fence below preempts exactly this registration.
		if err := clA.ResvRegister(p, nvme.ResvRegisterKey, 0, keyA, 2); err != nil {
			return fmt.Errorf("path A register: %w", err)
		}
		if err := clA.ResvAcquire(p, nvme.ResvAcquireAct, nvme.ResvWriteExclusive, keyA, 0); err != nil {
			return fmt.Errorf("path A acquire: %w", err)
		}
		if err := clB.ResvRegister(p, nvme.ResvRegisterKey, 0, keyB, 2); err != nil {
			return fmt.Errorf("path B register: %w", err)
		}
		if err := clB.ResvAcquire(p, nvme.ResvAcquireAct, nvme.ResvWriteExclusive, keyB, 0); err != nil {
			return fmt.Errorf("path B acquire: %w", err)
		}

		// The fence: a fresh client on device A's own host (everything
		// local — it works during the outage) registers a fence key and
		// preempts the dead path's registration. Kept open so the fence
		// holds until teardown.
		var fenceClient *core.Client
		fence := func(fp *sim.Proc, path int) error {
			if path != 0 {
				return fmt.Errorf("cluster: unexpected fence of path %d", path)
			}
			fc, err := r.Client(fp, 0, mgrA, "fenceA",
				core.ClientParams{QueueDepth: 4, PartitionBytes: 16 << 10})
			if err != nil {
				return err
			}
			fenceClient = fc
			if err := fc.ResvRegister(fp, nvme.ResvRegisterKey, 0, fenceKey, 0); err != nil {
				return err
			}
			return fc.ResvAcquire(fp, nvme.ResvPreemptAndAbort, nvme.ResvWriteExclusive, fenceKey, keyA)
		}
		nx, err := volume.New("nexus0", r.K, clA, clB, fence)
		if err != nil {
			return err
		}
		if cfg.Registry != nil {
			WireNexusMetrics(cfg.Registry, nx)
		}

		bs := uint64(nx.BlockSize())
		totalBlocks := uint64(cfg.Workers) * volumeRangePerWorker
		ref := make([]byte, totalBlocks*bs)
		written := make([]bool, totalBlocks)

		// runPhase drives one generation of the workload from rp (the proc
		// that blocks on the workers — blocking calls must come from the
		// proc's own goroutine, so the caller passes itself in).
		runPhase := func(rp *sim.Proc, gen int) (acked, errs int) {
			fins := make([]*sim.Event, cfg.Workers)
			ackedW := make([]int, cfg.Workers)
			errsW := make([]int, cfg.Workers)
			for w := 0; w < cfg.Workers; w++ {
				w := w
				fins[w] = sim.NewEvent(r.K)
				r.Go(fmt.Sprintf("phase%d/w%d", gen, w), func(wp *sim.Proc) {
					defer fins[w].Trigger(nil)
					base := uint64(w) * volumeRangePerWorker
					buf := make([]byte, bs)
					for i := 0; i < cfg.IOsPerWorker; i++ {
						lba := base + uint64(i)%volumeRangePerWorker
						volumePattern(buf, lba, gen)
						if err := nx.WriteBlocks(wp, lba, 1, buf); err != nil {
							errsW[w]++
							continue
						}
						// Acknowledged: the reference image must match a
						// later read, or the write was lost.
						copy(ref[lba*bs:(lba+1)*bs], buf)
						written[lba] = true
						ackedW[w]++
					}
				})
			}
			rp.WaitAll(fins...)
			for w := 0; w < cfg.Workers; w++ {
				acked += ackedW[w]
				errs += errsW[w]
			}
			return acked, errs
		}

		// Phase 1: both paths healthy, everything mirrors.
		var errs1, errs2 int
		res.Phase1Acked, errs1 = runPhase(p, 1)

		// Phase 2: device A's host drops off the fabric mid-traffic.
		downAt := p.Now()
		r.Hosts[0].Adapter.InjectLinkDown(volumeLinkDownNs)
		fins := make([]*sim.Event, 1)
		fins[0] = sim.NewEvent(r.K)
		r.Go("phase2", func(wp *sim.Proc) {
			defer fins[0].Trigger(nil)
			res.Phase2Acked, errs2 = runPhase(wp, 2)
		})
		// Detection: after DetectNs of failures the nexus fences the
		// dead path (reservation preempt through the local fence client).
		p.Sleep(volumeDetectNs)
		if err := nx.FencePath(p, 0); err != nil {
			return fmt.Errorf("fence: %w", err)
		}
		p.WaitAll(fins[0])
		res.WriteErrors = errs1 + errs2

		// Wait out the rest of the outage so the stale client's probe
		// actually reaches controller A (plus margin for late CQEs).
		if rem := int64(downAt) + volumeLinkDownNs - int64(p.Now()); rem > 0 {
			p.Sleep(rem)
		}
		p.Sleep(2 * volumeIOTimeoutNs)

		// The stale writer: path A's original client still holds its
		// queue pair and tries to write. The fence must answer with
		// Reservation Conflict and the bytes must never land.
		probeLBA := totalBlocks + 5
		probe := make([]byte, bs)
		for i := range probe {
			probe[i] = 0xDD
		}
		err = clA.WriteBlocks(p, probeLBA, 1, probe)
		res.StaleWriteConflict = errorIsResvConflict(err)
		back := make([]byte, bs)
		if err := clA.ReadBlocks(p, probeLBA, 1, back); err == nil {
			res.StaleDataAbsent = !bytes.Equal(back, probe)
		}

		// Integrity sweep: every acknowledged write must read back
		// exactly through the nexus (all reads land on the survivor).
		h := fnv.New64a()
		got := make([]byte, bs)
		for lba := uint64(0); lba < totalBlocks; lba++ {
			if !written[lba] {
				continue
			}
			if err := nx.ReadBlocks(p, lba, 1, got); err != nil {
				res.LostWrites++
				continue
			}
			if !bytes.Equal(got, ref[lba*bs:(lba+1)*bs]) {
				res.LostWrites++
				continue
			}
			h.Write(got)
			res.VerifiedBlocks++
		}
		res.Digest = h.Sum64()

		res.MirroredWrites = nx.MirroredWrites.Load()
		res.DegradedWrites = nx.DegradedWrites.Load()
		res.ReadFailovers = nx.ReadFailovers.Load()
		res.Fences = nx.Fences.Load()
		res.PathStates[0] = nx.Path(0).State().String()
		res.PathStates[1] = nx.Path(1).State().String()
		st := ctrlA.ResvStatus()
		res.ResvGen = st.Gen
		res.ResvRType = st.RType
		res.ResvRegs = len(st.Regs)
		res.ResvConflicts = ctrlA.Stats.ResvConflicts
		res.ResvPreempts = ctrlA.Stats.ResvPreempts
		res.CtrlALinkRetries = ctrlA.Stats.LinkRetries
		res.PathATimeouts = clA.TimedOut

		// Teardown: the stale client closes last (its Close drains any
		// still-quarantined slots from the outage window).
		if err := clB.Close(p); err != nil {
			return fmt.Errorf("path B close: %w", err)
		}
		if err := clA.Close(p); err != nil {
			return fmt.Errorf("path A close: %w", err)
		}
		res.PathALateCQEs = clA.LateCompletions
		res.PathAAbandoned = clA.AbandonedSlots
		if fenceClient != nil {
			if err := fenceClient.Close(p); err != nil {
				return fmt.Errorf("fence close: %w", err)
			}
		}
		res.CtrlAFatal = ctrlA.Fatal()
		res.CtrlBFatal = ctrlB.Fatal()
		res.ElapsedNs = int64(p.Now() - start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func errorIsResvConflict(err error) bool {
	return errors.Is(err, core.ErrReservationConflict)
}
