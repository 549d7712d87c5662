package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestLateCompletionQuarantine is the timed-out-slot regression test: a
// command that times out must park its bounce slot until the late CQE
// drains, so a subsequent I/O can neither reuse the slot early nor leak
// it. A fabric stall on the device host's adapter delays the whole
// device-side path (SQE fetch, data DMA, CQE write) past the client's
// command timeout; the completion still arrives once the stall clears.
func TestLateCompletionQuarantine(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr,
			core.ClientParams{QueueDepth: 2, IOTimeoutNs: 50 * sim.Microsecond})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		want := bytes.Repeat([]byte{0xAB}, 512)
		// Every device-side crossing inside the 120µs window pays +100µs:
		// the first command completes long after its 50µs timeout.
		r.c.Hosts[0].Adapter.InjectStall(100*sim.Microsecond, 120*sim.Microsecond)
		err = cl.WriteBlocks(p, 10, 1, want)
		if !errors.Is(err, core.ErrIOTimeout) {
			t.Fatalf("stalled write returned %v, want ErrIOTimeout", err)
		}
		if !core.IsTransient(err) {
			t.Errorf("timeout not classified transient: %v", err)
		}
		if got := cl.QuarantinedSlots(); got != 1 {
			t.Fatalf("quarantined slots = %d, want 1", got)
		}
		if cl.TimedOut != 1 {
			t.Errorf("TimedOut = %d, want 1", cl.TimedOut)
		}
		// QueueDepth 2 means a single bounce slot: the next I/O must
		// block until the late CQE releases the quarantined slot, then
		// succeed at full speed (the stall window has expired).
		if err := cl.WriteBlocks(p, 20, 1, want); err != nil {
			t.Fatalf("post-quarantine write: %v", err)
		}
		if cl.LateCompletions != 1 {
			t.Errorf("LateCompletions = %d, want 1", cl.LateCompletions)
		}
		if got := cl.QuarantinedSlots(); got != 0 {
			t.Errorf("quarantined slots = %d after drain, want 0", got)
		}
		// The timed-out command did execute (late, not lost): its data
		// landed at LBA 10.
		got := make([]byte, 512)
		if err := cl.ReadBlocks(p, 10, 1, got); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("late-completing write lost its data")
		}
		if err := cl.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

// TestRetryAfterDroppedDoorbell drives the client's bounded-backoff
// retry and Abort path: a lost SQ doorbell strands the first attempt
// (committed SQE, device never rung) until the retry's doorbell
// publishes the cumulative tail. The first CID times out, is aborted,
// and its late CQE drains through the quarantine.
func TestRetryAfterDroppedDoorbell(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr,
			core.ClientParams{
				QueueDepth:     3,
				IOTimeoutNs:    50 * sim.Microsecond,
				MaxRetries:     2,
				AbortOnTimeout: true,
			})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		cl.QueueView().DropSQDoorbells = 1
		want := bytes.Repeat([]byte{0x5C}, 512)
		if err := cl.WriteBlocks(p, 33, 1, want); err != nil {
			t.Fatalf("write with dropped doorbell: %v", err)
		}
		if cl.TimedOut != 1 || cl.Retries != 1 {
			t.Errorf("TimedOut=%d Retries=%d, want 1/1", cl.TimedOut, cl.Retries)
		}
		if cl.Aborts != 1 {
			t.Errorf("Aborts = %d, want 1", cl.Aborts)
		}
		if cl.QueueView().SQDoorbellsDropped != 1 {
			t.Errorf("SQDoorbellsDropped = %d, want 1", cl.QueueView().SQDoorbellsDropped)
		}
		// Both the stranded original and the retry executed; give the
		// poller a beat to drain the late CQE, then verify the data.
		p.Sleep(50 * sim.Microsecond)
		if cl.LateCompletions != 1 {
			t.Errorf("LateCompletions = %d, want 1", cl.LateCompletions)
		}
		if cl.QuarantinedSlots() != 0 {
			t.Errorf("quarantined slots = %d, want 0", cl.QuarantinedSlots())
		}
		got := make([]byte, 512)
		if err := cl.ReadBlocks(p, 33, 1, got); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("retried write data mismatch")
		}
		if err := cl.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if r.mgr.AbortsIssued != 1 {
		t.Errorf("manager AbortsIssued = %d, want 1", r.mgr.AbortsIssued)
	}
}

// TestHeartbeatReclaim covers the session/lease layer end to end: a
// client that never heartbeats loses its lease, the reaper deletes its
// queue pair and frees its windows, the QID is re-granted to the next
// client, and the dead client's own straggler release is refused with
// ErrQueueReclaimed (fatal, not retryable).
func TestHeartbeatReclaim(t *testing.T) {
	r := newRig(t, 3, cluster.NVMeConfig{})
	r.startWith(t, core.ManagerParams{LeaseNs: 200 * sim.Microsecond}, func(p *sim.Proc) {
		// Client A: no HeartbeatNs — its lease is never refreshed.
		a, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Fatalf("client A: %v", err)
		}
		qidA := a.QID()
		buf := make([]byte, 512)
		if err := a.ReadBlocks(p, 0, 1, buf); err != nil {
			t.Fatalf("A read: %v", err)
		}
		p.Sleep(600 * sim.Microsecond)
		if r.mgr.Reclaims != 1 {
			t.Fatalf("Reclaims = %d, want 1", r.mgr.Reclaims)
		}
		if r.mgr.ReclaimsByHost[1] != 1 {
			t.Errorf("ReclaimsByHost[1] = %d, want 1", r.mgr.ReclaimsByHost[1])
		}
		ev := r.mgr.ReclaimLog[0]
		if ev.QID != qidA || ev.Host != 1 || ev.Err != "" {
			t.Errorf("reclaim event %+v", ev)
		}
		if ev.DurationNs <= 0 {
			t.Errorf("reclaim duration %d, want > 0", ev.DurationNs)
		}
		// The dead client's own release must be refused, fatally.
		err = a.Close(p)
		if !errors.Is(err, core.ErrQueueReclaimed) {
			t.Fatalf("A close returned %v, want ErrQueueReclaimed", err)
		}
		if !core.IsFatal(err) {
			t.Errorf("ErrQueueReclaimed not classified fatal: %v", err)
		}
		// The freed QID is reusable: a heartbeating client gets it and
		// does real I/O, surviving well past a lease period.
		b, err := core.NewClient(p, "dnvme2", r.svc, r.c.Hosts[2].Node, r.mgr,
			core.ClientParams{HeartbeatNs: 50 * sim.Microsecond})
		if err != nil {
			t.Fatalf("client B: %v", err)
		}
		if b.QID() != qidA {
			t.Errorf("B granted QID %d, want reclaimed QID %d", b.QID(), qidA)
		}
		p.Sleep(500 * sim.Microsecond)
		if err := b.ReadBlocks(p, 0, 1, buf); err != nil {
			t.Fatalf("B read after lease periods: %v", err)
		}
		if r.mgr.Reclaims != 1 {
			t.Errorf("heartbeating client reclaimed: Reclaims = %d", r.mgr.Reclaims)
		}
		if r.mgr.HeartbeatsSeen == 0 {
			t.Error("manager saw no heartbeats")
		}
		if err := b.Close(p); err != nil {
			t.Errorf("B close: %v", err)
		}
	})
}

// TestConcurrentReclaims lets two clients' leases expire in one reaper
// scan, so two reclaim processes delete queue pairs through the admin
// queue at once: both teardowns must succeed and both QIDs must be
// granted again.
func TestConcurrentReclaims(t *testing.T) {
	r := newRig(t, 3, cluster.NVMeConfig{})
	r.startWith(t, core.ManagerParams{LeaseNs: 200 * sim.Microsecond}, func(p *sim.Proc) {
		dead := map[uint16]bool{}
		for host := 1; host <= 2; host++ {
			cl, err := core.NewClient(p, fmt.Sprintf("dnvme%d", host), r.svc, r.c.Hosts[host].Node, r.mgr, core.ClientParams{})
			if err != nil {
				t.Fatalf("client on host %d: %v", host, err)
			}
			dead[cl.QID()] = true
		}
		p.Sleep(600 * sim.Microsecond)
		log := r.mgr.ReclaimLog
		if len(log) != 2 {
			t.Fatalf("reclaims %+v, want 2", log)
		}
		if log[0].DetectedNs != log[1].DetectedNs {
			t.Fatalf("leases expired in different scans (%d, %d ns); the test needs one", log[0].DetectedNs, log[1].DetectedNs)
		}
		for _, ev := range log {
			if ev.Err != "" {
				t.Errorf("reclaim of QID %d: %s", ev.QID, ev.Err)
			}
		}
		if r.mgr.GrantedQueues != 0 {
			t.Errorf("GrantedQueues = %d after both reclaims, want 0", r.mgr.GrantedQueues)
		}
		var again []*core.Client
		for host := 1; host <= 2; host++ {
			cl, err := core.NewClient(p, fmt.Sprintf("dnvme%d-again", host), r.svc, r.c.Hosts[host].Node, r.mgr,
				core.ClientParams{HeartbeatNs: 50 * sim.Microsecond})
			if err != nil {
				t.Fatalf("client on host %d after reclaim: %v", host, err)
			}
			if !dead[cl.QID()] {
				t.Errorf("host %d granted QID %d, want one of the reclaimed %v", host, cl.QID(), dead)
			}
			delete(dead, cl.QID())
			again = append(again, cl)
		}
		for _, cl := range again {
			if err := cl.Close(p); err != nil {
				t.Errorf("close: %v", err)
			}
		}
	})
}

// TestQueueDeleteUnderConcurrentTraffic exercises the manager's
// delete-SQ/delete-CQ admin path while another client's I/O stream is
// in flight: the bystander must finish its full budget untouched and
// the freed QID must be re-grantable immediately.
func TestQueueDeleteUnderConcurrentTraffic(t *testing.T) {
	r := newRig(t, 3, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		a, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Fatalf("client A: %v", err)
		}
		b, err := core.NewClient(p, "dnvme2", r.svc, r.c.Hosts[2].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Fatalf("client B: %v", err)
		}
		qidA := a.QID()
		const n = 100
		var done, errs int
		fin := sim.NewEvent(p.Kernel())
		p.Kernel().Spawn("bystander", func(bp *sim.Proc) {
			defer fin.Trigger(nil)
			buf := make([]byte, 512)
			for i := 0; i < n; i++ {
				if err := b.WriteBlocks(bp, uint64(i%64), 1, buf); err != nil {
					errs++
					continue
				}
				done++
			}
		})
		// Let B's stream get going, then delete A's queue pair under it.
		p.Sleep(20 * sim.Microsecond)
		if err := a.Close(p); err != nil {
			t.Fatalf("A close mid-traffic: %v", err)
		}
		// The freed QID is immediately re-grantable while B still runs.
		c2, err := core.NewClient(p, "dnvme1b", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Fatalf("client C: %v", err)
		}
		if c2.QID() != qidA {
			t.Errorf("C granted QID %d, want freed QID %d", c2.QID(), qidA)
		}
		buf := make([]byte, 512)
		if err := c2.ReadBlocks(p, 0, 1, buf); err != nil {
			t.Fatalf("C read on reused QID: %v", err)
		}
		p.Wait(fin)
		if done != n || errs != 0 {
			t.Errorf("bystander completed %d/%d with %d errors", done, n, errs)
		}
		if err := c2.Close(p); err != nil {
			t.Errorf("C close: %v", err)
		}
		if err := b.Close(p); err != nil {
			t.Errorf("B close: %v", err)
		}
	})
}

// TestCloseWhileQuarantined is the late-CQE-after-Close regression test:
// closing a client while a timed-out command's slot is quarantined must
// NOT free the bounce segment out from under the in-flight command. Close
// has to wait for the poller to drain the late completion — a teardown
// that raced it would either double-release the slot or let the device
// DMA into recycled memory (and the controller would go fatal writing a
// CQE into a freed segment).
func TestCloseWhileQuarantined(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr,
			core.ClientParams{QueueDepth: 2, IOTimeoutNs: 50 * sim.Microsecond})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		r.c.Hosts[0].Adapter.InjectStall(100*sim.Microsecond, 120*sim.Microsecond)
		buf := bytes.Repeat([]byte{0xEE}, 512)
		if err := cl.WriteBlocks(p, 5, 1, buf); !errors.Is(err, core.ErrIOTimeout) {
			t.Fatalf("stalled write returned %v, want ErrIOTimeout", err)
		}
		if got := cl.QuarantinedSlots(); got != 1 {
			t.Fatalf("quarantined slots = %d, want 1", got)
		}
		// Close immediately, with the late CQE still owed.
		before := p.Now()
		if err := cl.Close(p); err != nil {
			t.Fatalf("close while quarantined: %v", err)
		}
		if p.Now() == before {
			t.Error("close did not wait for the quarantine drain")
		}
		if cl.LateCompletions != 1 {
			t.Errorf("LateCompletions = %d, want 1", cl.LateCompletions)
		}
		if got := cl.QuarantinedSlots(); got != 0 {
			t.Errorf("quarantined slots = %d after close, want 0", got)
		}
		if cl.AbandonedSlots != 0 {
			t.Errorf("AbandonedSlots = %d, want 0 (drain completed)", cl.AbandonedSlots)
		}
		if r.ctrl.Fatal() {
			t.Fatal("controller went fatal: teardown raced the in-flight command")
		}
		// The queue pair tore down cleanly: a fresh client gets the QID and
		// the late write's data actually landed before the queues died.
		cl2, err := core.NewClient(p, "dnvme1b", r.svc, r.c.Hosts[1].Node, r.mgr, core.ClientParams{})
		if err != nil {
			t.Fatalf("client after close: %v", err)
		}
		got := make([]byte, 512)
		if err := cl2.ReadBlocks(p, 5, 1, got); err != nil {
			t.Fatalf("read back: %v", err)
		}
		if !bytes.Equal(got, buf) {
			t.Error("quarantined write lost despite drained close")
		}
		if err := cl2.Close(p); err != nil {
			t.Errorf("second close: %v", err)
		}
	})
}

// TestAccessorScrapeStorm hammers the accessors the telemetry HTTP scrape
// path reads — Crashed and QuarantinedSlots — from real OS goroutines
// while the simulation mutates the client (timeouts parking slots, the
// poller draining them, Close tearing down). Run under -race this proves
// the accessors are synchronization-safe outside the sim loop.
func TestAccessorScrapeStorm(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapes atomic.Uint64
	r.start(t, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr,
			core.ClientParams{QueueDepth: 2, IOTimeoutNs: 50 * sim.Microsecond})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Scrape before checking stop: every goroutine samples the
				// accessors at least once even if it is first scheduled
				// after the sim run finished.
				for {
					_ = cl.Crashed()
					if n := cl.QuarantinedSlots(); n < 0 || n > 1 {
						t.Errorf("QuarantinedSlots = %d, want 0..1", n)
						return
					}
					scrapes.Add(1)
					select {
					case <-stop:
						return
					default:
					}
					runtime.Gosched()
				}
			}()
		}
		// Traffic that exercises every quarantine transition under the
		// scrapers: timeout parks a slot, the late CQE drains it, the
		// close-drain path runs last.
		r.c.Hosts[0].Adapter.InjectStall(100*sim.Microsecond, 120*sim.Microsecond)
		buf := make([]byte, 512)
		if err := cl.WriteBlocks(p, 1, 1, buf); !errors.Is(err, core.ErrIOTimeout) {
			t.Fatalf("stalled write returned %v, want ErrIOTimeout", err)
		}
		for i := 0; i < 20; i++ {
			if err := cl.WriteBlocks(p, uint64(i), 1, buf); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
		if err := cl.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	close(stop)
	wg.Wait()
	if scrapes.Load() == 0 {
		t.Error("scrape goroutines never ran")
	}
}

// TestManagerRestartGrace: a manager restart delays RPCs rather than
// failing them, and the post-restart grace period keeps the reaper from
// expiring leases the clients had no way to refresh during the outage.
func TestManagerRestartGrace(t *testing.T) {
	r := newRig(t, 2, cluster.NVMeConfig{})
	r.startWith(t, core.ManagerParams{LeaseNs: 200 * sim.Microsecond}, func(p *sim.Proc) {
		cl, err := core.NewClient(p, "dnvme1", r.svc, r.c.Hosts[1].Node, r.mgr,
			core.ClientParams{HeartbeatNs: 50 * sim.Microsecond})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		buf := make([]byte, 512)
		if err := cl.ReadBlocks(p, 0, 1, buf); err != nil {
			t.Fatalf("read before restart: %v", err)
		}
		r.mgr.InjectRestart(300 * sim.Microsecond)
		// Outage (300µs) + grace (LeaseNs) + margin: if the grace window
		// were missing, the reaper would see a 300µs-stale lease the
		// instant the manager came back and reclaim a live client.
		p.Sleep(700 * sim.Microsecond)
		if r.mgr.Restarts != 1 {
			t.Errorf("Restarts = %d, want 1", r.mgr.Restarts)
		}
		if r.mgr.Reclaims != 0 {
			t.Fatalf("live heartbeating client reclaimed across restart (Reclaims=%d)", r.mgr.Reclaims)
		}
		if err := cl.ReadBlocks(p, 0, 1, buf); err != nil {
			t.Fatalf("read after restart: %v", err)
		}
		if err := cl.Close(p); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}
