package shareddisk_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/shareddisk"
	"repro/internal/sim"
)

func runScenario(t *testing.T, s cluster.Scenario, fn func(p *sim.Proc, q *block.Queue)) {
	t.Helper()
	err := cluster.RunWorkload(s, cluster.ScenarioConfig{}, func(p *sim.Proc, env *cluster.Env) error {
		fn(p, env.Queue)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFormatAndOpen(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if err := shareddisk.Format(p, q, 4, 64); err != nil {
			t.Fatalf("format: %v", err)
		}
		j, err := shareddisk.Open(p, q, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		sb := j.Superblock()
		if sb.Hosts != 4 || sb.ExtentBlocks != 64 {
			t.Fatalf("superblock %+v", sb)
		}
		if j.Len() != 0 {
			t.Fatalf("fresh journal has %d records", j.Len())
		}
	})
}

func TestOpenUnformatted(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if _, err := shareddisk.Open(p, q, 0); !errors.Is(err, shareddisk.ErrNotFormatted) {
			t.Fatalf("got %v, want ErrNotFormatted", err)
		}
	})
}

func TestAppendReadBack(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if err := shareddisk.Format(p, q, 2, 16); err != nil {
			t.Fatal(err)
		}
		j, err := shareddisk.Open(p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]byte
		for i := 0; i < 5; i++ {
			rec := []byte(fmt.Sprintf("record-%d", i))
			want = append(want, rec)
			if err := j.Append(p, rec); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
		got, err := j.ReadAll(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d records, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: %q != %q", i, got[i], want[i])
			}
		}
	})
}

func TestRecoveryAfterReopen(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if err := shareddisk.Format(p, q, 1, 16); err != nil {
			t.Fatal(err)
		}
		j1, _ := shareddisk.Open(p, q, 0)
		j1.Append(p, []byte("before crash"))
		j1.Append(p, []byte("also before"))
		// "Crash": reopen from disk state only.
		j2, err := shareddisk.Open(p, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if j2.Len() != 2 {
			t.Fatalf("recovered %d records, want 2", j2.Len())
		}
		if err := j2.Append(p, []byte("after recovery")); err != nil {
			t.Fatal(err)
		}
		got, _ := j2.ReadAll(p, 0)
		if len(got) != 3 || string(got[2]) != "after recovery" {
			t.Fatalf("records after recovery: %q", got)
		}
	})
}

func TestExtentFull(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if err := shareddisk.Format(p, q, 1, 3); err != nil {
			t.Fatal(err)
		}
		j, _ := shareddisk.Open(p, q, 0)
		for i := 0; i < 3; i++ {
			if err := j.Append(p, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Append(p, []byte("overflow")); !errors.Is(err, shareddisk.ErrFull) {
			t.Fatalf("got %v, want ErrFull", err)
		}
	})
}

func TestRecordTooLarge(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if err := shareddisk.Format(p, q, 1, 4); err != nil {
			t.Fatal(err)
		}
		j, _ := shareddisk.Open(p, q, 0)
		big := make([]byte, q.Device().BlockSize())
		if err := j.Append(p, big); !errors.Is(err, shareddisk.ErrTooLarge) {
			t.Fatalf("got %v, want ErrTooLarge", err)
		}
	})
}

func TestBadHostID(t *testing.T) {
	runScenario(t, cluster.LinuxLocal, func(p *sim.Proc, q *block.Queue) {
		if err := shareddisk.Format(p, q, 2, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := shareddisk.Open(p, q, 5); !errors.Is(err, shareddisk.ErrBadHost) {
			t.Fatalf("open: %v", err)
		}
		j, _ := shareddisk.Open(p, q, 0)
		if _, err := j.ReadAll(p, 9); !errors.Is(err, shareddisk.ErrBadHost) {
			t.Fatalf("readall: %v", err)
		}
	})
}

// TestSharedJournalAcrossHosts is the real point: two hosts of the
// distributed driver append to their own extents concurrently, then each
// reads the other's journal — a shared-disk filesystem in miniature over
// one single-function NVMe device.
func TestSharedJournalAcrossHosts(t *testing.T) {
	r, err := cluster.NewRig(cluster.RigConfig{
		Cluster: cluster.Config{Hosts: 3, AdapterWindows: 256},
		NVMe:    []cluster.NVMeConfig{{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const recsPerHost = 6
	err = r.Run("main", func(p *sim.Proc) error {
		mgr, err := r.Manager(p, 0, core.ManagerParams{})
		if err != nil {
			return err
		}
		queues := make([]*block.Queue, 2)
		for i := 0; i < 2; i++ {
			cl, err := core.NewClient(p, fmt.Sprintf("d%d", i), r.Svc, r.Hosts[i+1].Node, mgr, core.ClientParams{})
			if err != nil {
				return fmt.Errorf("client %d: %w", i, err)
			}
			queues[i] = block.NewQueue(cl)
		}
		// Host 1 formats; both open.
		if err := shareddisk.Format(p, queues[0], 2, 32); err != nil {
			return fmt.Errorf("format: %w", err)
		}
		done := make([]*sim.Event, 2)
		for i := 0; i < 2; i++ {
			host := i
			done[i] = sim.NewEvent(r.K)
			fin := done[i]
			r.Go(fmt.Sprintf("writer%d", host), func(wp *sim.Proc) {
				defer fin.Trigger(nil)
				j, err := shareddisk.Open(wp, queues[host], host)
				if err != nil {
					t.Errorf("open %d: %v", host, err)
					return
				}
				for k := 0; k < recsPerHost; k++ {
					rec := []byte(fmt.Sprintf("host%d-rec%d", host, k))
					if err := j.Append(wp, rec); err != nil {
						t.Errorf("append %d/%d: %v", host, k, err)
						return
					}
				}
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}
		// Cross-read: host 1's client reads host 0's journal and vice
		// versa, through the same shared controller.
		for reader := 0; reader < 2; reader++ {
			j, err := shareddisk.Open(p, queues[reader], reader)
			if err != nil {
				return fmt.Errorf("reopen %d: %w", reader, err)
			}
			other := 1 - reader
			got, err := j.ReadAll(p, other)
			if err != nil {
				return fmt.Errorf("cross read %d->%d: %w", reader, other, err)
			}
			if len(got) != recsPerHost {
				return fmt.Errorf("reader %d saw %d records from host %d, want %d",
					reader, len(got), other, recsPerHost)
			}
			for k, rec := range got {
				if want := fmt.Sprintf("host%d-rec%d", other, k); string(rec) != want {
					return fmt.Errorf("reader %d record %d = %q, want %q", reader, k, rec, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
