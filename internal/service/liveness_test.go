package service

import (
	"errors"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/runtime"
	"chc/internal/telemetry"
)

// TestServiceInstanceDeadline stalls the cluster past its fault tolerance
// (two crash-stop faults against n=4, f=1) so submitted instances can never
// decide, and checks the deadline watcher converts the stall into a distinct
// terminal outcome instead of pinning the running slot forever.
func TestServiceInstanceDeadline(t *testing.T) {
	prev := telemetry.Enable(true)
	defer telemetry.Enable(prev)

	s, err := New(Config{
		N:                4,
		InstanceDeadline: 1500 * time.Millisecond,
		Crashes: []dist.CrashPlan{
			{Proc: 2, AfterSends: 0},
			{Proc: 3, AfterSends: 0},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	id, _, err := s.Submit(testInstance(4, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitDecided(t, s, id, 30*time.Second)
	if st.State != StateFailed {
		t.Fatalf("stalled instance state = %v, want %v", st.State, StateFailed)
	}
	if !errors.Is(st.Err, ErrDeadline) {
		t.Fatalf("stalled instance err = %v, want ErrDeadline", st.Err)
	}

	var deadlined float64
	for _, fam := range telemetry.Default().Snapshot().Metrics {
		if fam.Name != "chc_service_instances_finished_total" {
			continue
		}
		for _, sm := range fam.Samples {
			if sm.Labels["outcome"] == "deadline" {
				deadlined += sm.Value
			}
		}
	}
	if deadlined < 1 {
		t.Errorf("no chc_service_instances_finished_total{outcome=%q} samples recorded", "deadline")
	}
}

// TestServiceDeadlineLeavesFastInstancesAlone runs a healthy cluster under a
// generous deadline: every instance must decide normally, proving the watcher
// is an upper bound, not a scheduler.
func TestServiceDeadlineLeavesFastInstancesAlone(t *testing.T) {
	s, err := New(Config{N: 4, InstanceDeadline: 30 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	id, _, err := s.Submit(testInstance(4, 3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitDecided(t, s, id, 30*time.Second)
	if st.State != StateDecided {
		t.Fatalf("instance state = %v (err %v), want decided", st.State, st.Err)
	}
}

// TestServiceWALRetire drives more retirements than the retention horizon and
// checks the engine checkpointed (and so compacted) the journals on the way.
func TestServiceWALRetire(t *testing.T) {
	s, err := New(Config{N: 4, Env: runtime.Env{WALDir: t.TempDir()}, WALRetire: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	const count = 5
	for k := 0; k < count; k++ {
		id, _, err := s.Submit(testInstance(4, int64(k+1)))
		if err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
		st := waitDecided(t, s, id, 60*time.Second)
		if st.State != StateDecided {
			t.Fatalf("instance %d state %v, err %v", k, st.State, st.Err)
		}
	}
	// Retirement checkpoints run off the hot path; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := s.Session().Stats(); st.Net.WALCheckpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no WAL checkpoints after %d retirements with WALRetire=2: %+v",
				count, s.Session().Stats().Net)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
