package service

import (
	"reflect"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/diskfault"
	"chc/internal/engine"
	"chc/internal/multiplex"
	"chc/internal/netfault"
	"chc/internal/runtime"
	"chc/internal/wal"
	"chc/internal/wan"
)

// TestEnvDeclaredOnce walks the configuration structs of the stack and
// fails if one of them declares a field of its own that runtime.Env already
// holds: the environment is embedded, never copied, so a layer cannot fall
// out of step with the one below it. The runtime's RecoveryConfig does not
// embed it — it is the caller's half of recovery beside the Env — but must
// not restate any of it either.
func TestEnvDeclaredOnce(t *testing.T) {
	envType := reflect.TypeOf(runtime.Env{})
	for _, cfg := range []struct {
		v     any
		embed bool
	}{
		{engine.Options{}, true}, {engine.ResidentOptions{}, true},
		{multiplex.BatchConfig{}, true}, {multiplex.SessionConfig{}, true},
		{Config{}, true}, {runtime.Config{}, true},
		{runtime.RecoveryConfig{}, false},
	} {
		typ := reflect.TypeOf(cfg.v)
		embedded := false
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if f.Anonymous && f.Type == envType {
				embedded = true
				continue
			}
			if _, dup := envType.FieldByName(f.Name); dup {
				t.Errorf("%v declares %s itself; it belongs to runtime.Env only", typ, f.Name)
			}
		}
		if embedded != cfg.embed {
			t.Errorf("%v embeds runtime.Env: %v, want %v", typ, embedded, cfg.embed)
		}
	}
}

// TestEnvForwardedEndToEnd sets every field of the environment on a
// service.Config and checks each one took effect in the cluster three layers
// down (service → session → resident engine → runtime): the property the
// hand-written forwarding blocks used to be silently responsible for.
func TestEnvForwardedEndToEnd(t *testing.T) {
	light := chaos.Light()
	plan, err := wan.ParsePlan("3-regions,delay=0.002")
	if err != nil {
		t.Fatal(err)
	}
	env := runtime.Env{
		Chaos: &light, ChaosSeed: 3,
		NetFaults: &netfault.Plan{StallProb: 0.01, StallMax: 200 * time.Microsecond, Seed: 5},
		Wire:      &runtime.WireConfig{Compress: true},
		WAN:       &plan, WANSeed: 7,
		WALDir:     "wal",
		WALFS:      diskfault.NewMemFS(),
		Checkpoint: wal.CheckpointPolicy{EveryBytes: 4 << 10},
		Durability: runtime.Degrade,
		Restarts:   []runtime.RestartPlan{{Proc: 2, KillAfterSends: 30, Downtime: 5 * time.Millisecond}},
	}
	for v, i := reflect.ValueOf(env), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("Env.%s is zero: this test must set every field", v.Type().Field(i).Name)
		}
	}
	s, err := New(Config{N: 4, Transport: engine.TransportTCP, Env: env})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	id, _, err := s.Submit(testInstance(4, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitDecided(t, s, id, 2*time.Minute); st.State != StateDecided || len(st.Result.Outputs) != 4 {
		t.Fatalf("state %v, %d outputs, err %v", st.State, len(st.Result.Outputs), st.Err)
	}
	net := s.Session().Stats().Net
	for name, moved := range map[string]bool{
		"Chaos (injected frame faults)":  net.InjectedDrops+net.InjectedDups+net.InjectedDelays > 0,
		"WAN (shaped TCP writes)":        net.WANShapedWrites > 0,
		"WALDir/WALFS (journal appends)": net.WALAppends > 0,
		"Checkpoint (WAL checkpoints)":   net.WALCheckpoints > 0,
		"Restarts (link resumes)":        net.Resumes > 0,
	} {
		if !moved {
			t.Errorf("%s: counter did not move: %+v", name, net)
		}
	}
}
