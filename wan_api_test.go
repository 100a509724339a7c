package chc_test

import (
	"reflect"
	"testing"
	"time"

	"chc"
)

// wanRun executes one simulator run under a WAN virtual-time schedule and
// returns its decided polytopes keyed by process.
func wanRun(t *testing.T, spec string, seed int64) map[chc.ProcID]*chc.Polytope {
	t.Helper()
	plan, err := chc.ParseWANPlan(spec)
	if err != nil {
		t.Fatalf("ParseWANPlan(%q): %v", spec, err)
	}
	p := params()
	sched, err := chc.NewWANScheduler(plan, p.N, seed)
	if err != nil {
		t.Fatalf("NewWANScheduler: %v", err)
	}
	cfg := chc.RunConfig{
		Params:    p,
		Inputs:    inputs2D(p.N, 7),
		Scheduler: sched,
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := chc.CheckAgreement(result); err != nil || !rep.Holds {
		t.Fatalf("agreement under WAN schedule: %+v, %v", rep, err)
	}
	if err := chc.CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	return result.Outputs
}

// TestWANSchedulerDeterministic pins the subsystem's reproducibility
// contract: the same plan and seed yield bitwise-identical decisions, and a
// different seed yields a different (but still correct) execution.
func TestWANSchedulerDeterministic(t *testing.T) {
	const spec = "us-eu-ap,delay=1,jitter=0.3,tail=0.05,cut=us->eu@5ms-40ms"
	a := wanRun(t, spec, 42)
	b := wanRun(t, spec, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same WAN seed produced different decisions")
	}
	// A different seed must still satisfy the paper's guarantees (checked in
	// wanRun); its decisions usually differ, but that is not a contract.
	wanRun(t, spec, 43)
}

// TestWithWANNetworked shapes a live in-process run through a geo topology
// and checks shaping is observable yet consumes no fault budget.
func TestWithWANNetworked(t *testing.T) {
	plan, err := chc.ParseWANPlan("3-regions,delay=0.02,tail=0.1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := chc.RunConfig{
		Params:    params(),
		Inputs:    inputs2D(5, 3),
		Transport: chc.InProcess,
		Timeout:   60 * time.Second,
		Env:       chc.Env{WAN: &plan, WANSeed: 9},
	}
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := chc.CheckAgreement(result); err != nil || !rep.Holds {
		t.Fatalf("agreement under WAN shaping: %+v, %v", rep, err)
	}
	if err := chc.CheckValidity(result, &cfg); err != nil {
		t.Error(err)
	}
	if result.Stats == nil || result.Stats.Net.WANDelayedFrames == 0 {
		t.Error("WAN shaping left no trace in Stats.Net.WANDelayedFrames")
	}
	if result.Stats.Net.InjectedDrops != 0 {
		t.Errorf("WAN shaping dropped %d frames; the model is delay-only", result.Stats.Net.InjectedDrops)
	}
}
