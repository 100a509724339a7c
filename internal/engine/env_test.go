package engine_test

import (
	"strings"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/netfault"
	"chc/internal/runtime"
	"chc/internal/wal"
	"chc/internal/wan"
)

// TestEnvValidate is the one table over the environment's transport and
// cross-field rules: every field × every transport, plus the "off means
// absent" cases. want is a substring of the rejection, "" for accepted.
func TestEnvValidate(t *testing.T) {
	const (
		tcpOnly   = "needs the TCP transport"
		networked = "needs a networked transport"
		needsWAL  = "requires WALDir"
	)
	light := chaos.Light()
	flaky := netfault.Flaky()
	regions, err := wan.ParsePlan("3-regions")
	if err != nil {
		t.Fatal(err)
	}
	netOff, err := netfault.ParsePlan("off")
	if err != nil {
		t.Fatal(err)
	}
	restarts := []runtime.RestartPlan{{Proc: 1, KillAfterSends: 5}}
	withWAL := func(e runtime.Env) runtime.Env { e.WALDir = "/wal"; return e }

	cases := []struct {
		name         string
		env          runtime.Env
		sim, ch, tcp string
	}{
		{name: "zero", env: runtime.Env{}},
		{name: "seeds alone", env: runtime.Env{ChaosSeed: 3, WANSeed: 4}},
		{name: "Chaos", env: runtime.Env{Chaos: &light}, sim: networked},
		{name: "NetFaults", env: runtime.Env{NetFaults: &flaky}, sim: tcpOnly, ch: tcpOnly},
		{name: "Wire", env: runtime.Env{Wire: &runtime.WireConfig{FlushDeadline: 200 * time.Microsecond}}, sim: tcpOnly, ch: tcpOnly},
		{name: "WAN", env: runtime.Env{WAN: &regions, WANSeed: 1}},
		{name: "WALDir", env: runtime.Env{WALDir: "/wal"}, sim: networked},
		{name: "WALFS without WALDir", env: runtime.Env{WALFS: wal.OSFS()}, sim: needsWAL, ch: needsWAL, tcp: needsWAL},
		{name: "Checkpoint without WALDir", env: runtime.Env{Checkpoint: wal.CheckpointPolicy{EveryBytes: 1}}, sim: needsWAL, ch: needsWAL, tcp: needsWAL},
		{name: "Durability without WALDir", env: runtime.Env{Durability: runtime.Degrade}, sim: needsWAL, ch: needsWAL, tcp: needsWAL},
		{name: "Restarts without WALDir", env: runtime.Env{Restarts: restarts}, sim: networked, ch: needsWAL, tcp: needsWAL},
		{name: "WALFS", env: withWAL(runtime.Env{WALFS: wal.OSFS()}), sim: networked},
		{name: "Checkpoint", env: withWAL(runtime.Env{Checkpoint: wal.CheckpointPolicy{EveryBytes: 1}}), sim: networked},
		{name: "Durability", env: withWAL(runtime.Env{Durability: runtime.Degrade}), sim: networked},
		{name: "Restarts", env: withWAL(runtime.Env{Restarts: restarts}), sim: networked},
		{name: "everything", env: runtime.Env{
			Chaos: &light, NetFaults: &flaky, Wire: &runtime.WireConfig{FlushDeadline: 200 * time.Microsecond}, WAN: &regions,
			WALDir: "/wal", WALFS: wal.OSFS(), Checkpoint: wal.CheckpointPolicy{EveryBytes: 1},
			Durability: runtime.Degrade, Restarts: restarts,
		}, sim: tcpOnly, ch: tcpOnly},
		// A plan that injects nothing is absent, on every transport.
		{name: "NetFaults off", env: runtime.Env{NetFaults: &netOff}},
		{name: "Chaos off", env: runtime.Env{Chaos: &chaos.Profile{}}},
		{name: "Wire default", env: runtime.Env{Wire: &runtime.WireConfig{}}},
		{name: "WAN off", env: runtime.Env{WAN: &wan.Plan{}}},
		{name: "empty Restarts", env: runtime.Env{Restarts: []runtime.RestartPlan{}}},
		{name: "zero Checkpoint", env: runtime.Env{Checkpoint: wal.CheckpointPolicy{}}},
	}
	for _, tc := range cases {
		for tr, want := range map[engine.Transport]string{
			engine.TransportSim: tc.sim, engine.TransportChannel: tc.ch, engine.TransportTCP: tc.tcp,
		} {
			err := tc.env.Validate(tr)
			switch {
			case want == "" && err != nil:
				t.Errorf("%s on %v: rejected: %v", tc.name, tr, err)
			case want != "" && err == nil:
				t.Errorf("%s on %v: accepted, want %q", tc.name, tr, want)
			case want != "" && !strings.Contains(err.Error(), want):
				t.Errorf("%s on %v: %v, want %q", tc.name, tr, err, want)
			}
		}
		if err := tc.env.Validate(engine.Transport(99)); err == nil {
			t.Errorf("%s: unknown transport accepted", tc.name)
		}
	}
}

// TestEnvRulesReachEveryEntryPoint checks that both engine entry points
// apply the table above, and keep the rules about what Env does not hold:
// the Scheduler/WAN exclusion, schedulers or a delivery bound on networked
// transports, a resident simulator, and the retention horizon without a
// journal.
func TestEnvRulesReachEveryEntryPoint(t *testing.T) {
	params := core.Params{N: 5, F: 1, D: 2, Epsilon: 0.5, InputLower: 0, InputUpper: 12}
	cfg := core.RunConfig{Params: params, Inputs: gridInputs(5, 2, 3)}
	spec := engine.Spec{N: 5, Instances: []engine.InstanceSpec{cfg.Spec()}}
	regions, _ := wan.ParsePlan("3-regions")
	bad := runtime.Env{Durability: runtime.Degrade}

	for name, opts := range map[string]engine.Options{
		"env rule":                {Transport: engine.TransportChannel, Env: bad},
		"WAN and Scheduler":       {Scheduler: dist.NewRoundRobinScheduler(), Env: runtime.Env{WAN: &regions}},
		"networked Scheduler":     {Transport: engine.TransportChannel, Scheduler: dist.NewRoundRobinScheduler()},
		"networked MaxDeliveries": {Transport: engine.TransportTCP, MaxDeliveries: 100},
		"unknown transport":       {Transport: engine.Transport(99)},
		"sim byte-stream plan":    {Env: runtime.Env{NetFaults: &netfault.Plan{FlipProb: 0.1}}},
	} {
		if res, err := engine.Run(spec, opts); err == nil || res != nil {
			t.Errorf("Run(%s): res=%v err=%v, want a configuration error", name, res, err)
		}
	}
	// An empty WAN plan does not claim the simulator's delivery order.
	if _, err := engine.Run(spec, engine.Options{Scheduler: dist.NewRoundRobinScheduler(), Env: runtime.Env{WAN: &wan.Plan{}}}); err != nil {
		t.Errorf("Run(Scheduler + empty WAN): %v", err)
	}

	for name, opts := range map[string]engine.ResidentOptions{
		"env rule":                   {Transport: engine.TransportChannel, Env: bad},
		"simulator":                  {Transport: engine.TransportSim},
		"unknown transport":          {Transport: engine.Transport(99)},
		"RetireEvery without WALDir": {Transport: engine.TransportChannel, RetireEvery: 4},
	} {
		if r, err := engine.StartResident(4, opts); err == nil {
			_ = r.Close()
			t.Errorf("StartResident(%s): accepted", name)
		}
	}
}

// TestCrashPlansRejectedOnEveryTransport: a crash plan the simulator refuses
// — an unknown process, a negative budget, two plans for one process — is
// refused by every executor and both engine entry points, before anything
// runs.
func TestCrashPlansRejectedOnEveryTransport(t *testing.T) {
	params := core.Params{N: 5, F: 1, D: 2, Epsilon: 0.5, InputLower: 0, InputUpper: 12}
	cfg := core.RunConfig{Params: params, Inputs: gridInputs(5, 2, 3)}
	spec := engine.Spec{N: 5, Instances: []engine.InstanceSpec{cfg.Spec()}}
	for name, plans := range map[string][]dist.CrashPlan{
		"unknown process": {{Proc: 9}},
		"negative budget": {{Proc: 1, AfterSends: -1}},
		"duplicate":       {{Proc: 1, AfterSends: 0}, {Proc: 1, AfterSends: 5}},
	} {
		for _, tr := range []engine.Transport{engine.TransportSim, engine.TransportChannel, engine.TransportTCP} {
			if res, err := engine.Run(spec, engine.Options{Transport: tr, Crashes: plans, Timeout: time.Minute}); err == nil || res != nil {
				t.Errorf("Run(%s) on %v: res=%v err=%v, want a configuration error", name, tr, res, err)
			}
			if tr == engine.TransportSim {
				continue
			}
			if r, err := engine.StartResident(5, engine.ResidentOptions{Transport: tr, Crashes: plans}); err == nil {
				_ = r.Close()
				t.Errorf("StartResident(%s) on %v: accepted", name, tr)
			}
		}
	}
}

// TestEnvOffInsertsNoMachinery is the behavioural half of "off means
// absent": an empty chaos profile on the channel transport must not insert
// the reliable-link stack, and an "off" byte-stream plan must run there.
func TestEnvOffInsertsNoMachinery(t *testing.T) {
	params := core.Params{N: 5, F: 1, D: 2, Epsilon: 0.5, InputLower: 0, InputUpper: 12}
	cfg := core.RunConfig{Params: params, Inputs: gridInputs(5, 2, 3)}
	spec := engine.Spec{N: 5, Instances: []engine.InstanceSpec{cfg.Spec()}}
	res, err := engine.Run(spec, engine.Options{
		Transport: engine.TransportChannel,
		Timeout:   time.Minute,
		Env:       runtime.Env{Chaos: &chaos.Profile{}, NetFaults: &netfault.Plan{}, Wire: &runtime.WireConfig{}, WAN: &wan.Plan{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames := res.Cluster.Net.FramesSent; frames != 0 {
		t.Errorf("all-off environment sent %d link frames, want the direct path (0)", frames)
	}
	if len(res.Crashed) != 0 {
		t.Errorf("crashed: %v", res.Crashed)
	}
}
