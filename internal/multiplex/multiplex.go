// Package multiplex runs a batch of independent consensus instances over a
// single network, the way a deployed system would amortise its connections
// across many agreement tasks. Each process hosts one sub-process per
// instance; the unified engine routes traffic by the numeric instance field
// every message carries, so the protocols cannot interfere, and the batch
// completes when every live sub-process of every instance has decided.
//
// Batches are heterogeneous: each instance picks its protocol — Algorithm
// CC, the vector-consensus baseline, or the Byzantine-compiled variant —
// and the whole batch runs over any engine transport (deterministic
// simulator, in-process channels, loopback TCP) with the full fault stack
// (crash plans, seeded chaos, write-ahead logging, crash recovery).
package multiplex

import (
	"errors"
	"fmt"
	"time"

	"chc/internal/byzantine"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
	"chc/internal/telemetry"
	"chc/internal/vectorconsensus"
)

// ProtocolKind selects the state machine an instance runs.
type ProtocolKind int

// Available protocols. The zero value is Algorithm CC, so pre-existing
// batch configurations keep their meaning.
const (
	// ProtocolCC is Algorithm CC: convex hull consensus under crash faults.
	ProtocolCC ProtocolKind = iota
	// ProtocolVector is the approximate vector consensus baseline:
	// Algorithm CC from a singleton round-0 state, point-valued decisions.
	ProtocolVector
	// ProtocolByzantine is the crash→Byzantine transformation (n >= 3f+1);
	// the instance's Faults configure adversarial participants.
	ProtocolByzantine
)

// String names the protocol.
func (p ProtocolKind) String() string {
	switch p {
	case ProtocolCC:
		return "cc"
	case ProtocolVector:
		return "vector"
	case ProtocolByzantine:
		return "byzantine"
	default:
		return fmt.Sprintf("protocol(%d)", int(p))
	}
}

// Instance describes one consensus instance of a batch. All instances share
// n (they run on the same processes) but may differ in every other
// parameter, in their protocol, and in their inputs.
type Instance struct {
	Params core.Params
	Inputs []geom.Point

	// Protocol selects the state machine (default: Algorithm CC).
	Protocol ProtocolKind

	// Faults configures Byzantine adversaries hosted by this instance
	// (ProtocolByzantine only). Faulty participants exist only inside this
	// instance: the same process runs correct participants of every other
	// instance, the way one compromised tenant does not corrupt the node's
	// other tenants.
	Faults []byzantine.Fault
}

// BatchConfig describes a batch execution.
type BatchConfig struct {
	N         int
	Instances []Instance

	// Faulty / Crashes apply to the shared processes (a crash kills every
	// instance hosted by that process, as it would in a real deployment).
	Faulty  []dist.ProcID
	Crashes []dist.CrashPlan

	// Seed / Scheduler drive the deterministic simulator (Transport ==
	// engine.TransportSim); Scheduler defaults to random delivery.
	Seed      int64
	Scheduler dist.Scheduler

	// Transport selects the executor (default: deterministic simulator).
	Transport engine.Transport

	// Timeout bounds networked runs (default: the engine's 5 minutes).
	Timeout time.Duration

	// Env is the cluster environment (link faults, wire tuning, WAN model,
	// write-ahead logging, restarts). Every journaled delivery carries its
	// instance, so a restarted node replays the whole batch it hosts.
	runtime.Env
}

// BatchResult aggregates per-instance outcomes. Outputs carries the
// polytope decisions (CC and Byzantine instances), Points the point
// decisions (vector instances); index k of each slice belongs to instance k
// and holds entries only for processes that decided it.
type BatchResult struct {
	Outputs []map[dist.ProcID]*polytope.Polytope
	Points  []map[dist.ProcID]geom.Point
	// Rounds records the round at which each process decided each instance.
	Rounds []map[dist.ProcID]int
	// Crashed marks processes that did not complete every hosted instance.
	Crashed map[dist.ProcID]bool
	// Stats aggregates message counts; on networked runs Stats.Net carries
	// the link-layer counters and Cluster the full runtime counters.
	Stats   *dist.Stats
	Cluster *runtime.ClusterStats

	// Telemetry is the registry snapshot taken when the batch finished, nil
	// while telemetry is disabled. It is a process-wide aggregate: counters
	// include everything the process has recorded so far, not just this run.
	Telemetry *telemetry.Snapshot
}

// InstanceResult carries the typed decisions of one instance: polytopes for
// CC and Byzantine instances, points for vector instances, entries only for
// processes that decided (Byzantine adversaries report nothing).
type InstanceResult struct {
	Outputs map[dist.ProcID]*polytope.Polytope
	Points  map[dist.ProcID]geom.Point
	Rounds  map[dist.ProcID]int
}

// NewInstanceResult returns an empty result to Collect decisions into.
func NewInstanceResult() InstanceResult {
	return InstanceResult{
		Outputs: make(map[dist.ProcID]*polytope.Polytope),
		Points:  make(map[dist.ProcID]geom.Point),
		Rounds:  make(map[dist.ProcID]int),
	}
}

// Collect records the typed decision process id's participant of inst
// reached, and the round it decided at. A participant that has not decided,
// one of any other type, or one inst's Faults make a Byzantine adversary
// leaves nothing: an adversary's "decision" carries no correctness
// obligations, so it is not reported.
func (r *InstanceResult) Collect(inst Instance, id dist.ProcID, sub dist.Process) {
	for _, f := range inst.Faults {
		if f.Proc == id {
			return
		}
	}
	switch v := sub.(type) {
	case *core.Process:
		if out, err := v.Output(); err == nil {
			r.Outputs[id] = out
		}
	case *vectorconsensus.Process:
		if pt, err := v.Output(); err == nil {
			r.Points[id] = pt
		}
	case *byzantine.Process:
		if out, err := v.Output(); err == nil {
			r.Outputs[id] = out
		}
	default:
		return
	}
	if dr, ok := sub.(interface{ DecidedRound() int }); ok {
		if round := dr.DecidedRound(); round > 0 {
			r.Rounds[id] = round
		}
	}
}

// specForInstance validates one instance against the shared process count
// and translates it into an engine spec.
func specForInstance(n int, inst Instance) (engine.InstanceSpec, error) {
	params := inst.Params.WithDefaults()
	if params.N != n {
		return engine.InstanceSpec{}, fmt.Errorf("has n=%d, cluster runs on n=%d", params.N, n)
	}
	if err := params.Validate(); err != nil {
		return engine.InstanceSpec{}, err
	}
	if len(inst.Inputs) != n {
		return engine.InstanceSpec{}, fmt.Errorf("has %d inputs for n=%d", len(inst.Inputs), n)
	}
	for i, x := range inst.Inputs {
		if err := params.CheckInput(x); err != nil {
			return engine.InstanceSpec{}, fmt.Errorf("input %d: %w", i, err)
		}
	}
	if len(inst.Faults) > 0 && inst.Protocol != ProtocolByzantine {
		return engine.InstanceSpec{}, fmt.Errorf("Faults require ProtocolByzantine, got %v", inst.Protocol)
	}
	switch inst.Protocol {
	case ProtocolCC:
		ccCfg := core.RunConfig{Params: params, Inputs: inst.Inputs}
		return ccCfg.Spec(), nil
	case ProtocolVector:
		return vectorconsensus.Spec(core.RunConfig{Params: params, Inputs: inst.Inputs}), nil
	case ProtocolByzantine:
		bzCfg := byzantine.RunConfig{Params: params, Inputs: inst.Inputs, Faults: inst.Faults}
		if err := byzantine.Validate(bzCfg); err != nil {
			return engine.InstanceSpec{}, err
		}
		return byzantine.Spec(bzCfg), nil
	default:
		return engine.InstanceSpec{}, fmt.Errorf("unknown protocol %d", int(inst.Protocol))
	}
}

// InstanceSpec validates one instance against the shared process count and
// returns the engine spec that builds its participants, so an admission
// layer rejects a malformed submission synchronously and opens the spec it
// validated.
func InstanceSpec(n int, inst Instance) (engine.InstanceSpec, error) {
	spec, err := specForInstance(n, inst)
	if err != nil {
		return engine.InstanceSpec{}, fmt.Errorf("multiplex: instance %w", err)
	}
	return spec, nil
}

// buildSpec validates the batch and translates it into an engine spec.
func buildSpec(cfg BatchConfig) (engine.Spec, error) {
	if cfg.N <= 0 {
		return engine.Spec{}, errors.New("multiplex: need positive N")
	}
	if len(cfg.Instances) == 0 {
		return engine.Spec{}, errors.New("multiplex: empty batch")
	}
	spec := engine.Spec{N: cfg.N, Instances: make([]engine.InstanceSpec, len(cfg.Instances))}
	for k, inst := range cfg.Instances {
		is, err := specForInstance(cfg.N, inst)
		if err != nil {
			return engine.Spec{}, fmt.Errorf("multiplex: instance %d %w", k, err)
		}
		spec.Instances[k] = is
	}
	return spec, nil
}

// RunBatch executes every instance of the batch concurrently over one
// network, selected by cfg.Transport.
func RunBatch(cfg BatchConfig) (*BatchResult, error) {
	spec, err := buildSpec(cfg)
	if err != nil {
		return nil, err
	}
	res, runErr := engine.Run(spec, engine.Options{
		Transport: cfg.Transport,
		Seed:      cfg.Seed,
		Scheduler: cfg.Scheduler,
		Crashes:   cfg.Crashes,
		Timeout:   cfg.Timeout,
		Env:       cfg.Env,
	})
	if res == nil {
		return nil, runErr
	}
	result := &BatchResult{
		Outputs: make([]map[dist.ProcID]*polytope.Polytope, len(cfg.Instances)),
		Points:  make([]map[dist.ProcID]geom.Point, len(cfg.Instances)),
		Rounds:  make([]map[dist.ProcID]int, len(cfg.Instances)),
		Crashed: res.Crashed,
		Stats:   res.Stats,
		Cluster: res.Cluster,
	}
	if telemetry.Enabled() {
		result.Telemetry = telemetry.Default().Snapshot()
	}
	for k, inst := range cfg.Instances {
		r := NewInstanceResult()
		for i := 0; i < cfg.N; i++ {
			r.Collect(inst, dist.ProcID(i), res.Sub(k, dist.ProcID(i)))
		}
		result.Outputs[k], result.Points[k], result.Rounds[k] = r.Outputs, r.Points, r.Rounds
	}
	if runErr != nil {
		return result, fmt.Errorf("multiplex: %w", runErr)
	}
	return result, nil
}
