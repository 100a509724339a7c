package core

import (
	"fmt"
	"time"

	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
	"chc/internal/telemetry"
)

// RunConfig describes one complete consensus execution: the instance, its
// crash-stop faults, and where it executes.
type RunConfig struct {
	Params Params

	// Inputs holds one input point per process. Inputs of processes listed
	// in Faulty are the "incorrect inputs" of the fault model.
	Inputs []geom.Point

	// Faulty is the set F of (potentially crashing, incorrect-input)
	// processes; |Faulty| <= Params.F.
	Faulty []dist.ProcID

	// Crashes optionally schedules crashes; every crashing process must be
	// listed in Faulty.
	Crashes []dist.CrashPlan

	// Seed drives the scheduler; Scheduler defaults to random delivery;
	// MaxDeliveries overrides the livelock guard (0 = default). All three
	// drive the simulator: a Scheduler or MaxDeliveries on a networked
	// transport is refused.
	Seed          int64
	Scheduler     dist.Scheduler
	MaxDeliveries int

	// Transport selects the executor (default: deterministic simulator).
	Transport engine.Transport

	// Timeout bounds networked runs (default: the engine's 5 minutes).
	Timeout time.Duration

	// Env is the cluster environment (link faults, wire tuning, WAN model,
	// write-ahead logging, restarts). Which transport accepts which field is
	// Env.Validate's rule, applied when the run starts.
	runtime.Env

	// SyntheticH0, when non-nil, bypasses round 0 entirely: process i
	// starts round 1 with the polytope spanned by SyntheticH0[i] instead of
	// running the stable vector + intersection. This is an analysis tool —
	// equation (18) bounds convergence from ARBITRARY initial polytopes, so
	// experiments can measure the contraction from controlled worst-case
	// starting states. Validity/optimality checks do not apply to such runs.
	SyntheticH0 [][]geom.Point
}

// Validate checks the execution description.
func (cfg *RunConfig) Validate() error {
	params := cfg.Params.withDefaults()
	if err := params.Validate(); err != nil {
		return err
	}
	if len(cfg.Inputs) != params.N {
		return fmt.Errorf("core: %d inputs for n=%d", len(cfg.Inputs), params.N)
	}
	if len(cfg.Faulty) > params.F {
		return fmt.Errorf("core: %d faulty processes exceeds f=%d", len(cfg.Faulty), params.F)
	}
	faulty := make(map[dist.ProcID]bool, len(cfg.Faulty))
	for _, id := range cfg.Faulty {
		if id < 0 || int(id) >= params.N {
			return fmt.Errorf("core: faulty process %d out of range", id)
		}
		if faulty[id] {
			return fmt.Errorf("core: duplicate faulty process %d", id)
		}
		faulty[id] = true
	}
	for _, c := range cfg.Crashes {
		if !faulty[c.Proc] {
			return fmt.Errorf("core: crash scheduled for process %d not in Faulty", c.Proc)
		}
	}
	if cfg.SyntheticH0 != nil && len(cfg.SyntheticH0) != params.N {
		return fmt.Errorf("core: %d synthetic initial states for n=%d", len(cfg.SyntheticH0), params.N)
	}
	return nil
}

// RunResult collects everything observable about one execution.
type RunResult struct {
	Params Params

	// Outputs maps every process that decided to its output polytope.
	Outputs map[dist.ProcID]*polytope.Polytope

	// Crashed reports which processes crashed during the run.
	Crashed map[dist.ProcID]bool

	// Degraded lists processes still in non-durable (quarantined) mode when
	// the run ended: their disks failed mid-run under the Degrade durability
	// policy and no re-arm succeeded before shutdown. Empty for simulator
	// runs and for networked runs without storage faults.
	Degraded []dist.ProcID

	// Faulty echoes the configured fault set F.
	Faulty map[dist.ProcID]bool

	// Traces holds the per-process execution records of decided processes.
	Traces map[dist.ProcID]Trace

	// Stats are the simulator's message statistics.
	Stats *dist.Stats

	// Telemetry is the registry snapshot taken when the run finished, nil
	// while telemetry is disabled. It is a process-wide aggregate: counters
	// include everything the process has recorded so far, not just this run.
	Telemetry *telemetry.Snapshot
}

// FaultFree returns the sorted IDs of processes outside F.
func (r *RunResult) FaultFree() []dist.ProcID {
	var out []dist.ProcID
	for i := 0; i < r.Params.N; i++ {
		if !r.Faulty[dist.ProcID(i)] {
			out = append(out, dist.ProcID(i))
		}
	}
	return out
}

// CorrectInputHull returns the convex hull of the inputs at fault-free
// processes — the validity reference of Definition 3. Under the
// CorrectInputs model every input is correct, including those of processes
// in F.
func CorrectInputHull(cfg *RunConfig) (*polytope.Polytope, error) {
	params := cfg.Params.withDefaults()
	faulty := make(map[dist.ProcID]bool, len(cfg.Faulty))
	for _, id := range cfg.Faulty {
		faulty[id] = true
	}
	var pts []geom.Point
	for i, x := range cfg.Inputs {
		if params.Model == CorrectInputs || !faulty[dist.ProcID(i)] {
			pts = append(pts, x)
		}
	}
	return polytope.New(pts, params.GeomEps)
}

// Spec returns the engine description of the consensus instance: one
// Algorithm CC participant per process. The config must already be
// validated; constructor closures are deterministic, so crash recovery can
// re-invoke them to rebuild a node for WAL replay.
func (cfg *RunConfig) Spec() engine.InstanceSpec { return cc.spec(cfg) }

func (v Variant) spec(cfg *RunConfig) engine.InstanceSpec {
	params := cfg.Params.withDefaults()
	return engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) {
		proc, err := v.NewProcess(params, id, cfg.Inputs[id])
		if err != nil {
			return nil, err
		}
		if cfg.SyntheticH0 != nil {
			if err := proc.setSyntheticH0(cfg.SyntheticH0[id]); err != nil {
				return nil, err
			}
		}
		return proc, nil
	}}
}

// Run executes one Algorithm CC instance over the unified engine on
// cfg.Transport, in cfg.Env — any transport, any fault stack — and is the one
// place a run becomes a RunResult. Fields that mean nothing on the chosen
// transport (a Scheduler on TCP, a WALDir on the simulator) are refused, not
// ignored. Crashes are crash-stop faults of processes in Faulty; a process
// killed and relaunched by Env.Restarts is a correct process.
//
// When the execution fails (deadlock, timeout, recovery failure) or a process
// ends in failure rather than a decision (e.g. an empty round-0 intersection),
// the partial result is returned beside the error: a failed process is not a
// crashed one, on any transport. Configuration errors return a nil result.
func Run(cfg RunConfig) (*RunResult, error) { return cc.Run(cfg) }

// Run is the package-level Run with a participant of v at every process.
func (v Variant) Run(cfg RunConfig) (*RunResult, error) {
	cfg.Params = cfg.Params.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	params := cfg.Params
	res, err := engine.Run(engine.Spec{N: params.N, Instances: []engine.InstanceSpec{v.spec(&cfg)}}, engine.Options{
		Transport:     cfg.Transport,
		Seed:          cfg.Seed,
		Scheduler:     cfg.Scheduler,
		MaxDeliveries: cfg.MaxDeliveries,
		Crashes:       cfg.Crashes,
		Timeout:       cfg.Timeout,
		Inputs:        cfg.Inputs,
		Env:           cfg.Env,
	})
	if res == nil {
		return nil, err
	}
	result := &RunResult{
		Params:   params,
		Outputs:  make(map[dist.ProcID]*polytope.Polytope),
		Crashed:  res.Crashed,
		Degraded: res.Degraded,
		Faulty:   make(map[dist.ProcID]bool),
		Traces:   make(map[dist.ProcID]Trace),
		Stats:    res.Stats,
	}
	if telemetry.Enabled() {
		result.Telemetry = telemetry.Default().Snapshot()
	}
	for _, id := range cfg.Faulty {
		result.Faulty[id] = true
	}
	// After restarts res.Sub is the relaunched incarnation, so the recovered
	// state is the one read.
	for i := 0; i < params.N; i++ {
		id := dist.ProcID(i)
		proc := res.Sub(0, id).(*Process)
		// Traces are collected for every process — crashed processes'
		// partial traces are needed to reconstruct transition matrices.
		result.Traces[id] = proc.TraceData()
		if proc.decided {
			out, oerr := proc.Output()
			if oerr != nil {
				return nil, oerr
			}
			result.Outputs[id] = out
		} else if proc.failure != nil && err == nil {
			err = proc.failure
		}
	}
	if err != nil {
		return result, fmt.Errorf("core: run: %w", err)
	}
	return result, nil
}
