// Package engine is the unified execution engine of the repository: one
// driver that runs any number of protocol instances — Algorithm CC, the
// vector-consensus baseline, the Byzantine-compiled variant, or a
// heterogeneous mix — over any of the three executors (the deterministic
// discrete-event simulator, the in-process channel runtime, and loopback
// TCP), with the full fault stack (crash plans, seeded chaos, write-ahead
// logging, crash-recovery restarts) available to every combination.
//
// Multiplexing is structural, not string-based: every dist.Message carries a
// numeric Instance field (serialised in the wire envelope), each process
// hosts one participant per instance behind one demultiplexing host (the
// same host serves Run's batches and the Resident engine), and the
// write-ahead log — which journals full wire-encoded messages — therefore
// records per-instance history for free, so a restarted node replays every
// instance it hosts. Kind strings are carried byte-for-byte; no namespacing
// convention is imposed on protocols.
package engine

import (
	"errors"
	"fmt"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/runtime"
	"chc/internal/telemetry"
	"chc/internal/wan"
	"chc/internal/wire"
)

// Protocol is the state-machine contract the engine drives, parameterised by
// the decision type O (Algorithm CC and the Byzantine variant decide a
// polytope; vector consensus decides a point). It extends dist.Process with
// the two read-side methods the engine's accounting needs: the decision
// value and the round at which it was reached. Every protocol package
// asserts its Process against this interface at compile time.
type Protocol[O any] interface {
	dist.Process
	// Output returns the decision (an error before deciding or on failure).
	Output() (O, error)
	// DecidedRound returns the terminating round once decided, 0 before.
	DecidedRound() int
}

// InstanceSpec describes one protocol instance of a run.
type InstanceSpec struct {
	// New builds the participant hosted by process id. It must be
	// deterministic: crash recovery re-invokes it to rebuild the state
	// machine that a WAL replay drives, and any divergence from the original
	// construction is detected as replay nondeterminism. Participants that
	// model adversaries (Byzantine behaviours) may implement only
	// dist.Process; correct participants implement Protocol[O].
	New func(id dist.ProcID) (dist.Process, error)
}

// Spec describes a complete execution: n processes, each hosting one
// participant per instance.
type Spec struct {
	N         int
	Instances []InstanceSpec
}

// Options configures a run. Sim-only fields are rejected on networked
// transports and vice versa (Env.Validate), so a configuration cannot
// silently lose meaning when the transport changes.
type Options struct {
	Transport Transport

	// Seed / Scheduler / MaxDeliveries drive the simulator (TransportSim).
	Seed          int64
	Scheduler     dist.Scheduler
	MaxDeliveries int

	// Crashes schedules crash-stop faults (all transports). Budgets are per
	// process: a crash kills every instance the process hosts, as it would
	// in a deployment that multiplexes agreement tasks over one node.
	Crashes []dist.CrashPlan

	// Timeout bounds networked runs (default 5 minutes).
	Timeout time.Duration

	// Inputs, when non-nil, are journaled per process for audit (WALDir).
	Inputs []geom.Point

	// Env is the cluster environment: link faults, wire tuning, the WAN
	// model, write-ahead logging and restarts. On the simulator only WAN is
	// accepted, and it is exclusive with Scheduler.
	runtime.Env
}

// Result is the outcome of a run. Participants are reached through Sub;
// after a networked run with restarts these are the relaunched
// incarnations, so inspection sees recovered state.
type Result struct {
	N         int
	Instances int
	// Crashed marks processes that did not complete every hosted instance:
	// scheduled crash-stop faults on any transport, or nodes the timeout cut
	// off on a networked run.
	Crashed map[dist.ProcID]bool
	// Stats aggregates protocol-level message counts. On the simulator these
	// are the scheduler's exact counters (including KindCounts); networked
	// runs fill Sends/Bytes and attach link-layer NetStats.
	Stats *dist.Stats
	// Cluster holds the full networked-runtime counters (nil on the
	// simulator).
	Cluster *runtime.ClusterStats
	// Degraded lists nodes still in non-durable mode when the run ended:
	// their disks failed, the Degrade policy quarantined them, and no
	// re-arm succeeded before shutdown.
	Degraded []dist.ProcID

	nodes []*residentNode
}

// Sub returns the participant of instance k hosted by process id (the final
// incarnation, when restarts relaunched the node).
func (r *Result) Sub(k int, id dist.ProcID) dist.Process {
	return r.nodes[id].Sub(k)
}

// DecidedRound returns the round at which instance k's participant on
// process id decided (0 if undecided or not a Protocol participant).
func (r *Result) DecidedRound(k int, id dist.ProcID) int {
	if dr, ok := r.Sub(k, id).(interface{ DecidedRound() int }); ok {
		return dr.DecidedRound()
	}
	return 0
}

// Run executes the spec over the selected transport. When the execution
// itself fails (deadlock, livelock, timeout, recovery failure) the partial
// Result is returned alongside the error; configuration errors return a nil
// Result.
func Run(spec Spec, opts Options) (*Result, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("engine: N = %d", spec.N)
	}
	if len(spec.Instances) == 0 {
		return nil, errors.New("engine: no instances")
	}
	nodes := make([]*residentNode, spec.N)
	procs := make([]dist.Process, spec.N)
	for i := range procs {
		nd, err := newBatchNode(spec, dist.ProcID(i))
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
		procs[i] = nd
	}
	if err := opts.Env.Validate(opts.Transport); err != nil {
		return nil, err
	}
	if _, err := dist.CrashBudgets(spec.N, opts.Crashes); err != nil {
		return nil, err
	}
	if opts.Scheduler != nil {
		if opts.Transport != TransportSim {
			return nil, errors.New("engine: schedulers only drive the simulator; networked delivery order is real concurrency")
		}
		if opts.HasWAN() {
			return nil, errors.New("engine: WAN and Scheduler both drive simulator delivery order; set one")
		}
	}
	if opts.MaxDeliveries != 0 && opts.Transport != TransportSim {
		return nil, errors.New("engine: MaxDeliveries bounds the simulator only; networked runs are bounded by Timeout")
	}

	// The run is tracked only past this point, so configuration errors never
	// register: /runs shows executions, not rejected specs.
	handle := telemetry.BeginRun(telemetry.RunInfo{
		Transport: opts.Transport.String(),
		N:         spec.N,
		Instances: len(spec.Instances),
	})
	transport := opts.Transport.String()
	mRunsStarted.With(transport).Inc()
	mActiveRuns.Add(1)
	var start time.Time
	if telemetry.Enabled() || telemetry.TraceOn() {
		start = time.Now()
	}

	var (
		res    *Result
		runErr error
	)
	if opts.Transport == TransportSim {
		res, runErr = runSim(spec, opts, nodes, procs)
	} else {
		res, runErr = runCluster(spec, opts, nodes, procs)
	}

	status := "ok"
	switch {
	case runErr == nil:
	case errors.Is(runErr, runtime.ErrTimeout):
		status = "timeout"
	default:
		status = "error"
	}
	mActiveRuns.Add(-1)
	mRunsCompleted.With(transport, status).Inc()
	if !start.IsZero() {
		mRunSeconds.With(transport).ObserveDuration(time.Since(start))
	}
	handle.Complete(status, func(rec *telemetry.RunRecord) {
		if runErr != nil {
			rec.Error = runErr.Error()
		}
		if res == nil {
			return
		}
		if res.Stats != nil {
			rec.Sends = int64(res.Stats.Sends)
			rec.Bytes = int64(res.Stats.Bytes)
		}
		rec.DecidedRounds = make(map[string]int)
		for k := range spec.Instances {
			for i := 0; i < spec.N; i++ {
				if r := res.DecidedRound(k, dist.ProcID(i)); r > 0 {
					rec.DecidedRounds[fmt.Sprintf("%d/%d", k, i)] = r
				}
			}
		}
	})
	return res, runErr
}

// runSim drives the nodes with the deterministic simulator.
func runSim(spec Spec, opts Options, nodes []*residentNode, procs []dist.Process) (*Result, error) {
	if opts.HasWAN() {
		sched, err := wan.NewSimScheduler(*opts.WAN, spec.N, opts.WANSeed)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		opts.Scheduler = sched
	}
	sim, err := dist.NewSim(dist.Config{
		N:             spec.N,
		Seed:          opts.Seed,
		Scheduler:     opts.Scheduler,
		Crashes:       opts.Crashes,
		MaxDeliveries: opts.MaxDeliveries,
		Sizer:         wire.MessageSize,
	}, procs)
	if err != nil {
		return nil, err
	}
	stats, runErr := sim.Run()
	res := &Result{
		N:         spec.N,
		Instances: len(spec.Instances),
		Crashed:   make(map[dist.ProcID]bool),
		Stats:     stats,
		nodes:     nodes,
	}
	for i := 0; i < spec.N; i++ {
		if sim.Crashed(dist.ProcID(i)) {
			res.Crashed[dist.ProcID(i)] = true
		}
	}
	return res, runErr
}

// runCluster drives the nodes with the goroutine runtime over channels or
// TCP, layering on the requested fault stack.
func runCluster(spec Spec, opts Options, nodes []*residentNode, procs []dist.Process) (*Result, error) {
	cluster, err := newCluster(opts.Transport, procs, runtime.Config{Env: opts.Env, Crashes: opts.Crashes, Recovery: runtime.RecoveryConfig{
		// The factory rebuilds the whole batch node: replay then
		// drives the journaled deliveries — each stamped with its
		// instance — through it, reconstructing every hosted instance.
		// Specs were validated by the eager construction above, so a
		// failure here is replay-level corruption, which the recovery
		// machinery reports by catching this panic.
		Factory: func(i int) dist.Process {
			nd, err := newBatchNode(spec, dist.ProcID(i))
			if err != nil {
				panic(err)
			}
			return nd
		},
		Inputs: opts.Inputs,
	}})
	if err != nil {
		return nil, err
	}
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = 5 * time.Minute
	}
	runErr := cluster.Run(timeout)
	// Read the post-run incarnations: with restarts, a relaunched node
	// replaces the one built above, and its recovered participants are the
	// ones to inspect.
	for i, p := range cluster.Processes() {
		nodes[i] = p.(*residentNode)
	}
	st := cluster.Stats()
	net := st.Net
	res := &Result{
		N:         spec.N,
		Instances: len(spec.Instances),
		Crashed:   make(map[dist.ProcID]bool),
		Stats: &dist.Stats{
			Sends:      int(st.Sends),
			Bytes:      int(st.Bytes),
			KindCounts: map[string]int{},
			Net:        &net,
		},
		Cluster:  &st,
		Degraded: cluster.Degraded(),
		nodes:    nodes,
	}
	for i, nd := range nodes {
		if !nd.Done() {
			res.Crashed[dist.ProcID(i)] = true
		}
	}
	return res, runErr
}
