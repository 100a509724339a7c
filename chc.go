// Package chc is an implementation of asynchronous convex hull consensus in
// the presence of crash faults (Tseng & Vaidya, PODC 2014).
//
// In convex hull consensus, each of n processes holds a point in
// d-dimensional Euclidean space, and the processes — despite full asynchrony
// and up to f crash faults with incorrect inputs — agree (up to a Hausdorff
// distance ε) on a convex polytope contained in the convex hull of the
// inputs at fault-free processes. The algorithm, Algorithm CC, is optimal in
// two senses: it tolerates the largest possible number of faults
// (n >= (d+2)f + 1), and the polytope it decides is the largest any
// algorithm can guarantee (it always contains the reference polytope I_Z of
// the paper's Section 6).
//
// # Quick start
//
//	params := chc.Params{
//	    N: 7, F: 1, D: 2,
//	    Epsilon:    0.01,
//	    InputLower: 0, InputUpper: 10,
//	}
//	cfg := chc.RunConfig{
//	    Params: params,
//	    Inputs: inputs,                       // one point per process
//	    Faulty: []chc.ProcID{3},              // the faulty process...
//	    Crashes: []chc.CrashPlan{{Proc: 3, AfterSends: 9}}, // ...crashes mid-broadcast
//	    Seed:   1,
//	}
//	result, err := chc.Run(cfg)               // deterministic simulation
//	// result.Outputs[i] is the decided polytope at process i.
//
// Executions can also be run over real goroutines and TCP sockets with
// RunNetworked. The companion packages expose the building blocks: convex
// polytopes with intersection, weighted Minkowski combination (the paper's
// function L) and Hausdorff distance; the stable-vector communication
// primitive; a vector-consensus baseline; convex hull function optimisation
// (Section 7); and transition-matrix trace analysis (Section 5).
package chc

import (
	"io"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/trace"
	"chc/internal/vectorconsensus"
)

// Re-exported core types. These are aliases, so values flow freely between
// the public API and the building-block functions below.
type (
	// Point is a point in d-dimensional Euclidean space.
	Point = geom.Point

	// Polytope is a bounded convex polytope (V-representation with lazily
	// derived facets). Process states and outputs are Polytopes.
	Polytope = polytope.Polytope

	// ProcID identifies a process (0..n-1).
	ProcID = dist.ProcID

	// Params are the static parameters of a consensus instance.
	Params = core.Params

	// FaultModel selects the crash-fault variant.
	FaultModel = core.FaultModel

	// Round0Mode selects the round-0 collection mechanism (stable vector,
	// or the naive ablation).
	Round0Mode = core.Round0Mode

	// RunConfig describes one execution (inputs, faults, schedule).
	RunConfig = core.RunConfig

	// RunResult holds outputs, traces and statistics of an execution.
	RunResult = core.RunResult

	// Trace is a per-process execution record.
	Trace = core.Trace

	// AgreementReport is the outcome of the ε-agreement check.
	AgreementReport = core.AgreementReport

	// CrashPlan schedules a crash after a number of successful sends.
	CrashPlan = dist.CrashPlan

	// Scheduler chooses message delivery order (the asynchrony adversary).
	// Pick is shown every non-empty channel in ascending (From, To) order.
	// That slice belongs to the simulator, which patches it in place between
	// deliveries: it is valid only for the duration of Pick and must be
	// neither mutated nor retained. One scheduler value drives one run at a
	// time.
	Scheduler = dist.Scheduler

	// Stats aggregates message counts of a run.
	Stats = dist.Stats
)

// Fault model constants.
const (
	// IncorrectInputs is the paper's main model (n >= (d+2)f + 1).
	IncorrectInputs = core.IncorrectInputs
	// CorrectInputs is the technical-report variant (n >= 2f + 1).
	CorrectInputs = core.CorrectInputs
)

// Round-0 mode constants.
const (
	// StableVectorRound0 is the paper's round-0 mechanism (default).
	StableVectorRound0 = core.StableVectorRound0
	// NaiveCollectRound0 is an ablation that drops the Containment
	// property (and with it the optimality guarantee).
	NaiveCollectRound0 = core.NaiveCollectRound0
)

// CommonRound0 returns the round-0 values common to every fault-free
// process (the set Z of Section 6); |Z| >= n-f under the stable vector.
func CommonRound0(result *RunResult) ([]Point, error) { return core.CommonRound0(result) }

// NewPoint returns a copy of coords as a Point.
func NewPoint(coords ...float64) Point { return geom.NewPoint(coords...) }

// Run executes one convex hull consensus instance under the deterministic
// simulator and returns per-process outputs, execution traces and message
// statistics.
func Run(cfg RunConfig) (*RunResult, error) { return core.Run(cfg) }

// CheckAgreement verifies ε-agreement over the fault-free outputs and
// reports the worst pairwise Hausdorff distance.
func CheckAgreement(result *RunResult) (*AgreementReport, error) {
	return core.CheckAgreement(result)
}

// CheckValidity verifies that every output is contained in the convex hull
// of the correct inputs (Definition 3).
func CheckValidity(result *RunResult, cfg *RunConfig) error {
	return core.CheckValidity(result, cfg)
}

// CheckOptimality verifies Lemma 6 on the outputs: the optimality reference
// polytope I_Z is contained in every fault-free output.
func CheckOptimality(result *RunResult) error { return core.CheckOptimality(result) }

// OptimalityReference computes the polytope I_Z of Section 6 — the largest
// output any algorithm can guarantee for the execution.
func OptimalityReference(result *RunResult) (*Polytope, error) { return core.IZ(result) }

// CorrectInputHull returns the convex hull of the correct inputs, the
// validity reference for an execution description.
func CorrectInputHull(cfg *RunConfig) (*Polytope, error) { return core.CorrectInputHull(cfg) }

// Schedulers: the asynchrony adversaries available to executions.
var (
	// NewRandomScheduler delivers in uniformly random order.
	NewRandomScheduler = func() Scheduler { return dist.NewRandomScheduler() }
	// NewRoundRobinScheduler approximates a synchronous network.
	NewRoundRobinScheduler = func() Scheduler { return dist.NewRoundRobinScheduler() }
)

// NewDelayScheduler starves all channels touching the given processes for
// as long as other traffic exists (the worst-case execution of Theorem 3).
func NewDelayScheduler(slow ...ProcID) Scheduler { return dist.NewDelayScheduler(slow...) }

// NewSplitScheduler starves cross-group traffic between the given group and
// the rest (the execution shape of the Theorem 4 impossibility).
func NewSplitScheduler(groupA ...ProcID) Scheduler { return dist.NewSplitScheduler(groupA...) }

// RecordingScheduler captures the delivery choices of a wrapped scheduler
// so an execution can be replayed exactly.
type RecordingScheduler = dist.RecordingScheduler

// NewRecordingScheduler wraps inner (nil = random) and records every pick.
func NewRecordingScheduler(inner Scheduler) *RecordingScheduler {
	return dist.NewRecordingScheduler(inner)
}

// NewReplayScheduler re-issues a recorded pick sequence, reproducing an
// execution exactly regardless of seeds.
func NewReplayScheduler(picks []int) Scheduler { return dist.NewReplayScheduler(picks) }

// TraceAnalysis is the reconstructed matrix representation of an execution.
type TraceAnalysis = trace.Analysis

// AnalyzeTrace reconstructs the transition matrices M[t] and products P[t]
// of Section 5 from an execution, enabling Lemma 3 / Theorem 1 checks.
func AnalyzeTrace(result *RunResult) (*TraceAnalysis, error) { return trace.Build(result) }

// WriteTraceJSON serialises a run's full execution record (stable vector
// results, per-round states, decisions) as self-contained JSON for external
// tooling and offline debugging.
func WriteTraceJSON(w io.Writer, result *RunResult) error {
	return core.WriteTraceJSON(w, result)
}

// VectorConsensusResult is the outcome of the vector-consensus baseline.
type VectorConsensusResult = vectorconsensus.RunResult

// RunVectorConsensus executes the approximate vector (multidimensional)
// consensus baseline — the problem convex hull consensus generalises — on
// the same execution description.
func RunVectorConsensus(cfg RunConfig) (*VectorConsensusResult, error) {
	return vectorconsensus.Run(cfg)
}
