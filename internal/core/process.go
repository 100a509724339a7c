package core

import (
	"fmt"
	"sort"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/stablevector"
	"chc/internal/telemetry"
	"chc/internal/wire"
)

// KindState is the message kind carrying a round-t state h_i[t-1].
const KindState = "cc.state"

// KindInput is the message kind used by the NaiveCollectRound0 ablation.
const KindInput = "cc.input"

// RoundRecord captures what one process used in one averaging round: which
// senders contributed to Y_i[t] and the state computed from them. The trace
// package reconstructs the transition matrices M[t] from these records.
type RoundRecord struct {
	Round   int
	Senders []dist.ProcID // sorted contributors to MSG_i[t] (self included)
	State   []geom.Point  // vertices of h_i[t]
	// ApproxErr is the inner-approximation error introduced this round by
	// the MaxStateVertices budget (0 when unlimited or within budget).
	ApproxErr float64
}

// Trace is the per-process execution record used by analysis and tests.
type Trace struct {
	ID        dist.ProcID
	R0Entries []wire.Entry  // the stable vector result R_i
	H0        []geom.Point  // vertices of h_i[0]
	Rounds    []RoundRecord // one record per averaging round 1..t_end
}

// Process is one participant in Algorithm CC, written as an event-driven
// state machine (dist.Process). Drive it with the deterministic simulator
// or the concurrent runtime.
type Process struct {
	params Params
	id     dist.ProcID
	input  geom.Point
	tEnd   int

	sv          *stablevector.SV
	naiveInputs map[dist.ProcID]geom.Point // NaiveCollectRound0 buffer
	round       int                        // 0 while collecting; else current round
	state       *polytope.Polytope
	pending     map[int]map[dist.ProcID][]geom.Point // buffered round-t states

	syntheticH0 *polytope.Polytope // non-nil: skip round 0 (analysis mode)

	// r0Start/roundStart carry the telemetry clock across the async phase
	// boundaries; both stay zero while telemetry and tracing are off, so the
	// disabled path never reads the wall clock.
	r0Start    time.Time
	roundStart time.Time

	decided bool
	failure error
	trace   Trace

	// traceInstance is the engine instance index stamped onto trace events,
	// so multi-instance runs can attribute rounds to their agreement task.
	traceInstance int
}

var _ dist.Process = (*Process)(nil)

// checkReceivedExtreme makes advance also check that every vertex of a
// received d >= 3 state is extreme, which costs a hull computation per
// state. It is a test hook; FromCanonical's O(|V|) check always runs.
var checkReceivedExtreme bool

// NewProcess builds a process with the given input. The input is validated
// against the parameter bounds (faulty processes' incorrect inputs must
// still respect the declared domain, as the paper's Ω bound assumes).
func NewProcess(params Params, id dist.ProcID, input geom.Point) (*Process, error) {
	params = params.withDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := params.checkInput(input); err != nil {
		return nil, err
	}
	sv, err := stablevector.New(id, params.N, params.F, input)
	if err != nil {
		return nil, err
	}
	return &Process{
		params:  params,
		id:      id,
		input:   input.Clone(),
		tEnd:    params.TEnd(),
		sv:      sv,
		pending: make(map[int]map[dist.ProcID][]geom.Point),
		trace:   Trace{ID: id},
	}, nil
}

// setSyntheticH0 switches the process into analysis mode: skip round 0 and
// start the averaging rounds from the given polytope.
func (p *Process) setSyntheticH0(verts []geom.Point) error {
	poly, err := polytope.New(verts, p.params.GeomEps)
	if err != nil {
		return fmt.Errorf("core: synthetic initial state: %w", err)
	}
	p.syntheticH0 = poly
	return nil
}

// Init starts round 0 (lines 1-2): broadcast the input via stable vector —
// or, in analysis mode, skip straight to round 1 from the synthetic state.
func (p *Process) Init(ctx dist.Context) {
	if p.syntheticH0 != nil {
		p.state = p.syntheticH0
		p.trace.H0 = p.syntheticH0.Vertices()
		p.emitRoundState(0, p.trace.H0)
		p.enterRound(ctx, 1)
		p.advance(ctx)
		return
	}
	if telemetry.Enabled() || telemetry.TraceOn() {
		p.r0Start = time.Now()
	}
	if p.params.Round0 == NaiveCollectRound0 {
		p.naiveInputs = map[dist.ProcID]geom.Point{p.id: p.input}
		ctx.Broadcast(KindInput, 0, wire.PointPayload{Value: p.input})
		p.tryFinishRound0(ctx)
		return
	}
	p.sv.Start(ctx)
	p.tryFinishRound0(ctx)
}

// Deliver handles one message, advancing through as many rounds as the
// newly available information allows.
func (p *Process) Deliver(ctx dist.Context, msg dist.Message) {
	if p.failure != nil {
		return
	}
	switch msg.Kind {
	case stablevector.KindReport:
		if p.params.Round0 != StableVectorRound0 {
			return
		}
		// Keep feeding the primitive even after it returned: other
		// processes may still depend on our echoes.
		p.sv.Handle(ctx, msg)
		p.tryFinishRound0(ctx)
	case KindInput:
		if p.params.Round0 != NaiveCollectRound0 || p.round != 0 {
			return // late inputs are ignored: X_i froze at the threshold
		}
		payload, ok := msg.Payload.(wire.PointPayload)
		if !ok {
			return
		}
		if _, dup := p.naiveInputs[msg.From]; !dup {
			p.naiveInputs[msg.From] = payload.Value
		}
		p.tryFinishRound0(ctx)
	case KindState:
		payload, ok := msg.Payload.(wire.PolytopePayload)
		if !ok || msg.Round < 1 {
			return // malformed; crash model permits ignoring
		}
		if p.decided || (p.round >= 1 && msg.Round < p.round) {
			return // Y_i[t] is fixed: a late round-t state is not kept
		}
		perRound := p.pending[msg.Round]
		if perRound == nil {
			perRound = make(map[dist.ProcID][]geom.Point)
			p.pending[msg.Round] = perRound
		}
		if _, dup := perRound[msg.From]; dup {
			return // exactly-once channels make this unreachable; defensive
		}
		perRound[msg.From] = payload.Verts
		p.advance(ctx)
	}
}

// Done reports whether the process has decided (or failed).
func (p *Process) Done() bool { return p.decided || p.failure != nil }

// Output returns the decision polytope h_i[t_end].
func (p *Process) Output() (*polytope.Polytope, error) {
	if p.failure != nil {
		return nil, p.failure
	}
	if !p.decided {
		return nil, fmt.Errorf("core: process %d has not decided", p.id)
	}
	return p.state, nil
}

// TraceData returns the execution record (valid once decided).
func (p *Process) TraceData() Trace { return p.trace }

// DecidedRound returns the terminal averaging round t_end once the process
// has decided, and 0 before that (or after a failure). The crash-recovery
// runtime journals it alongside the decision record.
func (p *Process) DecidedRound() int {
	if !p.decided {
		return 0
	}
	return p.tEnd
}

// tryFinishRound0 completes round 0 once the stable vector returns
// (lines 3-6): compute X_i, h_i[0], and enter round 1.
func (p *Process) tryFinishRound0(ctx dist.Context) {
	if p.round != 0 || p.failure != nil {
		return
	}
	var entries []wire.Entry
	if p.params.Round0 == NaiveCollectRound0 {
		if len(p.naiveInputs) < p.params.N-p.params.F {
			return
		}
		entries = make([]wire.Entry, 0, len(p.naiveInputs))
		for id, v := range p.naiveInputs {
			entries = append(entries, wire.Entry{Proc: id, Value: v})
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].Proc < entries[b].Proc })
	} else {
		var ok bool
		entries, ok = p.sv.Result()
		if !ok {
			return
		}
	}
	xi := make([]geom.Point, len(entries))
	for k, e := range entries {
		xi[k] = e.Value
	}
	h0, err := initialPolytope(p.params, xi)
	if err != nil {
		p.failure = fmt.Errorf("core: process %d round 0: %w", p.id, err)
		return
	}
	p.trace.R0Entries = entries
	p.trace.H0 = h0.Vertices()
	p.state = h0
	if !p.r0Start.IsZero() {
		mRound0Seconds.ObserveDuration(time.Since(p.r0Start))
	}
	p.emitRoundState(0, p.trace.H0)
	p.enterRound(ctx, 1)
	p.advance(ctx)
}

// enterRound performs lines 7-9: record the own state into MSG_i[t] and
// broadcast it. When t exceeds t_end the process decides instead.
func (p *Process) enterRound(ctx dist.Context, t int) {
	if t > p.tEnd {
		p.decided = true
		mDecided.Inc()
		mDecidedRound.Observe(float64(p.tEnd))
		if telemetry.TraceOn() {
			telemetry.Emit("cc.decided", map[string]any{
				"proc": int(p.id), "round": p.tEnd, "instance": p.traceInstance,
			})
		}
		return
	}
	mRoundsStarted.Inc()
	if telemetry.Enabled() || telemetry.TraceOn() {
		p.roundStart = time.Now()
	}
	p.round = t
	perRound := p.pending[t]
	if perRound == nil {
		perRound = make(map[dist.ProcID][]geom.Point)
		p.pending[t] = perRound
	}
	verts := p.state.Vertices()
	perRound[p.id] = verts
	ctx.Broadcast(KindState, t, wire.PolytopePayload{Verts: verts})
}

// advance performs lines 12-15 repeatedly: whenever the current round has
// n - f states available, average them and move on.
func (p *Process) advance(ctx dist.Context) {
	for !p.decided && p.failure == nil && p.round >= 1 {
		perRound := p.pending[p.round]
		if len(perRound) < p.params.N-p.params.F {
			return
		}
		senders := make([]dist.ProcID, 0, len(perRound))
		for id := range perRound {
			senders = append(senders, id)
		}
		sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })

		polys := make([]*polytope.Polytope, 0, len(senders))
		for _, id := range senders {
			if id == p.id {
				// The own entry of MSG_i[t] is the polytope this process
				// already holds.
				polys = append(polys, p.state)
				continue
			}
			// A crashed sender computed honestly until it stopped, so a
			// received state is already canonical: wrap it, do not re-hull.
			poly, err := polytope.FromCanonical(perRound[id])
			if err == nil && checkReceivedExtreme && poly.Dim() >= 3 {
				err = poly.CheckExtreme(p.params.GeomEps)
			}
			if err != nil {
				p.failure = fmt.Errorf("core: process %d round %d: state from %d: %w", p.id, p.round, id, err)
				return
			}
			polys = append(polys, poly)
		}
		avg, err := polytope.Average(polys, p.params.GeomEps)
		if err != nil {
			p.failure = fmt.Errorf("core: process %d round %d: %w", p.id, p.round, err)
			return
		}
		var approxErr float64
		if p.params.MaxStateVertices > 0 {
			limited, errDist, err := polytope.LimitVertices(avg, p.params.MaxStateVertices, p.params.GeomEps)
			if err != nil {
				p.failure = fmt.Errorf("core: process %d round %d: vertex budget: %w", p.id, p.round, err)
				return
			}
			avg, approxErr = limited, errDist
		}
		p.state = avg
		rec := RoundRecord{
			Round:     p.round,
			Senders:   senders,
			State:     avg.Vertices(),
			ApproxErr: approxErr,
		}
		p.trace.Rounds = append(p.trace.Rounds, rec)
		if !p.roundStart.IsZero() {
			mRoundSeconds.ObserveDuration(time.Since(p.roundStart))
		}
		p.emitRoundState(rec.Round, rec.State)
		delete(p.pending, p.round) // Y_i[t] is fixed; Deliver drops late round-t states
		p.enterRound(ctx, p.round+1)
	}
}

// emitRoundState publishes one per-round state snapshot to the trace sink.
// Round 0 carries h_i[0]; round t >= 1 carries h_i[t]. Experiment E19
// measures the per-round Hausdorff contraction from exactly these events, so
// the vertices are attached verbatim (they are immutable copies already held
// by the trace record). WAL replay re-executes deliveries and therefore
// re-emits identical events for already-completed rounds; consumers must
// deduplicate by (proc, round).
func (p *Process) emitRoundState(round int, verts []geom.Point) {
	if !telemetry.TraceOn() {
		return
	}
	telemetry.Emit("cc.round", map[string]any{
		"proc":     int(p.id),
		"round":    round,
		"state":    verts,
		"instance": p.traceInstance,
	})
}

// SetTraceInstance stamps the engine instance index onto this process's
// trace events (the engine calls it when building multi-instance nodes).
func (p *Process) SetTraceInstance(k int) { p.traceInstance = k }

// initialPolytope is the round-0 construction a process runs. It is a
// variable only so that a test can make round 0 fail.
var initialPolytope = InitialPolytope

// InitialPolytope computes h_i[0] from the multiset X_i (line 5). Under the
// incorrect-inputs model it is the intersection of the hulls of all
// (|X|-f)-subsets, built as one depth region (polytope.DepthRegion); under
// the correct-inputs model it is simply H(X_i).
func InitialPolytope(params Params, xi []geom.Point) (*polytope.Polytope, error) {
	params = params.withDefaults()
	if len(xi) < params.N-params.F {
		return nil, fmt.Errorf("core: |X_i| = %d < n-f = %d", len(xi), params.N-params.F)
	}
	f := params.F
	if params.Model == CorrectInputs {
		f = 0
	}
	inter, err := polytope.DepthRegion(xi, f, params.GeomEps)
	if err != nil {
		return nil, fmt.Errorf("round-0 intersection (Tverberg guarantees non-empty when n >= (d+2)f+1): %w", err)
	}
	return inter, nil
}
