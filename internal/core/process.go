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

// Trace is the per-process execution record used by analysis and tests. Its
// vertex lists (H0 and every RoundRecord.State) are the states' own lists,
// shared with the process's polytopes and with what it broadcast
// (polytope.SharedVertices): consumers must not modify them.
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

	// pending[t] is MSG_i[t] while round t is open or ahead of this
	// process; nil before its first state and once the round closed. A
	// closed round's slots go to spare for a later round to reuse.
	pending []*roundSlots
	spare   []*roundSlots
	polys   []*polytope.Polytope // advance's scratch: Y_i[t] in process order
	// seen[j] is the vertex list last resolved from sender j and the
	// polytope it resolved to (see received).
	seen []resolved
	// sent is the last state broadcast, boxed, and sentVerts its vertex
	// list: a state with the same list goes out in the same box.
	sent      any
	sentVerts []geom.Point

	syntheticH0 *polytope.Polytope // non-nil: skip round 0 (analysis mode)

	round0 func(Params, []geom.Point) (*polytope.Polytope, error) // line 5
	m      *cells

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

// Variant is Algorithm CC run from its own round-0 state: the stable
// vector, rounds 1..t_end of L, their messages, trace records and events are
// CC's, and only line 5 — how h_i[0] is built from X_i — and the "protocol"
// label of the chc_consensus_* cells differ. Vector consensus is the variant
// whose h_i[0] is one point: L applied to points is their weighted average.
type Variant struct {
	round0 func(Params, []geom.Point) (*polytope.Polytope, error)
	m      *cells
}

// NewVariant returns the variant whose line 5 is round0 and whose cells
// carry the given protocol label.
func NewVariant(protocol string, round0 func(Params, []geom.Point) (*polytope.Polytope, error)) Variant {
	return Variant{round0: round0, m: cellsFor(protocol)}
}

// cc is Algorithm CC itself.
var cc = NewVariant("cc", InitialPolytope)

// NewProcess builds an Algorithm CC process with the given input.
func NewProcess(params Params, id dist.ProcID, input geom.Point) (*Process, error) {
	return cc.NewProcess(params, id, input)
}

// NewProcess builds a participant of v with the given input. The input is
// validated against the parameter bounds (faulty processes' incorrect inputs
// must still respect the declared domain, as the paper's Ω bound assumes).
func (v Variant) NewProcess(params Params, id dist.ProcID, input geom.Point) (*Process, error) {
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
	tEnd := params.TEnd()
	return &Process{
		params:  params,
		id:      id,
		input:   input.Clone(),
		tEnd:    tEnd,
		sv:      sv,
		pending: make([]*roundSlots, 0, tEnd+1),
		polys:   make([]*polytope.Polytope, 0, params.N),
		seen:    make([]resolved, params.N),
		round0:  v.round0,
		m:       v.m,
		trace:   Trace{ID: id, Rounds: make([]RoundRecord, 0, tEnd)},
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
		p.trace.H0 = p.syntheticH0.SharedVertices()
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
		if !ok || msg.Round < 1 || msg.From < 0 || int(msg.From) >= p.params.N {
			return // malformed; crash model permits ignoring
		}
		if p.decided || (p.round >= 1 && msg.Round < p.round) || msg.Round > p.tEnd {
			return // Y_i[t] is fixed, or round t never runs: not kept
		}
		if !p.slots(msg.Round).put(msg.From, payload.Verts) {
			return // exactly-once channels make this unreachable; defensive
		}
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
	h0, err := p.round0(p.params, xi)
	if err != nil {
		p.failure = fmt.Errorf("core: process %d round 0: %w", p.id, err)
		return
	}
	p.trace.R0Entries = entries
	p.trace.H0 = h0.SharedVertices()
	p.state = h0
	if !p.r0Start.IsZero() {
		p.m.round0Seconds.ObserveDuration(time.Since(p.r0Start))
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
		p.pending, p.spare, p.polys, p.seen, p.sent = nil, nil, nil, nil, nil // Deliver keeps nothing from now on
		p.m.decided.Inc()
		p.m.decidedRound.Observe(float64(p.tEnd))
		if telemetry.TraceOn() {
			telemetry.Emit("cc.decided", map[string]any{
				"proc": int(p.id), "round": p.tEnd, "instance": p.traceInstance,
			})
		}
		return
	}
	p.m.roundsStarted.Inc()
	if telemetry.Enabled() || telemetry.TraceOn() {
		p.roundStart = time.Now()
	}
	p.round = t
	// The own state is broadcast and held as its own immutable vertex list.
	verts := p.state.SharedVertices()
	p.slots(t).put(p.id, verts)
	if !geom.SameList(verts, p.sentVerts) {
		p.sent, p.sentVerts = wire.PolytopePayload{Verts: verts}, verts
	}
	ctx.Broadcast(KindState, t, p.sent)
}

// roundSlots holds the states of one round by sender: states[j] is j's
// vertex list when has[j], and count is how many senders have one.
type roundSlots struct {
	states [][]geom.Point
	has    []bool
	count  int
}

// put stores j's state unless j already has one, and reports whether it did.
func (r *roundSlots) put(j dist.ProcID, verts []geom.Point) bool {
	if r.has[j] {
		return false
	}
	r.states[j], r.has[j] = verts, true
	r.count++
	return true
}

// slots returns the slots of round t, taking them from spare (or making
// them) on its first state.
func (p *Process) slots(t int) *roundSlots {
	for len(p.pending) <= t {
		p.pending = append(p.pending, nil)
	}
	r := p.pending[t]
	if r == nil {
		if k := len(p.spare); k > 0 {
			r, p.spare = p.spare[k-1], p.spare[:k-1]
		} else {
			n := p.params.N
			r = &roundSlots{states: make([][]geom.Point, n), has: make([]bool, n)}
		}
		p.pending[t] = r
	}
	return r
}

// closeRound empties round t's slots into spare: Y_i[t] is fixed, and
// Deliver drops late round-t states.
func (p *Process) closeRound(t int) {
	r := p.pending[t]
	clear(r.states)
	clear(r.has)
	r.count = 0
	p.pending[t] = nil
	p.spare = append(p.spare, r)
}

// advance performs lines 12-15 repeatedly: whenever the current round has
// n - f states available, average them and move on.
func (p *Process) advance(ctx dist.Context) {
	for !p.decided && p.failure == nil && p.round >= 1 {
		r := p.pending[p.round] // enterRound put the own state in it
		if r.count < p.params.N-p.params.F {
			return
		}
		senders := make([]dist.ProcID, 0, r.count)
		polys := p.polys[:0]
		for j, ok := range r.has {
			if !ok {
				continue
			}
			id := dist.ProcID(j)
			senders = append(senders, id)
			poly, err := p.received(id, r.states[j], polys)
			if err != nil {
				p.failure = fmt.Errorf("core: process %d round %d: state from %d: %w", p.id, p.round, id, err)
				return
			}
			polys = append(polys, poly)
		}
		p.polys = polys
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
			State:     avg.SharedVertices(),
			ApproxErr: approxErr,
		}
		p.trace.Rounds = append(p.trace.Rounds, rec)
		if !p.roundStart.IsZero() {
			p.m.roundSeconds.ObserveDuration(time.Since(p.roundStart))
		}
		p.emitRoundState(rec.Round, rec.State)
		p.closeRound(p.round)
		p.enterRound(ctx, p.round+1)
	}
}

// resolved is a received vertex list and the polytope it resolved to.
type resolved struct {
	verts []geom.Point
	poly  *polytope.Polytope
}

// received returns sender j's round-t state as a polytope. The own entry of
// MSG_i[t] is the polytope this process already holds. A list j sent
// before — the same backing array and length, which a sender whose state
// did not change broadcasts again — is the polytope it resolved to then:
// vertex lists handed to a process are immutable, and seen keeps it
// reachable, so its memory cannot hold another list. A list bitwise equal
// to a polytope already held this round (held) is that polytope. A crashed
// sender computed honestly until it stopped, so any other list is already
// canonical: it is wrapped, not re-hulled.
func (p *Process) received(j dist.ProcID, verts []geom.Point, held []*polytope.Polytope) (*polytope.Polytope, error) {
	if j == p.id {
		return p.state, nil
	}
	last := &p.seen[j]
	if geom.SameList(verts, last.verts) {
		return last.poly, nil
	}
	poly, err := p.resolve(verts, held)
	if err == nil {
		*last = resolved{verts, poly}
	}
	return poly, err
}

// resolve is received for a list j has not sent before.
func (p *Process) resolve(verts []geom.Point, held []*polytope.Polytope) (*polytope.Polytope, error) {
	if geom.SameBitsList(verts, p.state.SharedVertices()) {
		return p.state, nil
	}
	for _, q := range held {
		if q != p.state && geom.SameBitsList(verts, q.SharedVertices()) {
			return q, nil
		}
	}
	poly, err := polytope.FromCanonical(verts)
	if err == nil && checkReceivedExtreme && poly.Dim() >= 3 {
		err = poly.CheckExtreme(p.params.GeomEps)
	}
	return poly, err
}

// emitRoundState publishes one per-round state snapshot to the trace sink.
// Round 0 carries h_i[0]; round t >= 1 carries h_i[t]. Experiment E19
// measures the per-round Hausdorff contraction from exactly these events, so
// the vertices are attached verbatim (the state's own immutable list, which
// the trace record shares). WAL replay re-executes deliveries and therefore
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
