// Package byzantine implements the crash→Byzantine transformation the paper
// points to (Section 1: "the simulation techniques in [6, 3] can be used to
// transform an algorithm designed for this fault model to an algorithm for
// tolerating Byzantine faults ... requires n >= 3f + 1").
//
// The compiled protocol never ships polytopes at all. Every process
// reliably-broadcasts (package rbc) two things only: its input, and — per
// round — the *choice* of senders whose states it averaged. Because all
// correct processes deliver identical broadcast values (RBC agreement),
// every correct process can recompute every other process's state h_j[t]
// locally from the broadcast history:
//
//	h_j[0] = ∩_{|C| = |X_j|-f} H(C)  over j's broadcast input choice X_j,
//	h_j[t] = L(states of j's broadcast round-t choice; equal weights).
//
// A Byzantine process can therefore deviate in only two ways: broadcast a
// *consistent but incorrect input* — which is exactly the "crash fault with
// incorrect input" the underlying algorithm already tolerates — or
// broadcast something invalid / nothing, which every correct process
// detects identically and treats as a crash. Validity, ε-agreement and
// termination then follow from Theorem 2 of the paper, under
// n >= max(3f+1, (d+2)f+1) = (d+2)f+1 for d >= 1.
package byzantine

import (
	"fmt"
	"sort"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/rbc"
	"chc/internal/telemetry"
	"chc/internal/wire"
)

// stateKey identifies a recomputed state h_j[t].
type stateKey struct {
	proc  dist.ProcID
	round int
}

// Process is one correct participant of the compiled protocol.
type Process struct {
	params core.Params
	id     dist.ProcID
	input  geom.Point
	tEnd   int

	engine *rbc.RBC

	inputs  map[dist.ProcID]geom.Point      // delivered (valid) inputs
	choices map[stateKey][]dist.ProcID      // delivered (valid) sender choices
	states  map[stateKey]*polytope.Polytope // memoised recomputed states
	badKey  map[stateKey]bool               // states proven uncomputable (invalid choice)
	sent    map[int]bool                    // choice rounds already broadcast (-1 = input)

	decided bool
	failure error

	// traceInstance is the engine instance index stamped onto trace events,
	// so multi-instance runs can attribute rounds to their agreement task.
	traceInstance int
}

var _ dist.Process = (*Process)(nil)

// NewProcess builds a correct participant. Requires n >= 3f+1 in addition
// to the geometric bound of the underlying algorithm.
func NewProcess(params core.Params, id dist.ProcID, input geom.Point) (*Process, error) {
	params = params.WithDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if params.N < 3*params.F+1 {
		return nil, fmt.Errorf("byzantine: n=%d < 3f+1 = %d", params.N, 3*params.F+1)
	}
	if params.Model != core.IncorrectInputs {
		return nil, fmt.Errorf("byzantine: transformation targets the incorrect-inputs model, got %v", params.Model)
	}
	engine, err := rbc.New(id, params.N, params.F)
	if err != nil {
		return nil, err
	}
	return &Process{
		params:  params,
		id:      id,
		input:   input.Clone(),
		tEnd:    params.TEnd(),
		engine:  engine,
		inputs:  make(map[dist.ProcID]geom.Point),
		choices: make(map[stateKey][]dist.ProcID),
		states:  make(map[stateKey]*polytope.Polytope),
		badKey:  make(map[stateKey]bool),
		sent:    make(map[int]bool),
	}, nil
}

// Init reliably broadcasts the input (sequence 0).
func (p *Process) Init(ctx dist.Context) {
	ds, err := p.engine.Broadcast(ctx, 0, wire.PointPayload{Value: p.input})
	if err != nil {
		p.failure = fmt.Errorf("byzantine: process %d: %w", p.id, err)
		return
	}
	p.absorb(ctx, ds)
}

// Deliver routes RBC traffic and advances the computation.
func (p *Process) Deliver(ctx dist.Context, msg dist.Message) {
	if p.failure != nil {
		return
	}
	switch msg.Kind {
	case rbc.KindInit, rbc.KindEcho, rbc.KindReady:
		p.absorb(ctx, p.engine.Handle(ctx, msg))
	}
}

// Done reports whether the process decided (or failed).
func (p *Process) Done() bool { return p.decided || p.failure != nil }

// Output returns the decision polytope.
func (p *Process) Output() (*polytope.Polytope, error) {
	if p.failure != nil {
		return nil, p.failure
	}
	if !p.decided {
		return nil, fmt.Errorf("byzantine: process %d has not decided", p.id)
	}
	return p.states[stateKey{proc: p.id, round: p.tEnd}], nil
}

// DecidedRound returns the terminal round t_end once the process has
// decided, and 0 before that.
func (p *Process) DecidedRound() int {
	if !p.decided {
		return 0
	}
	return p.tEnd
}

// absorb records deliveries and runs the progress loop.
func (p *Process) absorb(ctx dist.Context, ds []rbc.Delivery) {
	for _, d := range ds {
		p.recordDelivery(d)
	}
	if len(ds) > 0 {
		p.advance(ctx)
	}
}

// recordDelivery validates and stores one reliable-broadcast delivery.
// Invalid content is dropped: every correct process drops it identically
// (RBC agreement), so the origin is uniformly treated as crashed.
func (p *Process) recordDelivery(d rbc.Delivery) {
	origin := d.Tag.Origin
	if origin < 0 || int(origin) >= p.params.N {
		return
	}
	switch d.Tag.Seq {
	case 0: // input
		pt, ok := d.Payload.(wire.PointPayload)
		if !ok || p.params.CheckInput(pt.Value) != nil {
			return
		}
		if _, dup := p.inputs[origin]; !dup {
			p.inputs[origin] = pt.Value
		}
	default: // choice for round seq-1
		sp, ok := d.Payload.(wire.SendersPayload)
		if !ok {
			return
		}
		round := int(d.Tag.Seq) - 1
		if round < 0 || int(sp.Round) != round || round > p.tEnd {
			return
		}
		if !validChoice(sp.Senders, p.params.N, p.params.N-p.params.F) {
			return
		}
		key := stateKey{proc: origin, round: round}
		if _, dup := p.choices[key]; !dup {
			p.choices[key] = sp.Senders
		}
	}
}

// validChoice checks a sender list: sorted, unique, in range, big enough.
func validChoice(s []dist.ProcID, n, minLen int) bool {
	if len(s) < minLen {
		return false
	}
	for i, id := range s {
		if id < 0 || int(id) >= n {
			return false
		}
		if i > 0 && s[i] <= s[i-1] {
			return false
		}
	}
	return true
}

// advance runs the local fixpoint: recompute any newly computable states,
// then broadcast the next choice / decide when thresholds are met.
func (p *Process) advance(ctx dist.Context) {
	for p.failure == nil && !p.decided {
		progressed := p.computeStates()

		// Round-0 choice: first n-f delivered inputs.
		if !p.sent[0] && len(p.inputs) >= p.params.N-p.params.F {
			choice := sortedIDs(p.inputs)
			p.sent[0] = true
			p.broadcastChoice(ctx, 0, choice)
			progressed = true
		}
		// Round-t choice: needs n-f computable round-(t-1) states.
		for t := 1; t <= p.tEnd; t++ {
			if p.sent[t] || !p.sent[t-1] {
				continue
			}
			ready := p.computableAt(t - 1)
			if len(ready) < p.params.N-p.params.F {
				break
			}
			p.sent[t] = true
			p.broadcastChoice(ctx, t, ready)
			progressed = true
		}
		// Decision: own state at t_end computable.
		if p.tEnd == 0 {
			// Degenerate: deciding h_i[0] requires only the own round-0 state.
			if _, ok := p.states[stateKey{proc: p.id, round: 0}]; ok {
				p.decide()
				return
			}
		} else if _, ok := p.states[stateKey{proc: p.id, round: p.tEnd}]; ok {
			p.decide()
			return
		}
		if !progressed {
			return
		}
	}
}

// decide marks the process decided and records it with the registry.
func (p *Process) decide() {
	p.decided = true
	mDecided.Inc()
	mDecidedRound.Observe(float64(p.tEnd))
	if telemetry.TraceOn() {
		telemetry.Emit("byz.decided", map[string]any{
			"proc": int(p.id), "round": p.tEnd, "instance": p.traceInstance,
		})
	}
}

// SetTraceInstance stamps the engine instance index onto this process's
// trace events (the engine calls it when building multi-instance nodes).
func (p *Process) SetTraceInstance(k int) { p.traceInstance = k }

func (p *Process) broadcastChoice(ctx dist.Context, round int, choice []dist.ProcID) {
	mRoundsStarted.Inc()
	if telemetry.TraceOn() {
		// The compiled protocol's round state is the broadcast sender choice,
		// not a geometric object; consumers deduplicate by (proc, round,
		// instance) as for cc.round.
		telemetry.Emit("byz.round", map[string]any{
			"proc": int(p.id), "round": round, "choice": choice, "instance": p.traceInstance,
		})
	}
	key := stateKey{proc: p.id, round: round}
	if _, dup := p.choices[key]; !dup {
		// Record our own choice immediately; our own RBC delivery will be a
		// no-op duplicate. This keeps local state computation independent of
		// the delivery schedule of our own broadcasts.
		p.choices[key] = choice
	}
	if _, err := p.engine.Broadcast(ctx, int32(round)+1, wire.SendersPayload{
		Round:   int32(round),
		Senders: choice,
	}); err != nil {
		p.failure = fmt.Errorf("byzantine: process %d round %d: %w", p.id, round, err)
	}
}

// computeStates attempts every uncomputed state whose dependencies are
// available; returns whether anything new was computed.
func (p *Process) computeStates() bool {
	progressed := false
	for {
		any := false
		for key, choice := range p.choices {
			if _, done := p.states[key]; done || p.badKey[key] {
				continue
			}
			poly, ok, bad := p.tryCompute(key, choice)
			switch {
			case bad:
				p.badKey[key] = true
			case ok:
				p.states[key] = poly
				any = true
				progressed = true
			}
		}
		if !any {
			return progressed
		}
	}
}

// tryCompute recomputes h_{key.proc}[key.round] from the broadcast history.
// ok=false means dependencies are still missing; bad=true means the choice
// is permanently invalid (references a state that is itself invalid, or the
// geometry rejects it) and the origin is treated as crashed at this round.
func (p *Process) tryCompute(key stateKey, choice []dist.ProcID) (poly *polytope.Polytope, ok, bad bool) {
	if key.round == 0 {
		xs := make([]geom.Point, 0, len(choice))
		for _, s := range choice {
			x, have := p.inputs[s]
			if !have {
				return nil, false, false // input not yet delivered
			}
			xs = append(xs, x)
		}
		h, err := core.InitialPolytope(p.params, xs)
		if err != nil {
			return nil, false, true // geometry rejected (e.g. empty intersection)
		}
		return h, true, false
	}
	deps := make([]*polytope.Polytope, 0, len(choice))
	for _, s := range choice {
		depKey := stateKey{proc: s, round: key.round - 1}
		if p.badKey[depKey] {
			return nil, false, true // references an invalid state
		}
		d, have := p.states[depKey]
		if !have {
			return nil, false, false
		}
		deps = append(deps, d)
	}
	avg, err := polytope.Average(deps, p.params.GeomEps)
	if err != nil {
		return nil, false, true
	}
	return avg, true, false
}

// computableAt returns the sorted processes whose round-t state is
// currently computable.
func (p *Process) computableAt(t int) []dist.ProcID {
	var out []dist.ProcID
	for key := range p.states {
		if key.round == t {
			out = append(out, key.proc)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(m map[dist.ProcID]geom.Point) []dist.ProcID {
	out := make([]dist.ProcID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
