package engine

import (
	"fmt"
	"sync"

	"chc/internal/dist"
)

// residentNode is the per-process lifecycle node of a resident engine: a
// dist.Process that hosts a dynamic set of participants keyed by instance
// id, driven by in-band open/close controls.
//
// Everything the node does is a pure function of its delivery sequence
// (controls included), which is what makes it WAL-replayable: a relaunched
// node fed the same journal rebuilds the same participants, buffers and
// drops the same messages at the same positions, and therefore regenerates
// exactly the original sends for the resumed reliable links.
type residentNode struct {
	r  *Resident
	id dist.ProcID

	mu sync.Mutex
	// subs holds the live participants. Retired instances are deleted — the
	// bounded-memory contract of the resident engine.
	subs map[int]*hosted
	// highest is the largest instance id a control has been applied for
	// (-1 before the first). Messages above it belong to instances this
	// node has not opened yet and are buffered; messages at or below it
	// with no live participant belong to retired instances and are dropped.
	highest int
	// future buffers early traffic: a peer can initialise instance k and
	// send its round-0 messages before this node has processed its own open
	// control for k.
	future map[int][]dist.Message
	// reported marks instances whose termination this incarnation already
	// forwarded to the engine.
	reported map[int]bool
}

// hosted is one live participant and the context it is driven through.
type hosted struct {
	sub dist.Process
	ctx instanceContext
}

var _ dist.Process = (*residentNode)(nil)

func newResidentNode(r *Resident, id dist.ProcID) *residentNode {
	return &residentNode{
		r:        r,
		id:       id,
		subs:     make(map[int]*hosted),
		highest:  -1,
		future:   make(map[int][]dist.Message),
		reported: make(map[int]bool),
	}
}

// Init is a no-op: participants are built by open controls, never at node
// construction (a replayed node starts empty and rebuilds from its journal).
func (nd *residentNode) Init(dist.Context) {}

// Done is always false: a resident node has no terminal state — the cluster
// runs until Shutdown. This also keeps the runtime's decision journaling
// inert for resident nodes.
func (nd *residentNode) Done() bool { return false }

// Deliver applies one message: lifecycle controls mutate the hosted set,
// everything else routes to the participant named by the instance field.
func (nd *residentNode) Deliver(ctx dist.Context, msg dist.Message) {
	switch msg.Kind {
	case dist.KindOpenInstance:
		nd.applyOpen(ctx, msg.Instance)
		return
	case dist.KindCloseInstance:
		nd.applyClose(msg.Instance)
		return
	}
	k := msg.Instance
	nd.mu.Lock()
	h, ok := nd.subs[k]
	if !ok {
		if k > nd.highest {
			nd.future[k] = append(nd.future[k], msg)
		}
		// k <= highest and not hosted: the instance was retired (or failed
		// to construct); late traffic is dropped.
		nd.mu.Unlock()
		return
	}
	nd.mu.Unlock()
	nd.deliverSub(ctx, h, msg)
}

// deliverSub hands one message to a participant and reports termination.
func (nd *residentNode) deliverSub(ctx dist.Context, h *hosted, msg dist.Message) {
	h.sub.Deliver(h.ctx.over(ctx), msg)
	nd.noteIfDecided(ctx, h.ctx.instance, h.sub)
}

// noteIfDecided forwards a participant's termination to the engine, once
// per instance per incarnation (the engine dedups across incarnations). The
// decision leaves the node here — the sink hands it to the tenant — so it
// first waits for the journal to cover the deliveries it rests on; if that
// commit fails the incarnation is dead and the decision is reported by the
// relaunch that can reproduce it. The gate is not optional: every context the
// runtime drives a resident node with is a dist.OutputCommitter, and one that
// is not (a wrapper that forgot to forward it) would silently void the
// durability contract, so it is a bug and panics.
func (nd *residentNode) noteIfDecided(ctx dist.Context, k int, sub dist.Process) {
	if !sub.Done() {
		return
	}
	nd.mu.Lock()
	if nd.reported[k] {
		nd.mu.Unlock()
		return
	}
	nd.reported[k] = true
	nd.mu.Unlock()
	oc, ok := ctx.(dist.OutputCommitter)
	if !ok {
		panic(fmt.Sprintf("engine: resident node %d driven by a %T, which cannot commit output", nd.id, ctx))
	}
	if oc.CommitOutput() != nil {
		return
	}
	nd.r.noteDecided(k, nd.id, sub)
}

// applyOpen builds and initialises the participant of instance k, then
// replays any traffic that arrived early. Duplicate opens (a control raced
// with relaunch reconciliation) are deduplicated by the watermark.
func (nd *residentNode) applyOpen(ctx dist.Context, k int) {
	nd.mu.Lock()
	if k <= nd.highest {
		nd.mu.Unlock()
		return
	}
	nd.highest = k
	// Instances skipped over by this watermark advance can never be opened
	// (controls arrive in id order); drop any traffic buffered for them.
	for kk := range nd.future {
		if kk < k {
			delete(nd.future, kk)
		}
	}
	nd.mu.Unlock()
	spec, ok := nd.r.instanceSpec(k)
	if !ok {
		// A control for an instance the registry does not know — only
		// possible if a journal outlives its engine, which the constructor
		// forbids. Dropped; the watermark already advanced.
		return
	}
	sub, err := spec.New(nd.id)
	if err != nil {
		nd.mu.Lock()
		delete(nd.future, k)
		nd.mu.Unlock()
		nd.r.noteOpenFailure(k, nd.id, fmt.Errorf("engine: instance %d process %d: %w", k, nd.id, err))
		return
	}
	// Participants that stamp trace events get told which instance they
	// serve, so multi-instance traces stay attributable.
	if ti, ok := sub.(interface{ SetTraceInstance(int) }); ok {
		ti.SetTraceInstance(k)
	}
	h := &hosted{sub: sub, ctx: instanceContext{instance: k}}
	nd.mu.Lock()
	nd.subs[k] = h
	buf := nd.future[k]
	delete(nd.future, k)
	nd.mu.Unlock()
	sub.Init(h.ctx.over(ctx))
	nd.noteIfDecided(ctx, k, sub)
	for _, m := range buf {
		nd.deliverSub(ctx, h, m)
	}
}

// applyClose retires instance k: the participant (if any) is dropped, as is
// any buffered traffic. A close for a never-opened instance still advances
// the watermark, so later traffic for k is dropped rather than buffered
// forever.
func (nd *residentNode) applyClose(k int) {
	nd.mu.Lock()
	if k > nd.highest {
		nd.highest = k
		for kk := range nd.future {
			if kk <= k {
				delete(nd.future, kk)
			}
		}
	}
	delete(nd.subs, k)
	delete(nd.future, k)
	delete(nd.reported, k)
	nd.mu.Unlock()
}

// Highest returns the node's lifecycle watermark: the largest instance id
// it has applied a control for (-1 before the first). Relaunch
// reconciliation reads it to find the controls the node missed while down.
func (nd *residentNode) Highest() int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.highest
}

// OpenInstances lists the instances currently hosted by this node.
func (nd *residentNode) OpenInstances() []int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	out := make([]int, 0, len(nd.subs))
	for k := range nd.subs {
		out = append(out, k)
	}
	return out
}

// OpenCount returns the number of live participants (bounded-memory
// checks in tests).
func (nd *residentNode) OpenCount() int {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return len(nd.subs)
}
