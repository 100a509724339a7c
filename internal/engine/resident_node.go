package engine

import (
	"fmt"
	"sync"

	"chc/internal/dist"
)

// residentNode is the engine's per-process host: a dist.Process that holds
// one participant per instance, keyed by instance id, and demultiplexes
// traffic by the message's numeric Instance field. Every executor that can
// drive one state machine — the simulator, the channel runtime, TCP — can
// drive it unchanged.
//
// A node serves one of two engines, and whether it has a *Resident decides
// which:
//   - A batch node (newBatchNode, for Run) is built with every instance of
//     its spec already open, initialises them in Init, is Done once all of
//     them have terminated, and drops traffic for instances it does not host.
//   - A resident node (newResidentNode, for StartResident) starts empty and
//     is driven by in-band open/close controls. It buffers early traffic,
//     reports each decision to the engine through the output-commit gate,
//     and is never Done.
//
// Everything the node does is a pure function of its delivery sequence
// (controls included), which is what makes it WAL-replayable: a relaunched
// node fed the same journal rebuilds the same participants, buffers and
// drops the same messages at the same positions, and therefore regenerates
// exactly the original sends for the resumed reliable links.
type residentNode struct {
	r  *Resident // nil on a batch node
	id dist.ProcID

	// undecided counts the hosted participants of a batch node that have not
	// terminated. It is owned by the goroutine driving the node, which is
	// the only caller of Done while the node runs.
	undecided int

	// mu orders the writes of subs and highest against the readers on other
	// goroutines (Highest, OpenInstances, OpenCount, Sub). Only the
	// goroutine driving the node writes them, so its own reads need no lock.
	mu sync.Mutex
	// subs holds the live participants. Retired instances are deleted — the
	// bounded-memory contract of the resident engine.
	subs map[int]*hosted
	// highest is the largest instance id a control has been applied for
	// (-1 before the first; a batch node's last instance). Messages above it
	// belong to instances a resident node has not opened yet and are
	// buffered; messages at or below it with no live participant belong to
	// retired instances and are dropped.
	highest int
	// future buffers early traffic: a peer can initialise instance k and
	// send its round-0 messages before this node has processed its own open
	// control for k. Only the driving goroutine touches it.
	future map[int][]dist.Message
}

// hosted is one live participant and the context it is driven through.
type hosted struct {
	sub dist.Process
	ctx instanceContext
	// decided marks a participant whose termination this incarnation has
	// already counted (batch) or forwarded to the engine (resident).
	decided bool
}

var _ dist.Process = (*residentNode)(nil)

func newResidentNode(r *Resident, id dist.ProcID) *residentNode {
	return &residentNode{
		r:       r,
		id:      id,
		subs:    make(map[int]*hosted),
		highest: -1,
		future:  make(map[int][]dist.Message),
	}
}

// newBatchNode builds process id's node with every instance of the spec
// already open, constructing the participants in instance order.
func newBatchNode(spec Spec, id dist.ProcID) (*residentNode, error) {
	nd := newResidentNode(nil, id)
	for k, ins := range spec.Instances {
		if ins.New == nil {
			return nil, fmt.Errorf("engine: instance %d has no constructor", k)
		}
		h, err := construct(ins, k, id)
		if err != nil {
			return nil, err
		}
		nd.subs[k] = h
	}
	nd.highest = len(spec.Instances) - 1
	nd.undecided = len(spec.Instances)
	return nd, nil
}

// construct builds process id's participant of instance k.
func construct(spec InstanceSpec, k int, id dist.ProcID) (*hosted, error) {
	sub, err := spec.New(id)
	if err != nil {
		return nil, fmt.Errorf("engine: instance %d process %d: %w", k, id, err)
	}
	// Participants that stamp trace events get told which instance they
	// serve, so multi-instance traces stay attributable.
	if ti, ok := sub.(interface{ SetTraceInstance(int) }); ok {
		ti.SetTraceInstance(k)
	}
	return &hosted{sub: sub, ctx: instanceContext{instance: k}}, nil
}

// Init initialises the participants the node was built with, in instance
// order (the order is part of the deterministic contract: a crash budget
// landing mid-Init cuts the same prefix on every executor and on WAL
// replay). Only a batch node has any: a resident node starts empty, and a
// replayed one rebuilds from its journal.
func (nd *residentNode) Init(ctx dist.Context) {
	for k := 0; k <= nd.highest; k++ {
		h := nd.subs[k]
		h.sub.Init(h.ctx.over(ctx))
		nd.noteIfDecided(ctx, h)
	}
}

// Done reports whether every participant of a batch node has terminated. A
// resident node is never done — the cluster runs until Shutdown — which also
// keeps the runtime's decision journaling inert for it.
func (nd *residentNode) Done() bool { return nd.r == nil && nd.undecided == 0 }

// DecidedRound reports the largest decided round across a batch node's
// instances once all of them have terminated, and 0 before that — so the
// runtime's decision journaling (which fires when the node as a whole is
// Done) records the round that completed the node. For a single-instance
// node this is exactly the participant's own DecidedRound.
func (nd *residentNode) DecidedRound() int {
	if !nd.Done() {
		return 0
	}
	round := 0
	for _, h := range nd.subs {
		if dr, ok := h.sub.(interface{ DecidedRound() int }); ok {
			round = max(round, dr.DecidedRound())
		}
	}
	return round
}

// Deliver applies one message: on a resident node lifecycle controls mutate
// the hosted set; everything else routes to the participant named by the
// instance field. The kind string is handed through byte-for-byte.
func (nd *residentNode) Deliver(ctx dist.Context, msg dist.Message) {
	if nd.r != nil {
		switch msg.Kind {
		case dist.KindOpenInstance:
			nd.applyOpen(ctx, msg.Instance)
			return
		case dist.KindCloseInstance:
			nd.applyClose(msg.Instance)
			return
		}
	}
	k := msg.Instance
	if h, ok := nd.subs[k]; ok {
		nd.deliverSub(ctx, h, msg)
		return
	}
	if nd.r != nil && k > nd.highest {
		nd.future[k] = append(nd.future[k], msg)
	}
	// Otherwise traffic for an instance the node does not host is dropped:
	// on a resident node the instance was retired (or failed to construct);
	// on a batch node the network may carry frames from a
	// differently-configured peer, and a state machine must never see
	// traffic it did not subscribe to.
}

// deliverSub hands one message to a participant and notes termination.
func (nd *residentNode) deliverSub(ctx dist.Context, h *hosted, msg dist.Message) {
	h.sub.Deliver(h.ctx.over(ctx), msg)
	nd.noteIfDecided(ctx, h)
}

// noteIfDecided records a participant's termination, once per instance per
// incarnation. A batch node counts it toward Done. A resident node forwards
// it to the engine (which dedups across incarnations). The decision leaves
// the node there — the sink hands it to the tenant — so it first waits for
// the journal to cover the deliveries it rests on; if that commit fails the
// incarnation is dead and the decision is reported by the relaunch that can
// reproduce it. The gate is not optional: every context the runtime drives a
// resident node with is a dist.OutputCommitter, and one that is not (a
// wrapper that forgot to forward it) would silently void the durability
// contract, so it is a bug and panics.
func (nd *residentNode) noteIfDecided(ctx dist.Context, h *hosted) {
	if h.decided || !h.sub.Done() {
		return
	}
	h.decided = true
	if nd.r == nil {
		nd.undecided--
		return
	}
	oc, ok := ctx.(dist.OutputCommitter)
	if !ok {
		panic(fmt.Sprintf("engine: resident node %d driven by a %T, which cannot commit output", nd.id, ctx))
	}
	if oc.CommitOutput() != nil {
		return
	}
	nd.r.noteDecided(h.ctx.instance, nd.id, h.sub)
}

// applyOpen builds and initialises the participant of instance k, then
// replays any traffic that arrived early. Duplicate opens (a control raced
// with relaunch reconciliation) are deduplicated by the watermark.
func (nd *residentNode) applyOpen(ctx dist.Context, k int) {
	if k <= nd.highest {
		return
	}
	nd.mu.Lock()
	nd.highest = k
	nd.mu.Unlock()
	// Instances skipped over by this watermark advance can never be opened
	// (controls arrive in id order); drop any traffic buffered for them.
	for kk := range nd.future {
		if kk < k {
			delete(nd.future, kk)
		}
	}
	spec, ok := nd.r.instanceSpec(k)
	if !ok {
		// A control for an instance the registry does not know — only
		// possible if a journal outlives its engine, which the constructor
		// forbids. Dropped; the watermark already advanced.
		return
	}
	buf := nd.future[k]
	delete(nd.future, k)
	h, err := construct(spec, k, nd.id)
	if err != nil {
		nd.r.noteOpenFailure(k, nd.id, err)
		return
	}
	nd.mu.Lock()
	nd.subs[k] = h
	nd.mu.Unlock()
	h.sub.Init(h.ctx.over(ctx))
	nd.noteIfDecided(ctx, h)
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
	nd.highest = max(nd.highest, k)
	delete(nd.subs, k)
	nd.mu.Unlock()
	for kk := range nd.future {
		if kk <= k {
			delete(nd.future, kk)
		}
	}
}

// Sub returns the participant of instance k (nil if the node does not host
// it).
func (nd *residentNode) Sub(k int) dist.Process {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if h, ok := nd.subs[k]; ok {
		return h.sub
	}
	return nil
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

// instanceContext adapts the executor's context for one hosted participant:
// plain Sends and Broadcasts are stamped with the participant's instance
// index through the executor's InstanceSender and InstanceBroadcaster
// hooks. Kinds pass through untouched. A node keeps one per hosted instance
// for the instance's whole life and re-points it at the executor's context
// on every entry — a node is driven by one goroutine at a time, and a
// relaunched incarnation hands in a new context.
type instanceContext struct {
	inner    dist.Context
	instance int
}

var _ dist.Context = (*instanceContext)(nil)

// over points ic at the context of the Init or Deliver call in progress.
func (ic *instanceContext) over(inner dist.Context) *instanceContext {
	ic.inner = inner
	return ic
}

func (ic *instanceContext) ID() dist.ProcID { return ic.inner.ID() }
func (ic *instanceContext) N() int          { return ic.inner.N() }

func (ic *instanceContext) Send(to dist.ProcID, kind string, round int, payload any) {
	if is, ok := ic.inner.(dist.InstanceSender); ok {
		is.SendInstance(ic.instance, to, kind, round, payload)
		return
	}
	if ic.instance == 0 {
		// A non-multiplexing executor can still host instance 0 (the zero
		// value of Message.Instance): single-instance runs degrade cleanly.
		ic.inner.Send(to, kind, round, payload)
		return
	}
	panic(fmt.Sprintf("engine: context %T cannot stamp instance %d on outgoing messages", ic.inner, ic.instance))
}

// Broadcast hands the broadcast to the executor whole, stamped with the
// participant's instance, under the same rules as Send.
func (ic *instanceContext) Broadcast(kind string, round int, payload any) {
	if ib, ok := ic.inner.(dist.InstanceBroadcaster); ok {
		ib.BroadcastInstance(ic.instance, kind, round, payload)
		return
	}
	if ic.instance == 0 {
		ic.inner.Broadcast(kind, round, payload)
		return
	}
	panic(fmt.Sprintf("engine: context %T cannot stamp instance %d on outgoing messages", ic.inner, ic.instance))
}
