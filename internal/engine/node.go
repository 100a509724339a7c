package engine

import (
	"fmt"

	"chc/internal/dist"
)

// Node hosts one participant per instance on a single process and
// demultiplexes traffic by the message's numeric Instance field. It
// implements dist.Process, so every executor that can drive one state
// machine — the simulator, the channel runtime, TCP — can drive a whole
// batch unchanged.
type Node struct {
	id   dist.ProcID
	subs []dist.Process
	ctxs []instanceContext // ctxs[k] is the context subs[k] is driven through
}

var _ dist.Process = (*Node)(nil)

// buildNode constructs process id's participants for every instance of the
// spec, in instance order.
func buildNode(spec Spec, id dist.ProcID) (*Node, error) {
	nd := &Node{
		id:   id,
		subs: make([]dist.Process, len(spec.Instances)),
		ctxs: make([]instanceContext, len(spec.Instances)),
	}
	for k, ins := range spec.Instances {
		if ins.New == nil {
			return nil, fmt.Errorf("engine: instance %d has no constructor", k)
		}
		sub, err := ins.New(id)
		if err != nil {
			return nil, fmt.Errorf("engine: instance %d process %d: %w", k, id, err)
		}
		// Participants that stamp trace events get told which instance they
		// serve, so multi-instance traces stay attributable.
		if ti, ok := sub.(interface{ SetTraceInstance(int) }); ok {
			ti.SetTraceInstance(k)
		}
		nd.subs[k] = sub
		nd.ctxs[k].instance = k
	}
	return nd, nil
}

// Init initialises every hosted participant, in instance order (the order is
// part of the deterministic contract: a crash budget landing mid-Init cuts
// the same prefix on every executor and on WAL replay).
func (nd *Node) Init(ctx dist.Context) {
	for k, sub := range nd.subs {
		sub.Init(nd.ctxs[k].over(ctx))
	}
}

// Deliver routes one message to the instance named by its Instance field.
// Messages for unknown instances are dropped — the network may carry frames
// from a differently-configured peer, and a state machine must never see
// traffic it did not subscribe to. The kind string is handed through
// byte-for-byte.
func (nd *Node) Deliver(ctx dist.Context, msg dist.Message) {
	k := msg.Instance
	if k < 0 || k >= len(nd.subs) {
		return
	}
	nd.subs[k].Deliver(nd.ctxs[k].over(ctx), msg)
}

// Done reports whether every hosted participant has terminated.
func (nd *Node) Done() bool {
	for _, sub := range nd.subs {
		if !sub.Done() {
			return false
		}
	}
	return true
}

// Sub returns the participant of instance k.
func (nd *Node) Sub(k int) dist.Process { return nd.subs[k] }

// DecidedRound reports the largest decided round across hosted instances
// once all of them have terminated, and 0 before that — so the runtime's
// decision journaling (which fires when the node as a whole is Done) records
// the round that completed the node. For a single-instance node this is
// exactly the participant's own DecidedRound.
func (nd *Node) DecidedRound() int {
	if !nd.Done() {
		return 0
	}
	round := 0
	for _, sub := range nd.subs {
		if dr, ok := sub.(interface{ DecidedRound() int }); ok {
			if r := dr.DecidedRound(); r > round {
				round = r
			}
		}
	}
	return round
}

// instanceContext adapts the driver's context for one hosted participant:
// plain Sends and Broadcasts are stamped with the participant's instance
// index through the driver's InstanceSender hook. Kinds pass through
// untouched. A node keeps one per hosted instance for the instance's whole
// life and re-points it at the driver's context on every entry — a node is
// driven by one goroutine at a time, and a relaunched incarnation hands in
// a new context.
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
		// A non-multiplexing driver can still host instance 0 (the zero
		// value of Message.Instance): single-instance runs degrade cleanly.
		ic.inner.Send(to, kind, round, payload)
		return
	}
	panic(fmt.Sprintf("engine: context %T cannot stamp instance %d on outgoing messages", ic.inner, ic.instance))
}

// Broadcast mirrors the executors' own broadcast: one send per other
// process in ascending ID order, so a crash budget cuts the same prefix.
func (ic *instanceContext) Broadcast(kind string, round int, payload any) {
	n := ic.inner.N()
	self := ic.inner.ID()
	for to := dist.ProcID(0); int(to) < n; to++ {
		if to == self {
			continue
		}
		ic.Send(to, kind, round, payload)
	}
}
