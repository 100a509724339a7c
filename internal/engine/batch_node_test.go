package engine

import (
	"testing"

	"chc/internal/dist"
)

// pinger broadcasts one ping in Init and terminates once it has heard one
// from every other process; pings counts every ping it was handed.
type pinger struct {
	n, pings int
}

func (p *pinger) Init(ctx dist.Context) { p.n = ctx.N(); ctx.Broadcast("ping", 0, nil) }
func (p *pinger) Done() bool            { return p.pings >= p.n-1 }

func (p *pinger) Deliver(_ dist.Context, msg dist.Message) {
	if msg.Kind == "ping" {
		p.pings++
	}
}

// straysFirst drives a batch node and, right after its Init, hands it pings
// stamped with instance ids the node does not host.
type straysFirst struct {
	*residentNode
	strays []int
}

func (s straysFirst) Init(ctx dist.Context) {
	s.residentNode.Init(ctx)
	for _, k := range s.strays {
		s.residentNode.Deliver(ctx, dist.Message{From: 1, To: s.id, Kind: "ping", Instance: k})
	}
}

// TestBatchNodeDropsUnhostedInstances: a batch node hands traffic for an
// instance outside its spec to nobody — neither to a participant nor to the
// resident engine's early-traffic buffer, which on a long networked batch
// would grow without bound — and its real instance still decides on exactly
// the traffic addressed to it.
func TestBatchNodeDropsUnhostedInstances(t *testing.T) {
	const n = 4
	spec := Spec{N: n, Instances: []InstanceSpec{{New: func(dist.ProcID) (dist.Process, error) { return &pinger{}, nil }}}}
	nodes := make([]*residentNode, n)
	procs := make([]dist.Process, n)
	for i := range procs {
		nd, err := newBatchNode(spec, dist.ProcID(i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], procs[i] = nd, nd
	}
	procs[0] = straysFirst{nodes[0], []int{-1, len(spec.Instances)}}
	sim, err := dist.NewSim(dist.Config{N: n, Seed: 1}, procs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	nd := nodes[0]
	if got := nd.OpenCount(); got != 1 {
		t.Errorf("node hosts %d participants, want 1", got)
	}
	if len(nd.future) != 0 {
		t.Errorf("node buffered traffic for unhosted instances: %v", nd.future)
	}
	if !nd.Done() {
		t.Error("batch node not done")
	}
	if got := nd.Sub(0).(*pinger).pings; got != n-1 {
		t.Errorf("instance 0 was handed %d pings, want %d", got, n-1)
	}
	for _, k := range []int{-1, len(spec.Instances)} {
		if sub := nd.Sub(k); sub != nil {
			t.Errorf("node hosts instance %d: %T", k, sub)
		}
	}
}
