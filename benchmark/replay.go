package main

import (
	"fmt"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/hull"
	"chc/internal/lp"
	"chc/internal/polytope"
	"chc/internal/rlink"
	"chc/internal/stablevector"
	"chc/internal/wire"
)

// The replay passes time the public kernels of the lower layers on operands
// harvested from the traced run itself (core.Trace records and delivered
// messages), so the kernel numbers describe the shapes this workload
// actually produces, not synthetic ones.

// timeIt records how long f took under name (in the unit conv yields).
func (t *tracer) timeIt(name string, conv func(time.Duration) float64, f func() error) error {
	t0 := time.Now()
	err := f()
	t.add(name, conv(time.Since(t0)))
	return err
}

// r0Values returns X_i, the input values of the stable vector result R_i
// (empty when the process crashed before round 0 ended).
func r0Values(tr core.Trace) []geom.Point {
	xi := make([]geom.Point, len(tr.R0Entries))
	for i, e := range tr.R0Entries {
		xi[i] = e.Value
	}
	return xi
}

// sentState returns the state process j broadcast in round r: h_j[r-1].
func sentState(tr core.Trace, r int) []geom.Point {
	if r == 1 {
		return tr.H0
	}
	if r-2 < len(tr.Rounds) {
		return tr.Rounds[r-2].State
	}
	return nil
}

// roundOperands rebuilds the n-f sender states process tr averaged in rec.
func roundOperands(it instanceTrace, rec core.RoundRecord, eps float64) ([]*polytope.Polytope, error) {
	polys := make([]*polytope.Polytope, 0, len(rec.Senders))
	for _, j := range rec.Senders {
		verts := sentState(it.traces[j], rec.Round)
		if verts == nil {
			return nil, nil // a crashed sender's record stops early; skip the round
		}
		p, err := polytope.New(verts, eps)
		if err != nil {
			return nil, err
		}
		polys = append(polys, p)
	}
	return polys, nil
}

// subsetHulls builds the C(|X|, f) subset hulls round 0 intersects (line 5).
func subsetHulls(xi []geom.Point, f int, eps float64) ([]*polytope.Polytope, error) {
	var polys []*polytope.Polytope
	excluded := make([]bool, len(xi))
	var rec func(from, left int) error
	rec = func(from, left int) error {
		if left == 0 {
			var sub []geom.Point
			for i, x := range xi {
				if !excluded[i] {
					sub = append(sub, x)
				}
			}
			p, err := polytope.New(sub, eps)
			if err != nil {
				return err
			}
			polys = append(polys, p)
			return nil
		}
		for i := from; i <= len(xi)-left; i++ {
			excluded[i] = true
			if err := rec(i+1, left-1); err != nil {
				return err
			}
			excluded[i] = false
		}
		return nil
	}
	return polys, rec(0, f)
}

// replayInstance re-executes every geometry call the n processes of one
// instance made — InitialPolytope, then per round n-f polytope.New plus
// Average — in the run's own memo mode, and returns the CPU it took. The
// memo is emptied first so it is as cold as it was when the instance ran.
func replayInstance(params core.Params, it instanceTrace) (time.Duration, error) {
	resetMemo()
	cpu0 := cpuTime()
	for _, tr := range it.traces {
		xi := r0Values(tr)
		if len(xi) == 0 {
			continue
		}
		if _, err := core.InitialPolytope(params, xi); err != nil {
			return 0, err
		}
		for _, rec := range tr.Rounds {
			polys, err := roundOperands(it, rec, params.GeomEps)
			if err != nil {
				return 0, err
			}
			if polys == nil {
				continue
			}
			if _, err := polytope.Average(polys, params.GeomEps); err != nil {
				return 0, err
			}
		}
	}
	return cpuTime() - cpu0, nil
}

// sampleRounds picks the rounds whose operands the kernel timings use:
// early, middle and late, because states shrink as rounds go by.
func sampleRounds(rounds []core.RoundRecord) []core.RoundRecord {
	if len(rounds) <= 3 {
		return rounds
	}
	return []core.RoundRecord{rounds[0], rounds[len(rounds)/2], rounds[len(rounds)-1]}
}

// replayKernels times each geometry kernel on the harvested operands with
// the memo off, so a number is the kernel's own cost and not a cache hit
// (how often the run hit the cache is reported separately).
func (t *tracer) replayKernels(params core.Params) error {
	params = params.WithDefaults()
	eps := params.GeomEps
	prev := polytope.SetHullCaching(false)
	defer polytope.SetHullCaching(prev)

	for _, it := range t.harvest {
		var finals []*polytope.Polytope
		for _, tr := range it.traces {
			xi := r0Values(tr)
			if len(xi) == 0 {
				continue
			}
			if err := t.timeIt("core.initial_polytope_ms", ms, func() error {
				_, err := core.InitialPolytope(params, xi)
				return err
			}); err != nil {
				return err
			}
			if params.F > 0 {
				subs, err := subsetHulls(xi, params.F, eps)
				if err != nil {
					return err
				}
				if err := t.timeIt("polytope.intersect_ms", ms, func() error {
					_, err := polytope.Intersect(subs, eps)
					return err
				}); err != nil {
					return err
				}
			}
			for _, rec := range sampleRounds(tr.Rounds) {
				polys, err := roundOperands(it, rec, eps)
				if err != nil {
					return err
				}
				if polys == nil {
					continue
				}
				if err := t.timeIt("polytope.average_ms", ms, func() error {
					_, err := polytope.Average(polys, eps)
					return err
				}); err != nil {
					return err
				}
				// The cloud the round's combine reduces: all operand vertices.
				var cloud []geom.Point
				for _, p := range polys {
					cloud = append(cloud, p.Vertices()...)
				}
				if err := t.timeIt("hull.convex_hull_us", us, func() error {
					_, err := hull.ConvexHull(cloud, eps)
					return err
				}); err != nil {
					return err
				}
				if err := t.timeIt("hull.facets_us", us, func() error {
					_, err := hull.Facets(rec.State, eps)
					return err
				}); err != nil {
					return err
				}
				if err := t.replayLP(cloud, rec.State, eps); err != nil {
					return err
				}
			}
			if len(tr.Rounds) > 0 {
				p, err := polytope.New(tr.Rounds[len(tr.Rounds)-1].State, eps)
				if err != nil {
					return err
				}
				finals = append(finals, p)
			}
		}
		for i := 1; i < len(finals); i++ {
			if err := t.timeIt("polytope.hausdorff_us", us, func() error {
				_, err := polytope.Hausdorff(finals[i-1], finals[i], eps)
				return err
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayLP times the two LP helpers the geometry leans on: a membership
// test of a state vertex against the operand cloud, and the Chebyshev
// centre of the state's facets.
func (t *tracer) replayLP(cloud, state []geom.Point, eps float64) error {
	verts := make([][]float64, len(cloud))
	for i, p := range cloud {
		verts[i] = p
	}
	if err := t.timeIt("lp.convex_weights_us", us, func() error {
		_, err := lp.ConvexWeights(verts, state[0], eps)
		return err
	}); err != nil {
		return err
	}
	facets, err := hull.Facets(state, eps)
	if err != nil {
		return err
	}
	a := make([][]float64, len(facets))
	b := make([]float64, len(facets))
	for i, f := range facets {
		a[i], b[i] = f.Normal, f.Offset
	}
	return t.timeIt("lp.chebyshev_us", us, func() error {
		_, _, err := lp.ChebyshevCenter(a, b, eps)
		return err
	})
}

// fifoNet is the smallest dist.Context that can drive stable-vector
// machines: one global FIFO queue, delivered in send order.
type fifoNet struct {
	n int
	q []dist.Message
}

type fifoCtx struct {
	net *fifoNet
	id  dist.ProcID
}

func (c fifoCtx) ID() dist.ProcID { return c.id }
func (c fifoCtx) N() int          { return c.net.n }

func (c fifoCtx) Send(to dist.ProcID, kind string, round int, payload any) {
	c.net.q = append(c.net.q, dist.Message{From: c.id, To: to, Kind: kind, Round: round, Payload: payload})
}

func (c fifoCtx) Broadcast(kind string, round int, payload any) {
	for to := 0; to < c.net.n; to++ {
		if dist.ProcID(to) != c.id {
			c.Send(dist.ProcID(to), kind, round, payload)
		}
	}
}

// replayStableVector runs round 0's primitive alone: n stablevector machines
// over the FIFO network, on instance k's inputs, until the queue drains.
func (t *tracer) replayStableVector(w *workload, seed int64, k int) error {
	p := w.params
	inputs := genInputs(seed, w.name, k, p.N, p.D)
	net := &fifoNet{n: p.N}
	svs := make([]*stablevector.SV, p.N)
	for i := range svs {
		sv, err := stablevector.New(dist.ProcID(i), p.N, p.F, inputs[i])
		if err != nil {
			return err
		}
		svs[i] = sv
	}
	t0 := time.Now()
	for i, sv := range svs {
		sv.Start(fifoCtx{net, dist.ProcID(i)})
	}
	msgs := 0
	for ; len(net.q) > 0; msgs++ {
		m := net.q[0]
		net.q = net.q[1:]
		svs[m.To].Handle(fifoCtx{net, m.To}, m)
	}
	t.add("stablevector.round0_ms", ms(time.Since(t0)))
	t.add("stablevector.msgs", float64(msgs))
	return nil
}

// replayWire pushes the captured protocol messages through the codec and
// returns the per-message encode time, decode time and encoded size.
func (t *tracer) replayWire() (encNS, decNS, bytes float64, err error) {
	msgs := t.captured
	if len(msgs) == 0 {
		return 0, 0, 0, nil
	}
	frames := make([][]byte, len(msgs))
	total := 0
	t0 := time.Now()
	for i, m := range msgs {
		if frames[i], err = wire.AppendMessage(nil, m); err != nil {
			return 0, 0, 0, err
		}
		total += len(frames[i])
	}
	enc := time.Since(t0)
	t0 = time.Now()
	for _, b := range frames {
		if _, err := wire.DecodeMessage(b); err != nil {
			return 0, 0, 0, err
		}
	}
	dec := time.Since(t0)
	n := float64(len(msgs))
	return float64(enc.Nanoseconds()) / n, float64(dec.Nanoseconds()) / n, float64(total) / n, nil
}

// directLink hands every frame straight to the peer endpoint: a perfect
// in-memory link, so the time measured is the reliable-link layer's own.
type directLink struct{ peer *rlink.Endpoint }

func (l *directLink) SendFrame(_ dist.ProcID, f wire.Frame) error {
	l.peer.OnFrame(f)
	return nil
}

// replayRlink sends the captured messages from one rlink endpoint to
// another over a direct link and returns the send-to-deliver time per
// message, acks included.
func (t *tracer) replayRlink() (float64, error) {
	msgs := t.captured
	if len(msgs) == 0 {
		return 0, nil
	}
	delivered := 0
	toB, toA := &directLink{}, &directLink{}
	a := rlink.New(0, 2, toB, func(dist.Message) error { return nil }, rlink.Config{})
	b := rlink.New(1, 2, toA, func(dist.Message) error { delivered++; return nil }, rlink.Config{})
	toB.peer, toA.peer = b, a
	defer a.Close()
	defer b.Close()
	t0 := time.Now()
	for _, m := range msgs {
		m.From, m.To = 0, 1
		if err := a.Send(m); err != nil {
			return 0, err
		}
	}
	took := time.Since(t0)
	if delivered != len(msgs) {
		return 0, fmt.Errorf("rlink pair delivered %d of %d messages", delivered, len(msgs))
	}
	return float64(took.Nanoseconds()) / float64(len(msgs)), nil
}
