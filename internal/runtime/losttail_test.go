package runtime_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/core"
	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/polytope"
	"chc/internal/rlink"
	"chc/internal/runtime"
	"chc/internal/wal"
	"chc/internal/wire"
)

// The lost-tail crash test. The journals live on a filesystem that keeps
// only what was synced (diskfault.MemFS: a killed node's abandoned log loses
// its whole unsynced tail), every frame is judged by a recorder at the
// moment it leaves its node, and a sweep of kill points restarts nodes all
// over a seeded CC run. Output commit holds if nothing that leaves a node —
// an ack, a handshake's watermark, a protocol message — ever claims or
// depends on a delivery a power cut at that instant would lose.

// incarnation is what one incarnation's state machine has consumed and
// produced: the number of deliveries handed to it (WAL replay included — a
// relaunched incarnation starts at its journal's count) and, for the k-th
// message it generated for each peer, how many it had consumed by then. The
// k-th message on a link is the frame with sequence number k, whichever
// incarnation (re)generates it and whenever the link transmits it.
type incarnation struct {
	consumed atomic.Int64

	mu   sync.Mutex
	need [][]int64 // need[to][k]
}

func (inc *incarnation) neededBy(to dist.ProcID, seq uint64) (int64, bool) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if seq >= uint64(len(inc.need[to])) {
		return 0, false
	}
	return inc.need[to][seq], true
}

// countingProc is a CC process that keeps its incarnation's books.
type countingProc struct {
	*core.Process
	inc *incarnation
}

func (p countingProc) Init(ctx dist.Context) { p.Process.Init(stampingCtx{ctx, p.inc}) }

func (p countingProc) Deliver(ctx dist.Context, m dist.Message) {
	p.inc.consumed.Add(1)
	p.Process.Deliver(stampingCtx{ctx, p.inc}, m)
}

// stampingCtx notes, ahead of every peer-bound send, what the message may
// depend on. It mirrors the runtime's contexts: invalid targets and
// self-sends take no link sequence number.
type stampingCtx struct {
	dist.Context
	inc *incarnation
}

func (c stampingCtx) Send(to dist.ProcID, kind string, round int, payload any) {
	if to >= 0 && int(to) < c.N() && to != c.ID() {
		c.inc.mu.Lock()
		c.inc.need[to] = append(c.inc.need[to], c.inc.consumed.Load())
		c.inc.mu.Unlock()
	}
	c.Context.Send(to, kind, round, payload)
}

func (c stampingCtx) Broadcast(kind string, round int, payload any) {
	for to := dist.ProcID(0); int(to) < c.N(); to++ {
		if to != c.ID() {
			c.Send(to, kind, round, payload)
		}
	}
}

// exitRecorder wraps every node's frame sender.
type exitRecorder struct {
	mem *diskfault.MemFS
	dir string
	n   int

	// inc[i] is node i's current incarnation.
	inc []atomic.Pointer[incarnation]

	mu       sync.Mutex
	payloads map[[3]uint64][]byte // (from, to, seq) -> first encoding seen, across incarnations
	acked    [][]uint64           // acked[x][p]: frames of link p->x that x has acknowledged
	byDead   [][]uint64           // the same, by x's dead incarnations only
	bad      []string
}

func newExitRecorder(mem *diskfault.MemFS, dir string, n int) *exitRecorder {
	r := &exitRecorder{mem: mem, dir: dir, n: n,
		inc:      make([]atomic.Pointer[incarnation], n),
		payloads: make(map[[3]uint64][]byte),
		acked:    make([][]uint64, n),
		byDead:   make([][]uint64, n),
	}
	for i := range r.acked {
		r.acked[i] = make([]uint64, n)
		r.byDead[i] = make([]uint64, n)
	}
	return r
}

// reborn starts node i's next incarnation: whatever i has acknowledged so
// far was acknowledged by incarnations that are now dead.
func (r *exitRecorder) reborn(i int, inc *incarnation) {
	r.mu.Lock()
	copy(r.byDead[i], r.acked[i])
	r.mu.Unlock()
	r.inc[i].Store(inc)
}

func (r *exitRecorder) violation(format string, args ...any) {
	r.mu.Lock()
	if len(r.bad) < 20 {
		r.bad = append(r.bad, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// durable replays what node i's journal would hold after a power cut now.
func (r *exitRecorder) durable(i dist.ProcID) *wal.Replayed {
	rep, err := wal.ReplayWith(r.mem.CrashImage(), runtime.WALPath(r.dir, i))
	if err != nil {
		r.violation("node %d: crash image does not replay: %v", i, err)
		return &wal.Replayed{}
	}
	return rep
}

type recordingSender struct {
	r     *exitRecorder
	from  dist.ProcID
	inner rlink.Sender
}

func (s recordingSender) SendFrame(to dist.ProcID, f wire.Frame) error {
	r, from := s.r, s.from
	switch f.Type {
	case wire.FrameData:
		enc, err := wire.AppendMessage(nil, f.Msg)
		if err != nil {
			r.violation("unencodable frame %d->%d seq %d: %v", from, to, f.Seq, err)
			break
		}
		key := [3]uint64{uint64(from), uint64(to), f.Seq}
		r.mu.Lock()
		first, seen := r.payloads[key]
		if !seen {
			r.payloads[key] = enc
		}
		r.mu.Unlock()
		if seen {
			// A retransmission, possibly by a later incarnation: same stamp,
			// same bytes, or the node equivocated across its restart.
			if !bytes.Equal(first, enc) {
				r.violation("link %d->%d seq %d carried two different payloads", from, to, f.Seq)
			}
			break
		}
		// Exit 3, a send: it may depend on anything its process had consumed
		// when it generated the message.
		need, ok := r.inc[from].Load().neededBy(to, f.Seq)
		if !ok {
			r.violation("frame %d->%d seq %d was never generated by the sender's state machine", from, to, f.Seq)
		} else if got := len(r.durable(from).Delivered); int64(got) < need {
			r.violation("send %d->%d seq %d left resting on %d deliveries with %d durable", from, to, f.Seq, need, got)
		}
	case wire.FrameAck:
		// Exit 1, the cumulative ack: the peer will trim everything below it.
		if got := r.durable(from).DeliveredFrom(to); got < f.Seq+1 {
			r.violation("ack %d->%d covers seq %d but only %d deliveries of that link are durable", from, to, f.Seq, got)
		}
		r.mu.Lock()
		if f.Seq+1 > r.acked[from][to] {
			r.acked[from][to] = f.Seq + 1
		}
		r.mu.Unlock()
	case wire.FrameHandshake:
		// Exit 2, the handshake's receive watermark: same claim as an ack —
		// and a relaunched node announcing less than it ever acked has lost
		// a frame its peer already trimmed.
		if got := r.durable(from).DeliveredFrom(to); got < f.Ack {
			r.violation("handshake %d->%d claims %d received but only %d are durable", from, to, f.Ack, got)
		}
		r.mu.Lock()
		acked := r.byDead[from][to]
		r.mu.Unlock()
		if f.Ack < acked {
			r.violation("relaunched node %d announces %d received from %d, its dead incarnations acked %d", from, f.Ack, to, acked)
		}
	}
	return s.inner.SendFrame(to, f)
}

// runLostTail runs one CC instance over the recorder with the given restart
// schedule and checks the recorder's verdict plus the paper's guarantees.
func runLostTail(t *testing.T, plans []runtime.RestartPlan) {
	t.Helper()
	fx := newCCFixture(t, 5, 1)
	n := fx.params.N
	mem := diskfault.NewMemFS()
	const dir = "/journals"
	rec := newExitRecorder(mem, dir, n)
	build := func(i int) dist.Process {
		p, err := core.NewProcess(fx.params, dist.ProcID(i), fx.inputs[i])
		if err != nil {
			t.Errorf("process %d: %v", i, err)
			return nil
		}
		inc := &incarnation{need: make([][]int64, n)}
		rec.reborn(i, inc)
		return countingProc{Process: p, inc: inc}
	}
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = build(i)
	}
	c, err := runtime.NewRecordedChannelCluster(procs,
		func(i int, s rlink.Sender) rlink.Sender {
			return recordingSender{r: rec, from: dist.ProcID(i), inner: s}
		},
		runtime.Config{
			Env:      runtime.Env{WALDir: dir, WALFS: mem, Restarts: plans},
			Recovery: runtime.RecoveryConfig{Factory: build, Inputs: fx.inputs},
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, v := range rec.bad {
		t.Error(v)
	}

	// Every frame a peer saw acked is in the acker's final journal, and that
	// journal reproduces the decision the run reported.
	result := &core.RunResult{Params: fx.params, Outputs: make(map[dist.ProcID]*polytope.Polytope)}
	for i, p := range c.Processes() {
		id := dist.ProcID(i)
		out, err := p.(countingProc).Output()
		if err != nil {
			t.Fatalf("node %d did not decide: %v", i, err)
		}
		result.Outputs[id] = out
		rep, err := wal.ReplayWith(mem, runtime.WALPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		for peer := range rec.acked[i] {
			if got, acked := rep.DeliveredFrom(dist.ProcID(peer)), rec.acked[i][peer]; got < acked {
				t.Errorf("node %d acked %d frames from %d, its journal holds %d", i, acked, peer, got)
			}
		}
		replayed, _, err := c.ReplayNodeForTest(i)
		if err != nil {
			t.Fatalf("replay node %d: %v", i, err)
		}
		again, err := replayed.(countingProc).Output()
		if err != nil {
			t.Fatalf("node %d: the journal does not reproduce its decision: %v", i, err)
		}
		if d, err := polytope.Hausdorff(out, again, fx.params.GeomEps); err != nil || d != 0 {
			t.Errorf("node %d: replayed decision differs from the reported one (d_H = %g, %v)", i, d, err)
		}
	}
	if err := core.CheckValidity(result, &core.RunConfig{Params: fx.params, Inputs: fx.inputs}); err != nil {
		t.Error(err)
	}
	if rep, err := core.CheckAgreement(result); err != nil || !rep.Holds {
		t.Errorf("ε-agreement: %+v, %v", rep, err)
	}
	if len(plans) > 0 && c.Stats().Net.Resumes == 0 {
		t.Error("no node was relaunched: the sweep point exercised nothing")
	}
}

// TestLostTailCrashSweep kills nodes all over the run — before anything was
// delivered, mid-broadcast, deep into the rounds, the same node twice, two
// nodes with overlapping outages — each kill abandoning the unsynced tail of
// the victim's journal.
func TestLostTailCrashSweep(t *testing.T) {
	const down = 3 * time.Millisecond
	t.Run("no-kill", func(t *testing.T) { runLostTail(t, nil) })
	for _, k := range []int{2, 7, 23, 58, 111, 139} {
		for _, p := range []dist.ProcID{0, 3} {
			k, p := k, p
			t.Run(fmt.Sprintf("kill-p%d-after-%d", p, k), func(t *testing.T) {
				runLostTail(t, []runtime.RestartPlan{{Proc: p, KillAfterSends: k, Downtime: down}})
			})
		}
	}
	t.Run("same-node-twice", func(t *testing.T) {
		runLostTail(t, []runtime.RestartPlan{
			{Proc: 1, KillAfterSends: 19, Downtime: down},
			{Proc: 1, KillAfterSends: 40, Downtime: 0},
		})
	})
	t.Run("overlapping-outages", func(t *testing.T) {
		runLostTail(t, []runtime.RestartPlan{
			{Proc: 2, KillAfterSends: 30, Downtime: down},
			{Proc: 4, KillAfterSends: 31, Downtime: down},
		})
	})
}
