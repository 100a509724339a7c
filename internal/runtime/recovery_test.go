package runtime

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/wal"
)

// TestJournalingDeliverOrderMatchesJournal hammers one incarnation's
// journaling path from several goroutines (per-sender link locks in rlink
// mean deliveries to one node do race) and checks that the order the
// mailbox hands messages to the process is byte-for-byte the order the
// journal replays — the invariant that makes a post-restart incarnation
// regenerate the exact pre-crash send sequence. Under output commit the
// deliveries themselves fsync nothing: one barrier afterwards covers them
// all, and the log is then abandoned (not flushed) to prove it did.
func TestJournalingDeliverOrderMatchesJournal(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir, 0)
	w, err := wal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	mbox := newMailbox()
	c := &Cluster{}
	box := newDurableBox(c, 0, w, mbox, &atomic.Bool{})

	const senders, per = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if err := box.deliver(dist.Message{From: dist.ProcID(g), To: 0, Kind: "t", Round: k}); err != nil {
					t.Errorf("deliver: %v", err)
				}
			}
		}()
	}
	wg.Wait()
	if err := box.barrier(waitSend); err != nil {
		t.Fatal(err)
	}
	// Only commits fsync (the barrier above, plus whatever the committer
	// fitted in): far fewer than one per delivery.
	if syncs := w.Stats().Syncs; syncs > senders*per/2 {
		t.Errorf("%d fsyncs for %d deliveries: the delivery path is fsyncing", syncs, senders*per)
	}
	box.close()
	c.bg.Wait()
	w.Abandon()
	rep, err := wal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Delivered) != senders*per {
		t.Fatalf("journal has %d deliveries, want %d", len(rep.Delivered), senders*per)
	}
	mbox.Close()
	for i, want := range rep.Delivered {
		got, err := mbox.Pop()
		if err != nil {
			t.Fatalf("mailbox drained after %d messages, journal has %d", i, len(rep.Delivered))
		}
		if got.From != want.From || got.Round != want.Round {
			t.Fatalf("position %d: mailbox has {from %d round %d}, journal has {from %d round %d}",
				i, got.From, got.Round, want.From, want.Round)
		}
	}
}

// panicOnReplayProc runs normally in its first incarnation (as gatherProc)
// but the recovery factory builds this type, which panics on the first
// replayed delivery — modelling a corrupt history or a buggy factory.
type panicOnReplayProc struct{}

func (panicOnReplayProc) Init(dist.Context) {}
func (panicOnReplayProc) Deliver(dist.Context, dist.Message) {
	panic("replay blew up")
}
func (panicOnReplayProc) Done() bool { return false }

// echoOnDeliverProc is a gatherProc that answers every delivery with one
// extra send. Sends are the only thing that spends the kill budget, so a
// node running this type with a budget larger than its Init broadcast can
// only crash *inside* a Deliver — i.e. strictly after that delivery was
// journaled. That makes "the journal holds at least one delivery at
// relaunch" deterministic instead of a race against the Init-broadcast kill.
type echoOnDeliverProc struct{ *gatherProc }

func (p echoOnDeliverProc) Deliver(ctx dist.Context, msg dist.Message) {
	p.gatherProc.Deliver(ctx, msg)
	ctx.Send(msg.From, "echo", msg.Round, nil)
}

// TestRecoveryPanicIsDistinctError asserts the satellite requirement: a
// process panicking during replay surfaces as ErrRecovery, not as a plain
// crash or a timeout.
func TestRecoveryPanicIsDistinctError(t *testing.T) {
	const n = 4
	procs := make([]dist.Process, n)
	for i := range procs {
		// Quorum n-1: the three surviving nodes can finish without node 0.
		procs[i] = newGatherProc(n-1, nil)
	}
	// Node 0 echoes deliveries; budget n: Init consumes n-1 sends, the first
	// delivery's echo consumes the last, the second delivery's echo trips the
	// crash — so at relaunch the journal provably holds deliveries, and the
	// replaying panicOnReplayProc panics inside replayNode (where the
	// recovery machinery must catch it), never in the live delivery loop.
	// Its quorum is unreachable so it cannot decide before the crash fires.
	procs[0] = echoOnDeliverProc{newGatherProc(n+1, nil)}
	c, err := NewChannelCluster(procs, Config{
		Env: Env{
			WALDir:   t.TempDir(),
			Restarts: []RestartPlan{{Proc: 0, KillAfterSends: n, Downtime: time.Millisecond}},
		},
		Recovery: RecoveryConfig{Factory: func(int) dist.Process { return panicOnReplayProc{} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(30 * time.Second)
	if !errors.Is(err, ErrRecovery) {
		t.Fatalf("err = %v, want ErrRecovery", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("recovery failure misreported as timeout: %v", err)
	}
}

// TestTimeoutReportsPartialStats asserts the satellite requirement: a run
// that times out still reports the counters accumulated so far.
func TestTimeoutReportsPartialStats(t *testing.T) {
	const n = 3
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newGatherProc(n+1, nil) // unreachable quorum: never done
	}
	c, err := NewChannelCluster(procs, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(100 * time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if st := c.Stats(); st.Sends != n*(n-1) {
		t.Errorf("partial stats: sends = %d, want %d", st.Sends, n*(n-1))
	}
}

func TestRecoveryValidation(t *testing.T) {
	procs := []dist.Process{newGatherProc(1, nil), newGatherProc(1, nil)}
	restarts := func(plans ...RestartPlan) Config {
		return Config{
			Env:      Env{WALDir: t.TempDir(), Restarts: plans},
			Recovery: RecoveryConfig{Factory: func(int) dist.Process { return nil }},
		}
	}
	if _, err := NewChannelCluster(procs, Config{Env: Env{Restarts: []RestartPlan{{Proc: 0, KillAfterSends: 1}}}}); err == nil {
		t.Error("restarts without a WAL should error")
	}
	if _, err := NewChannelCluster(procs, restarts(RestartPlan{Proc: 9, KillAfterSends: 1})); err == nil {
		t.Error("restart plan for unknown process should error")
	}
	if _, err := NewChannelCluster(procs, restarts(RestartPlan{Proc: 0, KillAfterSends: -1})); err == nil {
		t.Error("negative kill budget should error")
	}
	if _, err := NewChannelCluster(procs, Config{Env: Env{WALDir: t.TempDir()}}); err == nil {
		t.Error("recovery without factory should error")
	}
	bad := restarts()
	bad.Recovery.Inputs = []geom.Point{geom.NewPoint(1)}
	if _, err := NewChannelCluster(procs, bad); err == nil {
		t.Error("input-count mismatch should error")
	}
}

// TestWALPathLayout pins the on-disk layout the chcrun -recover flag and
// operators rely on.
func TestWALPathLayout(t *testing.T) {
	if got := WALPath("/tmp/x", 7); got != "/tmp/x/node-007.wal" {
		t.Errorf("WALPath = %q", got)
	}
}
