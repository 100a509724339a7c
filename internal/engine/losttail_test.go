// The resident half of the lost-tail crash test (the link-level half is
// internal/runtime's TestLostTailCrashSweep): the two exits only a resident
// engine has — a decision handed to an instance sink and an instance id
// returned by Open — judged against what a power cut at that instant would
// leave of the journals, on a filesystem that keeps only what was synced.
package engine_test

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/runtime"
	"chc/internal/wal"
)

// syncHookFS runs a hook ahead of every fsync of a writable file: the hook
// can hold the fsync back (a slow disk) or fail it (a sick one).
type syncHookFS struct {
	wal.FS
	hook func(path string) error
}

type syncHookFile struct {
	wal.File
	fs   *syncHookFS
	path string
}

func (f syncHookFile) Sync() error {
	if err := f.fs.hook(f.path); err != nil {
		return err
	}
	return f.File.Sync()
}

func (fs *syncHookFS) Create(path string) (wal.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return syncHookFile{f, fs, path}, nil
}

func (fs *syncHookFS) OpenRW(path string) (wal.File, error) {
	f, err := fs.FS.OpenRW(path)
	if err != nil {
		return nil, err
	}
	return syncHookFile{f, fs, path}, nil
}

// gate holds callers of wait while it is held.
type gate struct {
	mu sync.Mutex
	ch chan struct{} // non-nil while held
}

func (g *gate) hold() {
	g.mu.Lock()
	g.ch = make(chan struct{})
	g.mu.Unlock()
}

func (g *gate) open() {
	g.mu.Lock()
	close(g.ch)
	g.ch = nil
	g.mu.Unlock()
}

func (g *gate) wait() {
	g.mu.Lock()
	ch := g.ch
	g.mu.Unlock()
	if ch != nil {
		<-ch
	}
}

// dropCtx is a context whose sends go nowhere: enough to re-run a
// participant over a journaled delivery sequence.
type dropCtx struct {
	id dist.ProcID
	n  int
}

func (c dropCtx) ID() dist.ProcID                               { return c.id }
func (c dropCtx) N() int                                        { return c.n }
func (dropCtx) Send(dist.ProcID, string, int, any)              {}
func (dropCtx) Broadcast(kind string, r int, p any)             {}
func (dropCtx) SendInstance(int, dist.ProcID, string, int, any) {}

// journaledOpen reports whether the journal image holds node id's open
// control for instance k.
func journaledOpen(t *testing.T, img wal.FS, dir string, id dist.ProcID, k int) bool {
	t.Helper()
	rep, err := wal.ReplayWith(img, runtime.WALPath(dir, id))
	if err != nil {
		t.Fatalf("node %d: journal image does not replay: %v", id, err)
	}
	for _, m := range rep.Delivered {
		if m.Kind == dist.KindOpenInstance && m.Instance == k {
			return true
		}
	}
	return false
}

// TestLostTailResidentExits serves a stream of instances while node 2 is
// killed mid-stream (its journal's unsynced tail lost) and relaunched, and
// checks at every exit that what leaves is already durable: when a sink is
// handed process id's decision of instance k, the crash image of id's
// journal must reproduce that decision; and Open must not return an id while
// any node's journal could still lose the open — shown by holding every
// fsync back and watching Open wait.
func TestLostTailResidentExits(t *testing.T) {
	const (
		n   = 5
		dir = "/journals"
	)
	mem := diskfault.NewMemFS()
	var fsyncs gate
	fs := &syncHookFS{FS: mem, hook: func(string) error {
		fsyncs.wait()
		return nil
	}}
	r, err := engine.StartResident(n, engine.ResidentOptions{
		Transport: engine.TransportChannel,
		Env: runtime.Env{
			WALDir:   dir,
			WALFS:    fs,
			Restarts: []runtime.RestartPlan{{Proc: 2, KillAfterSends: 200, Downtime: 3 * time.Millisecond}},
		},
	})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()

	const instances = 5
	specs := make([]engine.InstanceSpec, instances)
	watchers := make([]*watcher, instances)
	var mu sync.Mutex
	var bad []string
	for k := 0; k < instances; k++ {
		k := k
		specs[k], _ = ccSpec(t, n, int64(40+k))
		w := newWatcher(n)
		watchers[k] = w
		sink := w.sink()
		inner := sink.OnProcDecided
		sink.OnProcDecided = func(id dist.ProcID, sub dist.Process) {
			// Exit 4: the decision is leaving node id. Re-derive it from
			// what a power cut right now would leave of id's journal.
			rep, err := wal.ReplayWith(mem.CrashImage(), runtime.WALPath(dir, id))
			again, nerr := specs[k].New(id)
			if err != nil || nerr != nil {
				t.Errorf("instance %d process %d: replay %v, rebuild %v", k, id, err, nerr)
			} else {
				ctx := dropCtx{id: id, n: n}
				again.Init(ctx)
				for _, m := range rep.Delivered {
					if m.Instance == k && !dist.IsControl(m.Kind) {
						again.Deliver(ctx, m)
					}
				}
				if !again.Done() {
					mu.Lock()
					bad = append(bad, "a sink was handed a decision the durable journal cannot reproduce")
					mu.Unlock()
				}
			}
			inner(id, sub)
		}

		// Exit 5: with every fsync held back, Open cannot have its controls
		// covered, so it must not return.
		fsyncs.hold()
		opened := make(chan int, 1)
		go func() {
			id, err := r.Open(specs[k], sink)
			if err != nil {
				t.Errorf("Open %d: %v", k, err)
			}
			opened <- id
		}()
		select {
		case <-opened:
			fsyncs.open() // let the deferred Close through
			t.Fatalf("Open %d returned while no journal could have synced its open control", k)
		case <-time.After(20 * time.Millisecond):
		}
		fsyncs.open()
		id := <-opened
		img := mem.CrashImage()
		for i := 0; i < n; i++ {
			// Node 2 may be down between its kill and its relaunch, which
			// re-derives the open; every other node is up and must hold it.
			if i != 2 && !journaledOpen(t, img, dir, dist.ProcID(i), id) {
				t.Errorf("Open returned %d before node %d's journal held the open durably", id, i)
			}
		}
		w.wait(t, 60*time.Second)
	}
	for k, w := range watchers {
		w.mu.Lock()
		if w.err != nil || len(w.decided) != n {
			t.Errorf("instance %d: %d decisions, err %v", k, len(w.decided), w.err)
		}
		w.mu.Unlock()
	}
	mu.Lock()
	for _, b := range bad {
		t.Error(b)
	}
	mu.Unlock()
	if st := r.Stats(); st.Net.Resumes == 0 {
		t.Errorf("node 2 was never relaunched: %+v", st.Net)
	}
}

// TestLostTailControlLostBeforeCommit kills a node between a control's
// append and its commit: node 2's disk fails the one fsync that would have
// covered the open of instance 1, so the node fail-stops with the control in
// the unsynced tail of its journal, which dies with it. The relaunched
// incarnation replays a journal that has never heard of instance 1, and
// reconcile re-derives the open from that journal's lifecycle watermark —
// the instance still decides on all n processes.
func TestLostTailControlLostBeforeCommit(t *testing.T) {
	const (
		n   = 5
		dir = "/journals"
	)
	mem := diskfault.NewMemFS()
	var failNext atomic.Bool
	errSick := errors.New("injected fsync failure")
	fs := &syncHookFS{FS: mem, hook: func(path string) error {
		if strings.Contains(path, "node-002") && failNext.CompareAndSwap(true, false) {
			return errSick
		}
		return nil
	}}
	r, err := engine.StartResident(n, engine.ResidentOptions{
		Transport: engine.TransportChannel,
		Env: runtime.Env{
			WALDir: dir,
			WALFS:  fs,
			// Never killed by budget: the plan only lets the supervisor relaunch
			// the node after its fail-stop.
			Restarts: []runtime.RestartPlan{{Proc: 2, KillAfterSends: 1 << 30, Downtime: 50 * time.Millisecond}},
		},
	})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()

	open := func(k int) *watcher {
		spec, _ := ccSpec(t, n, int64(60+k))
		w := newWatcher(n)
		if id, err := r.Open(spec, w.sink()); err != nil || id != k {
			t.Fatalf("Open = %d, %v; want %d", id, err, k)
		}
		return w
	}
	open(0).wait(t, 60*time.Second)
	// Let the cluster go quiet: closes applied, every committer done.
	for deadline := time.Now().Add(10 * time.Second); r.LiveParticipants() > 0; {
		if time.Now().After(deadline) {
			t.Fatal("instance 0 never retired")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	failNext.Store(true)
	w := open(1)
	if failNext.Load() {
		t.Fatal("Open returned without node 2 attempting the commit of its control")
	}
	// Node 2 is dead for the next 50 ms and the open of instance 1 died in
	// its journal's tail; every other node holds it durably.
	img := mem.CrashImage()
	if journaledOpen(t, img, dir, 2, 1) {
		t.Fatal("the open control survived the failed commit: nothing was lost, nothing to re-derive")
	}
	if !journaledOpen(t, img, dir, 0, 1) {
		t.Fatal("node 0 does not hold the open durably after Open returned")
	}
	w.wait(t, 60*time.Second)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || len(w.decided) != n {
		t.Fatalf("instance 1: %d decisions, err %v", len(w.decided), w.err)
	}
	st := r.Stats()
	if st.Net.FailStops != 1 || st.Net.Resumes == 0 {
		t.Fatalf("want one fail-stop and a relaunch, got %+v", st.Net)
	}
	if !journaledOpen(t, mem, dir, 2, 1) {
		t.Error("the relaunched node's journal never received the re-derived open")
	}
}
