// Resident-engine tests: instances opened, decided and retired against a
// live cluster, including crash-recovery of a node mid-stream with the
// dynamic lifecycle journaled in its WAL.
package engine_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
)

// ccSpec builds an Algorithm CC instance spec for n processes with
// deterministic inputs derived from seed.
func ccSpec(t *testing.T, n int, seed int64) (engine.InstanceSpec, []geom.Point) {
	t.Helper()
	// n >= (d+2)f + 1 (equation 2): d=2 needs n >= 5, smaller clusters run d=1.
	d := 2
	if n < 5 {
		d = 1
	}
	params := core.Params{N: n, F: 1, D: d, Epsilon: 0.05, InputLower: 0, InputUpper: 12}.WithDefaults()
	if err := params.Validate(); err != nil {
		t.Fatalf("params: %v", err)
	}
	inputs := gridInputs(n, d, seed)
	cfg := core.RunConfig{Params: params, Inputs: inputs}
	return cfg.Spec(), inputs
}

// watcher collects one instance's sink callbacks.
type watcher struct {
	mu      sync.Mutex
	decided map[dist.ProcID]*polytope.Polytope
	done    chan struct{}
	err     error
	n       int
	count   int
}

func newWatcher(n int) *watcher {
	return &watcher{decided: make(map[dist.ProcID]*polytope.Polytope), done: make(chan struct{}), n: n}
}

func (w *watcher) sink() engine.InstanceSink {
	return engine.InstanceSink{
		OnProcDecided: func(id dist.ProcID, sub dist.Process) {
			w.mu.Lock()
			defer func() {
				fire := w.count == w.n
				w.mu.Unlock()
				if fire {
					close(w.done)
				}
			}()
			w.count++
			if p, ok := sub.(*core.Process); ok {
				if out, err := p.Output(); err == nil {
					w.decided[id] = out
				}
			}
		},
		OnFailed: func(err error) {
			w.mu.Lock()
			w.err = err
			w.mu.Unlock()
			close(w.done)
		},
	}
}

func (w *watcher) wait(t *testing.T, timeout time.Duration) {
	t.Helper()
	select {
	case <-w.done:
	case <-time.After(timeout):
		t.Fatalf("instance did not complete within %v", timeout)
	}
}

func TestResidentOpenDecideRetire(t *testing.T) {
	const n = 5
	r, err := engine.StartResident(n, engine.ResidentOptions{Transport: engine.TransportChannel})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()

	const instances = 8
	watchers := make([]*watcher, instances)
	allInputs := make([][]geom.Point, instances)
	for k := 0; k < instances; k++ {
		spec, inputs := ccSpec(t, n, int64(k+1))
		allInputs[k] = inputs
		w := newWatcher(n)
		watchers[k] = w
		id, err := r.Open(spec, w.sink())
		if err != nil {
			t.Fatalf("Open %d: %v", k, err)
		}
		if id != k {
			t.Fatalf("instance id = %d, want %d", id, k)
		}
	}
	for k, w := range watchers {
		w.wait(t, 60*time.Second)
		w.mu.Lock()
		if w.err != nil {
			t.Fatalf("instance %d failed: %v", k, w.err)
		}
		if len(w.decided) != n {
			t.Fatalf("instance %d: %d decisions, want %d", k, len(w.decided), n)
		}
		// Validity: every decision is inside the hull of the inputs.
		hull, err := polytope.New(allInputs[k], 0)
		if err != nil {
			t.Fatalf("hull: %v", err)
		}
		for id, out := range w.decided {
			for _, v := range out.Vertices() {
				inside, cerr := hull.Contains(v, 1e-7)
				if cerr != nil {
					t.Fatalf("contains: %v", cerr)
				}
				if !inside {
					t.Fatalf("instance %d proc %d: decision vertex %v outside input hull", k, id, v)
				}
			}
		}
		w.mu.Unlock()
		state, decided, err := r.State(k)
		if err != nil || state != engine.InstanceDecided || decided != n {
			t.Fatalf("instance %d: state=%v decided=%d err=%v", k, state, decided, err)
		}
	}
	if err := r.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Retirement releases every participant; poll briefly — the close
	// controls are processed asynchronously after the final decision.
	deadline := time.Now().Add(10 * time.Second)
	for r.LiveParticipants() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveParticipants = %d after drain, want 0", r.LiveParticipants())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := r.Instances(); got != instances {
		t.Fatalf("Instances = %d, want %d", got, instances)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestResidentRejectsAfterDrain(t *testing.T) {
	r, err := engine.StartResident(4, engine.ResidentOptions{Transport: engine.TransportChannel})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()
	if err := r.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	spec, _ := ccSpec(t, 4, 1)
	if _, err := r.Open(spec, engine.InstanceSink{}); !errors.Is(err, engine.ErrEngineClosed) {
		t.Fatalf("Open after drain: err = %v, want ErrEngineClosed", err)
	}
}

func TestResidentOpenFailure(t *testing.T) {
	r, err := engine.StartResident(3, engine.ResidentOptions{Transport: engine.TransportChannel})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()
	w := newWatcher(3)
	boom := errors.New("boom")
	spec := engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) { return nil, boom }}
	if _, err := r.Open(spec, w.sink()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	w.wait(t, 30*time.Second)
	w.mu.Lock()
	werr := w.err
	w.mu.Unlock()
	if werr == nil || !errors.Is(werr, boom) {
		t.Fatalf("OnFailed err = %v, want wrapping boom", werr)
	}
	state, _, err := r.State(0)
	if err != nil || state != engine.InstanceFailed {
		t.Fatalf("state = %v, err = %v, want InstanceFailed", state, err)
	}
	if r.Running() != 0 {
		t.Fatalf("Running = %d, want 0", r.Running())
	}
}

func TestResidentAbort(t *testing.T) {
	r, err := engine.StartResident(4, engine.ResidentOptions{Transport: engine.TransportChannel})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()
	w := newWatcher(4)
	// A participant that never decides.
	spec := engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) {
		return stuckProc{}, nil
	}}
	if _, err := r.Open(spec, w.sink()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Abort(0, errors.New("evicted")); err != nil {
		t.Fatalf("Abort: %v", err)
	}
	w.wait(t, 30*time.Second)
	if err := r.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain after abort: %v", err)
	}
}

type stuckProc struct{}

func (stuckProc) Init(dist.Context)                  {}
func (stuckProc) Deliver(dist.Context, dist.Message) {}
func (stuckProc) Done() bool                         { return false }

// TestResidentCloseFailsRunning: Close without a prior Drain must not
// abandon running instances silently — their sinks fire OnFailed with
// ErrEngineClosed so ticket holders unblock.
func TestResidentCloseFailsRunning(t *testing.T) {
	r, err := engine.StartResident(4, engine.ResidentOptions{Transport: engine.TransportChannel})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	w := newWatcher(4)
	spec := engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) {
		return stuckProc{}, nil
	}}
	if _, err := r.Open(spec, w.sink()); err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w.wait(t, 30*time.Second)
	w.mu.Lock()
	werr := w.err
	w.mu.Unlock()
	if !errors.Is(werr, engine.ErrEngineClosed) {
		t.Fatalf("OnFailed err = %v, want ErrEngineClosed", werr)
	}
	state, _, err := r.State(0)
	if err != nil || state != engine.InstanceFailed {
		t.Fatalf("state = %v, err = %v, want InstanceFailed", state, err)
	}
	if r.Running() != 0 {
		t.Fatalf("Running = %d, want 0", r.Running())
	}
}

// TestResidentRestartFromWALMidStream is the headline recovery scenario: a
// TCP cluster with WAL journaling and seeded chaos serves a stream of
// instances while one node is killed mid-stream and relaunched from its
// journal — including instances opened while it was down. Every instance
// must still decide on all n processes.
func TestResidentRestartFromWALMidStream(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP + chaos + restart")
	}
	const n = 4
	dir := t.TempDir()
	prof := chaos.Profile{Drop: 0.05, Dup: 0.02, DelayMax: 2 * time.Millisecond}
	r, err := engine.StartResident(n, engine.ResidentOptions{
		Transport: engine.TransportTCP,
		Env: runtime.Env{
			WALDir:    dir,
			Chaos:     &prof,
			ChaosSeed: 7,
			Restarts: []runtime.RestartPlan{
				{Proc: 2, KillAfterSends: 120, Downtime: 30 * time.Millisecond},
			},
		},
	})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()

	const instances = 6
	watchers := make([]*watcher, instances)
	for k := 0; k < instances; k++ {
		spec, _ := ccSpec(t, n, int64(100+k))
		w := newWatcher(n)
		watchers[k] = w
		if _, err := r.Open(spec, w.sink()); err != nil {
			t.Fatalf("Open %d: %v", k, err)
		}
		// Stagger submissions so the kill lands mid-stream: some instances
		// are decided before the restart, some in flight, some after.
		time.Sleep(20 * time.Millisecond)
	}
	for k, w := range watchers {
		w.wait(t, 120*time.Second)
		w.mu.Lock()
		if w.err != nil {
			t.Fatalf("instance %d failed: %v", k, w.err)
		}
		if len(w.decided) != n {
			t.Fatalf("instance %d: %d decisions, want %d", k, len(w.decided), n)
		}
		// ε-agreement across processes.
		var ref *polytope.Polytope
		for _, out := range w.decided {
			if ref == nil {
				ref = out
				continue
			}
			d, err := polytope.Hausdorff(ref, out, 0)
			if err != nil {
				t.Fatalf("hausdorff: %v", err)
			}
			if d > 0.05+1e-9 {
				t.Fatalf("instance %d: agreement gap %g > epsilon", k, d)
			}
		}
		w.mu.Unlock()
	}
	if err := r.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st := r.Stats()
	if st.Net.Resumes == 0 {
		t.Fatalf("expected at least one link resume after the restart, got %+v", st.Net)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestResidentConcurrentOpensAcrossRestart hammers Open from several
// goroutines while a node is killed and relaunched from its WAL, so opens
// race the relaunch window itself. The relaunch gate makes the swap and the
// reconcile hook atomic with respect to the open fan-outs: without it, an
// open enqueued between the two could overtake a missed earlier open on the
// returning node, whose watermark would then drop the earlier open forever
// and leave that instance one participant short. Every instance must decide
// on all n processes.
func TestResidentConcurrentOpensAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP + restart")
	}
	const n = 4
	dir := t.TempDir()
	r, err := engine.StartResident(n, engine.ResidentOptions{
		Transport: engine.TransportTCP,
		Env: runtime.Env{
			WALDir: dir,
			Restarts: []runtime.RestartPlan{
				{Proc: 1, KillAfterSends: 60, Downtime: 40 * time.Millisecond},
			},
		},
	})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()

	const submitters = 3
	const perSubmitter = 6
	watchers := make([]*watcher, 0, submitters*perSubmitter)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				spec, _ := ccSpec(t, n, int64(g*100+k+1))
				w := newWatcher(n)
				mu.Lock()
				watchers = append(watchers, w)
				mu.Unlock()
				if _, err := r.Open(spec, w.sink()); err != nil {
					t.Errorf("Open %d/%d: %v", g, k, err)
					return
				}
				// Spread opens across the kill + downtime + relaunch window.
				time.Sleep(15 * time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for k, w := range watchers {
		w.wait(t, 120*time.Second)
		w.mu.Lock()
		if w.err != nil {
			t.Fatalf("instance %d failed: %v", k, w.err)
		}
		if len(w.decided) != n {
			t.Fatalf("instance %d: %d decisions, want %d", k, len(w.decided), n)
		}
		w.mu.Unlock()
	}
	if err := r.Drain(60 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestResidentManyInstancesBounded streams a large number of sequential
// instances through a small channel cluster and checks the participant
// count returns to zero — memory is bounded by retirement, not by the
// total number of instances ever served.
func TestResidentManyInstancesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("long stream")
	}
	const n = 4
	r, err := engine.StartResident(n, engine.ResidentOptions{Transport: engine.TransportChannel})
	if err != nil {
		t.Fatalf("StartResident: %v", err)
	}
	defer r.Close()
	const instances = 40
	for k := 0; k < instances; k++ {
		spec, _ := ccSpec(t, n, int64(k%5))
		w := newWatcher(n)
		if _, err := r.Open(spec, w.sink()); err != nil {
			t.Fatalf("Open %d: %v", k, err)
		}
		w.wait(t, 60*time.Second)
	}
	if err := r.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.LiveParticipants() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("LiveParticipants = %d after %d instances, want 0", r.LiveParticipants(), instances)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
