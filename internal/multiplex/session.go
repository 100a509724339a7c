package multiplex

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"chc/internal/byzantine"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
	"chc/internal/vectorconsensus"
)

// SessionConfig describes a resident session: one warm cluster over which
// instances are submitted and decided one ticket at a time, instead of as a
// single batch-end aggregate.
type SessionConfig struct {
	N int

	// Transport selects the executor. A session is a live cluster, so the
	// simulator cannot host one; the zero value means TransportChannel.
	Transport engine.Transport

	// Crashes schedules crash-stop faults against the session's cluster:
	// the process stops mid-protocol and never returns, so instances that
	// depend on it can only finish via an abort or deadline.
	Crashes []dist.CrashPlan

	// Env is the cluster environment. With WALDir the dynamic instance
	// lifecycle is journaled in-band, so restarted nodes recover mid-stream;
	// with WAN, decide latencies are attributed to the deciding process's
	// region.
	runtime.Env

	// RetireCheckpoint is the WAL retention horizon: checkpoint + compact
	// every journal after this many retired instances, bounding replay work
	// and on-disk history for a long-lived session (requires WALDir; 0 off).
	RetireCheckpoint int
}

// InstanceResult carries the typed decisions of one session instance, in
// the same shape as the corresponding BatchResult slices: polytopes for CC
// and Byzantine instances, points for vector instances, entries only for
// processes that decided (Byzantine adversaries report nothing).
type InstanceResult struct {
	Outputs map[dist.ProcID]*polytope.Polytope
	Points  map[dist.ProcID]geom.Point
	Rounds  map[dist.ProcID]int
}

func newInstanceResult() InstanceResult {
	return InstanceResult{
		Outputs: make(map[dist.ProcID]*polytope.Polytope),
		Points:  make(map[dist.ProcID]geom.Point),
		Rounds:  make(map[dist.ProcID]int),
	}
}

// collect records the typed decision process id's participant reached, and
// the round it decided at. A participant that has not decided, or of any
// other type (a Byzantine adversary), leaves nothing.
func (r *InstanceResult) collect(id dist.ProcID, sub dist.Process) {
	switch v := sub.(type) {
	case *core.Process:
		if out, err := v.Output(); err == nil {
			r.Outputs[id] = out
		}
	case *vectorconsensus.Process:
		if pt, err := v.Output(); err == nil {
			r.Points[id] = pt
		}
	case *byzantine.Process:
		if out, err := v.Output(); err == nil {
			r.Outputs[id] = out
		}
	default:
		return
	}
	if dr, ok := sub.(interface{ DecidedRound() int }); ok {
		if round := dr.DecidedRound(); round > 0 {
			r.Rounds[id] = round
		}
	}
}

// Ticket tracks one submitted instance. Done is closed when every process
// has terminated the instance (or it failed); Result is valid after that.
type Ticket struct {
	// ID is the engine-assigned instance id (dense, submission order).
	ID int

	n    int
	byz  map[dist.ProcID]bool
	done chan struct{}

	mu        sync.Mutex
	res       InstanceResult
	count     int
	completed bool
	err       error
}

// Done returns a channel closed when the instance has decided or failed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Err returns the instance failure, nil while running or after deciding.
func (t *Ticket) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Result returns the decisions collected so far; after Done it is the
// complete result. The returned maps are snapshots.
func (t *Ticket) Result() (InstanceResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := InstanceResult{
		Outputs: make(map[dist.ProcID]*polytope.Polytope, len(t.res.Outputs)),
		Points:  make(map[dist.ProcID]geom.Point, len(t.res.Points)),
		Rounds:  make(map[dist.ProcID]int, len(t.res.Rounds)),
	}
	for id, p := range t.res.Outputs {
		out.Outputs[id] = p
	}
	for id, p := range t.res.Points {
		out.Points[id] = p
	}
	for id, r := range t.res.Rounds {
		out.Rounds[id] = r
	}
	return out, t.err
}

// Wait blocks until the instance completes (or the timeout elapses) and
// returns the result.
func (t *Ticket) Wait(timeout time.Duration) (InstanceResult, error) {
	select {
	case <-t.done:
		return t.Result()
	case <-time.After(timeout):
		return InstanceResult{}, fmt.Errorf("multiplex: instance %d did not complete within %v", t.ID, timeout)
	}
}

// procDecided is the engine sink: it runs on the goroutine driving the
// participant, extracts the typed decision, and completes the ticket when
// the nth process reports. Counting here (rather than relying on the
// engine's OnDecided ordering) guarantees every output is recorded before
// Done closes.
func (t *Ticket) procDecided(id dist.ProcID, sub dist.Process) {
	t.mu.Lock()
	if t.completed {
		t.mu.Unlock()
		return
	}
	if !t.byz[id] {
		t.res.collect(id, sub)
	}
	t.count++
	fire := t.count == t.n
	if fire {
		t.completed = true
	}
	t.mu.Unlock()
	if fire {
		close(t.done)
	}
}

// fail completes the ticket with an error.
func (t *Ticket) fail(err error) {
	t.mu.Lock()
	if t.completed {
		t.mu.Unlock()
		return
	}
	t.completed = true
	t.err = err
	t.mu.Unlock()
	close(t.done)
}

// Session is a resident multi-tenant executor: one warm cluster accepting a
// stream of heterogeneous instances. It is the long-lived counterpart of
// RunBatch — same protocols, same fault stack, but instances are admitted
// against a running mesh and each completes independently.
type Session struct {
	n   int
	eng *engine.Resident
}

// OpenSession starts the resident cluster.
func OpenSession(cfg SessionConfig) (*Session, error) {
	if cfg.N <= 0 {
		return nil, errors.New("multiplex: need positive N")
	}
	tr := cfg.Transport
	if tr == engine.TransportSim {
		tr = engine.TransportChannel
	}
	eng, err := engine.StartResident(cfg.N, engine.ResidentOptions{
		Transport:   tr,
		Crashes:     cfg.Crashes,
		Env:         cfg.Env,
		RetireEvery: cfg.RetireCheckpoint,
	})
	if err != nil {
		return nil, err
	}
	return &Session{n: cfg.N, eng: eng}, nil
}

// N returns the session's process count.
func (s *Session) N() int { return s.n }

// Engine exposes the underlying resident engine (state inspection, abort).
func (s *Session) Engine() *engine.Resident { return s.eng }

// Submit validates and admits one instance and returns its ticket.
func (s *Session) Submit(inst Instance) (*Ticket, error) {
	spec, err := specForInstance(s.n, inst)
	if err != nil {
		return nil, fmt.Errorf("multiplex: instance %w", err)
	}
	byz := make(map[dist.ProcID]bool, len(inst.Faults))
	for _, f := range inst.Faults {
		byz[f.Proc] = true
	}
	t := &Ticket{
		n:    s.n,
		byz:  byz,
		done: make(chan struct{}),
		res:  newInstanceResult(),
	}
	id, err := s.eng.Open(spec, engine.InstanceSink{
		OnProcDecided: t.procDecided,
		OnFailed:      t.fail,
	})
	if err != nil {
		return nil, err
	}
	t.ID = id
	return t, nil
}

// Running returns the number of admitted-but-unfinished instances.
func (s *Session) Running() int { return s.eng.Running() }

// Drain closes admission and waits for in-flight instances.
func (s *Session) Drain(timeout time.Duration) error { return s.eng.Drain(timeout) }

// Close shuts the session's cluster down (Drain first for a graceful stop).
func (s *Session) Close() error { return s.eng.Close() }

// Stats reports the cluster's aggregate transport counters.
func (s *Session) Stats() runtime.ClusterStats { return s.eng.Stats() }
