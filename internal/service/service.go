// Package service runs the engine as a resident daemon: one warm cluster,
// a stream of consensus instances admitted over an HTTP/JSON API, admission
// control bounding concurrent work, retention-based eviction of finished
// records, and a graceful drain protocol for shutdown.
//
// The layering mirrors a deployed consensus-as-a-service node: package
// multiplex owns protocol translation (Session/Ticket), package engine owns
// the resident cluster and instance lifecycle, and this package owns the
// tenant-facing concerns — admission, queuing, result retention, auth, and
// operational shutdown.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/multiplex"
	"chc/internal/runtime"
)

// Admission errors. The HTTP layer maps ErrOverloaded to 429 and
// ErrDraining to 503.
var (
	ErrOverloaded = errors.New("service: admission queue full")
	ErrDraining   = errors.New("service: draining, not accepting instances")
	ErrNotFound   = errors.New("service: no such instance")
	// ErrClosed fails records abandoned by Close before they could run.
	ErrClosed = errors.New("service: server closed")
	// ErrDeadline fails records whose instance outlived InstanceDeadline;
	// the engine aborts the instance so it stops consuming cluster capacity.
	ErrDeadline = errors.New("service: instance deadline exceeded")
)

// Config describes a service instance.
type Config struct {
	// N is the cluster's process count.
	N int

	// Transport selects the executor (zero value: in-process channels; a
	// daemon deployment uses engine.TransportTCP).
	Transport engine.Transport

	// Crashes schedules crash-stop faults against the cluster's processes.
	Crashes []dist.CrashPlan

	// Env is the cluster environment, forwarded whole to the resident
	// session.
	runtime.Env

	// WALRetire is the WAL retention horizon: after every WALRetire retired
	// instances the engine checkpoints and compacts each node's journal, so
	// a long-lived daemon's logs track recent history instead of its whole
	// lifetime (requires WALDir; 0 disables).
	WALRetire int

	// InstanceDeadline bounds each instance's running time. An instance
	// still undecided after the deadline is aborted and fails with
	// ErrDeadline (outcome "deadline"), so a stalled instance — a crashed
	// quorum, a partition that never heals — cannot pin a running slot
	// forever. Zero disables.
	InstanceDeadline time.Duration

	// MaxActive bounds concurrently running instances (default 64).
	MaxActive int
	// MaxQueue bounds instances waiting for a running slot; submissions
	// beyond MaxActive+MaxQueue are rejected with ErrOverloaded
	// (default 256).
	MaxQueue int

	// DrainTimeout bounds Drain when the caller passes zero (default 30s).
	DrainTimeout time.Duration

	// Retention is how long a finished instance's record (result included)
	// stays queryable before eviction frees it (default 10 minutes).
	// Negative retention disables eviction.
	Retention time.Duration
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.MaxActive == 0 {
		c.MaxActive = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Retention == 0 {
		c.Retention = 10 * time.Minute
	}
	return c
}

// InstanceState is the service-level lifecycle of one submission.
type InstanceState int

// Lifecycle states: Queued → Running → Decided/Failed → Evicted.
const (
	StateQueued InstanceState = iota
	StateRunning
	StateDecided
	StateFailed
	StateEvicted
)

// String names the state.
func (s InstanceState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDecided:
		return "decided"
	case StateFailed:
		return "failed"
	case StateEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// record tracks one submission through the service lifecycle.
type record struct {
	id    int
	state InstanceState
	inst  multiplex.Instance

	res multiplex.InstanceResult
	err error

	submitted time.Time
	finished  time.Time

	// done closes when the instance reaches a terminal state; watch
	// long-polls block on it.
	done chan struct{}
}

// Server is the resident consensus service.
type Server struct {
	cfg     Config
	session *multiplex.Session

	mu       sync.Mutex
	records  []*record
	queue    []*record
	active   int
	draining bool
	closed   bool

	// settled signals the drain loop whenever active+queued shrinks.
	settled chan struct{}

	// watchers covers the per-ticket goroutines; Close waits for them so
	// every record is terminal by the time it returns.
	watchers sync.WaitGroup

	evictStop chan struct{}
	evictDone chan struct{}
}

// New starts the service's resident cluster.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	session, err := multiplex.OpenSession(multiplex.SessionConfig{
		N:                cfg.N,
		Transport:        cfg.Transport,
		Crashes:          cfg.Crashes,
		Env:              cfg.Env,
		RetireCheckpoint: cfg.WALRetire,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		session:   session,
		settled:   make(chan struct{}, 1),
		evictStop: make(chan struct{}),
		evictDone: make(chan struct{}),
	}
	go s.evictLoop()
	return s, nil
}

// N returns the cluster's process count.
func (s *Server) N() int { return s.cfg.N }

// Session exposes the underlying resident session.
func (s *Server) Session() *multiplex.Session { return s.session }

// Submit admits one instance: it starts immediately when a running slot is
// free, queues when the cluster is saturated, and is rejected with
// ErrOverloaded when the queue is full too (ErrDraining once Drain began).
func (s *Server) Submit(inst multiplex.Instance) (int, InstanceState, error) {
	// Validate before taking a queue slot, so a malformed instance can
	// never occupy admission capacity or surface its error asynchronously.
	if err := multiplex.ValidateInstance(s.cfg.N, inst); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		mRejects.Inc()
		return 0, 0, ErrDraining
	}
	rec := &record{
		id:        len(s.records),
		inst:      inst,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	// rec.state is racy the instant the lock drops (the watcher goroutine
	// may finish a fast instance immediately), so report the admission
	// state captured under the lock.
	var admitted InstanceState
	switch {
	case s.active < s.cfg.MaxActive:
		admitted = StateRunning
		rec.state = admitted
		s.active++
		s.records = append(s.records, rec)
		mActive.Set(float64(s.active))
		s.mu.Unlock()
		s.start(rec)
	case len(s.queue) < s.cfg.MaxQueue:
		admitted = StateQueued
		rec.state = admitted
		s.records = append(s.records, rec)
		s.queue = append(s.queue, rec)
		mQueued.Set(float64(len(s.queue)))
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		mRejects.Inc()
		return 0, 0, ErrOverloaded
	}
	mSubmitted.Inc()
	return rec.id, admitted, nil
}

// start submits rec's instance to the session and watches its ticket. The
// record already holds a running slot.
func (s *Server) start(rec *record) {
	ticket, err := s.session.Submit(rec.inst)
	if err != nil {
		s.finish(rec, multiplex.InstanceResult{}, err)
		return
	}
	s.watchers.Add(1)
	go func() {
		defer s.watchers.Done()
		if d := s.cfg.InstanceDeadline; d > 0 {
			deadline := time.NewTimer(d)
			select {
			case <-ticket.Done():
				deadline.Stop()
			case <-deadline.C:
				// Abort completes the ticket (OnFailed), so the wait below
				// is bounded; wrapping ErrDeadline marks the outcome.
				_ = s.session.Engine().Abort(ticket.ID, fmt.Errorf("%w (%v)", ErrDeadline, d))
				<-ticket.Done()
			}
		} else {
			<-ticket.Done()
		}
		res, terr := ticket.Result()
		s.finish(rec, res, terr)
	}()
}

// finish moves rec to its terminal state, frees its running slot, and
// dispatches the next queued instance.
func (s *Server) finish(rec *record, res multiplex.InstanceResult, err error) {
	s.mu.Lock()
	rec.res = res
	rec.err = err
	rec.finished = time.Now()
	switch {
	case errors.Is(err, ErrDeadline):
		rec.state = StateFailed
		mDecided.With("deadline").Inc()
	case err != nil:
		rec.state = StateFailed
		mDecided.With("failed").Inc()
	default:
		rec.state = StateDecided
		mDecided.With("decided").Inc()
	}
	s.active--
	var next *record
	if len(s.queue) > 0 && !s.closed {
		next = s.queue[0]
		s.queue = s.queue[1:]
		next.state = StateRunning
		s.active++
		mQueued.Set(float64(len(s.queue)))
	}
	mActive.Set(float64(s.active))
	s.mu.Unlock()

	close(rec.done)
	select {
	case s.settled <- struct{}{}:
	default:
	}
	if next != nil {
		s.start(next)
	}
}

// Status describes one submission.
type Status struct {
	ID        int
	State     InstanceState
	Protocol  multiplex.ProtocolKind
	Submitted time.Time
	Finished  time.Time
	Err       error
	// Result is populated for StateDecided records that have not been
	// evicted yet.
	Result multiplex.InstanceResult
}

// Status returns the current status of instance id.
func (s *Server) Status(id int) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.records) {
		return Status{}, ErrNotFound
	}
	rec := s.records[id]
	return Status{
		ID:        rec.id,
		State:     rec.state,
		Protocol:  rec.inst.Protocol,
		Submitted: rec.submitted,
		Finished:  rec.finished,
		Err:       rec.err,
		Result:    rec.res,
	}, nil
}

// Watch blocks until instance id reaches a terminal state or the timeout
// elapses, then returns its status (with terminal reporting which happened).
func (s *Server) Watch(id int, timeout time.Duration) (Status, bool, error) {
	return s.WatchContext(context.Background(), id, timeout)
}

// WatchContext is Watch with cancellation: it additionally returns early
// (non-terminal) when ctx is done, so a severed HTTP client frees its
// long-poll goroutine instead of pinning it for the full timeout.
func (s *Server) WatchContext(ctx context.Context, id int, timeout time.Duration) (st Status, terminal bool, err error) {
	s.mu.Lock()
	if id < 0 || id >= len(s.records) {
		s.mu.Unlock()
		return Status{}, false, ErrNotFound
	}
	done := s.records[id].done
	s.mu.Unlock()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case <-done:
		terminal = true
	case <-deadline.C:
	case <-ctx.Done():
	}
	st, err = s.Status(id)
	return st, terminal, err
}

// Counts reports the admission funnel: total submissions, queued, running,
// and finished instances.
func (s *Server) Counts() (total, queued, active, finished int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	total = len(s.records)
	queued = len(s.queue)
	active = s.active
	for _, rec := range s.records {
		switch rec.state {
		case StateDecided, StateFailed, StateEvicted:
			finished++
		}
	}
	return total, queued, active, finished
}

// Draining reports whether the service has stopped admitting instances.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// evictLoop frees finished records past their retention period. The record
// itself stays (state becomes Evicted, so its id still resolves); the
// result polytopes and inputs are released.
func (s *Server) evictLoop() {
	defer close(s.evictDone)
	if s.cfg.Retention < 0 {
		<-s.evictStop
		return
	}
	period := s.cfg.Retention / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.evictStop:
			return
		case now := <-ticker.C:
			s.evictBefore(now.Add(-s.cfg.Retention))
		}
	}
}

// evictBefore evicts finished records whose completion predates cutoff.
func (s *Server) evictBefore(cutoff time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range s.records {
		if rec.state != StateDecided && rec.state != StateFailed {
			continue
		}
		if rec.finished.After(cutoff) {
			continue
		}
		rec.state = StateEvicted
		rec.res = multiplex.InstanceResult{}
		rec.inst = multiplex.Instance{}
		mEvicted.Inc()
	}
}

// Drain gracefully shuts the admission path: new submissions are refused,
// queued and running instances finish, and the underlying cluster closes
// its instance stream. Zero timeout uses the configured DrainTimeout.
func (s *Server) Drain(timeout time.Duration) error {
	if timeout == 0 {
		timeout = s.cfg.DrainTimeout
	}
	started := time.Now()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		pending := s.active + len(s.queue)
		s.mu.Unlock()
		if pending == 0 {
			break
		}
		select {
		case <-s.settled:
		case <-deadline.C:
			return fmt.Errorf("%w: %d instances still pending after %v", engine.ErrDrainTimeout, pending, timeout)
		}
	}
	remaining := timeout - time.Since(started)
	if remaining < time.Second {
		remaining = time.Second
	}
	if err := s.session.Drain(remaining); err != nil {
		return err
	}
	mDrainSeconds.Observe(time.Since(started).Seconds())
	return nil
}

// Close tears the service down. Call Drain first for a graceful stop; Close
// alone abandons in-flight work, but never silently: queued records are
// failed with ErrClosed here, running ones are failed by the session close
// (the engine aborts every still-running instance, completing its ticket),
// and Close waits for the ticket watchers — when it returns, every record
// is terminal and no watcher goroutine remains.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	queued := s.queue
	s.queue = nil
	now := time.Now()
	for _, rec := range queued {
		rec.state = StateFailed
		rec.err = ErrClosed
		rec.finished = now
		mDecided.With("failed").Inc()
	}
	mQueued.Set(0)
	s.mu.Unlock()
	for _, rec := range queued {
		close(rec.done)
	}
	close(s.evictStop)
	<-s.evictDone
	err := s.session.Close()
	s.watchers.Wait()
	return err
}
