package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"chc/internal/dist"
	"chc/internal/runtime"
)

// ErrEngineClosed is returned by Open once the resident engine has begun
// draining or shutting down.
var ErrEngineClosed = errors.New("engine: resident engine is closed to new instances")

// ErrDrainTimeout is returned by Drain when instances are still running at
// the deadline.
var ErrDrainTimeout = errors.New("engine: drain timed out")

// ResidentOptions configures a resident engine: Options minus the
// simulator-only fields, since a resident engine is a live cluster.
type ResidentOptions struct {
	// Transport selects the executor: TransportChannel or TransportTCP.
	// The simulator cannot host a resident cluster (it has no notion of
	// time passing without work), so TransportSim is rejected.
	Transport Transport

	// Crashes schedules crash-stop faults against the resident cluster:
	// each process stops sending after its budget, without the relaunch a
	// RestartPlan would provide. Service tests use this to create instances
	// that can never decide.
	Crashes []dist.CrashPlan

	// Env is the cluster environment. With WALDir, instance lifecycle (opens
	// and closes) is journaled in-band, so a relaunched node recovers not
	// just its protocol state but which instances it was hosting; with WAN,
	// each instance's open-to-decide latency is attributed to the deciding
	// process's region (chc_wan_region_decide_seconds).
	runtime.Env

	// RetireEvery is the WAL retention horizon: after every RetireEvery
	// retired instances, the engine checkpoints and compacts every node's
	// journal, so a long-lived service replays (and stores) recent history
	// instead of its whole lifetime. Requires WALDir; 0 disables.
	RetireEvery int
}

// InstanceState is the lifecycle state of one resident instance.
type InstanceState int

// Lifecycle states. Running instances become Decided when every process
// reported a decision, or Failed when construction failed or the engine
// aborted them; both transitions retire the instance's participants.
const (
	InstanceRunning InstanceState = iota
	InstanceDecided
	InstanceFailed
)

// String names the state.
func (s InstanceState) String() string {
	switch s {
	case InstanceRunning:
		return "running"
	case InstanceDecided:
		return "decided"
	case InstanceFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// InstanceSink receives the lifecycle callbacks of one instance. Callbacks
// fire from engine goroutines and must not block for long; they must not
// call back into the Resident engine.
type InstanceSink struct {
	// OnProcDecided fires once per process, as soon as that process's
	// participant terminates, with the participant itself — the callback
	// extracts the typed decision. It runs on the goroutine that drives the
	// participant, so reading the participant's state is race-free.
	OnProcDecided func(id dist.ProcID, sub dist.Process)
	// OnDecided fires once, when every process has reported. It may fire
	// concurrently with the final OnProcDecided's caller returning; result
	// collectors should count OnProcDecided calls rather than rely on
	// ordering between the two callbacks.
	OnDecided func()
	// OnFailed fires once if the instance fails (participant construction
	// error or engine-side abort). Mutually exclusive with OnDecided.
	OnFailed func(err error)
}

// residentInstance is one registry row. The spec (construction closure,
// which embeds the inputs) is retained for the engine's lifetime — WAL
// replay of a relaunched node may need to rebuild any instance the node
// ever hosted — but everything heavyweight (participant state machines,
// the per-process decided set, the sink) is released at retirement.
type residentInstance struct {
	spec    InstanceSpec
	sink    InstanceSink
	state   InstanceState
	retired bool
	err     error

	opened       time.Time // admission time, for decide-latency attribution
	decided      map[dist.ProcID]bool
	decidedCount int
}

// Resident is a long-lived multi-tenant engine: one warm cluster over which
// consensus instances are opened, decided, and retired dynamically. It is
// the service-shaped counterpart of Run — instead of a fixed Spec executed
// to completion, instances are admitted against a running mesh and their
// decisions are delivered through per-instance callbacks.
//
// Lifecycle changes are propagated as in-band self-addressed control
// messages (dist.KindOpenInstance / dist.KindCloseInstance) through each
// node's journaling path, so on a WAL-enabled cluster the dynamic lifecycle
// is crash-recoverable: a relaunched node replays its opens, deliveries and
// closes in their original order and regenerates exactly the original
// sends, which the resumed reliable links require.
type Resident struct {
	n         int
	transport Transport
	cluster   *runtime.Cluster

	mu          sync.Mutex
	instances   []*residentInstance
	running     int
	closed      bool
	stopped     bool
	retireEvery int // checkpoint WALs after this many retirements (0 = off)
	retirements int // retirements since the last checkpoint
	// changed is closed and replaced on every instance state transition;
	// Drain waits on it.
	changed chan struct{}
}

// StartResident builds an n-process cluster of lifecycle nodes and starts
// it resident. The returned engine accepts Open until Drain/Close.
func StartResident(n int, opts ResidentOptions) (*Resident, error) {
	if n <= 0 {
		return nil, fmt.Errorf("engine: N = %d", n)
	}
	if opts.Transport == TransportSim {
		return nil, errors.New("engine: a resident engine needs a networked transport (the simulator cannot host a live cluster)")
	}
	if err := opts.Env.Validate(opts.Transport); err != nil {
		return nil, err
	}
	if opts.RetireEvery > 0 && opts.WALDir == "" {
		return nil, errors.New("engine: the WAL retention horizon (RetireEvery) requires WALDir")
	}
	r := &Resident{n: n, transport: opts.Transport, changed: make(chan struct{}), retireEvery: opts.RetireEvery}
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newResidentNode(r, dist.ProcID(i))
	}
	cluster, err := newCluster(opts.Transport, procs, runtime.Config{Env: opts.Env, Crashes: opts.Crashes, Recovery: runtime.RecoveryConfig{
		// A fresh lifecycle node over the same registry: replaying the
		// journaled controls and deliveries rebuilds every instance the
		// node hosted, in the original order.
		Factory: func(i int) dist.Process {
			return newResidentNode(r, dist.ProcID(i))
		},
		// The retention horizon compacts on demand, which needs the
		// in-memory state mirror even without a periodic policy.
		Mirror:     opts.RetireEvery > 0,
		OnRelaunch: r.reconcile,
		// The engine's own mutex gates the relaunch swap: Open and
		// retirement fan-outs hold it around their control enqueues, so a
		// relaunched incarnation becomes reachable and is reconciled in
		// one critical section — no enqueue can slip between the two.
		RelaunchGate: &r.mu,
	}})
	if err != nil {
		return nil, err
	}
	if err := cluster.Start(); err != nil {
		return nil, err
	}
	r.cluster = cluster
	mResidentEngines.Add(1)
	return r, nil
}

// N returns the process count of the resident cluster.
func (r *Resident) N() int { return r.n }

// Transport returns the executor the cluster runs on.
func (r *Resident) Transport() Transport { return r.transport }

// Open admits one instance: the spec is registered and every node is told —
// via its journaled control path — to build and initialise its participant.
// It returns the engine-assigned instance id. Decisions arrive through the
// sink. Opens are rejected after Drain or Close.
func (r *Resident) Open(spec InstanceSpec, sink InstanceSink) (int, error) {
	if spec.New == nil {
		return 0, errors.New("engine: instance has no constructor")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrEngineClosed
	}
	k := len(r.instances)
	r.instances = append(r.instances, &residentInstance{
		spec:    spec,
		sink:    sink,
		opened:  time.Now(),
		decided: make(map[dist.ProcID]bool, r.n),
	})
	r.running++
	// The registry append and the control fan-out share the critical
	// section: instance ids are dense and every node sees opens in id
	// order. A node that is down misses its control and gets it again from
	// reconcile when it relaunches.
	for i := 0; i < r.n; i++ {
		_ = r.cluster.EnqueueControl(dist.ProcID(i), controlMsg(dist.ProcID(i), dist.KindOpenInstance, k))
	}
	r.mu.Unlock()
	// The id is about to leave the engine (the service's 202): every live
	// node's journal covers the open first. Outside r.mu, and the n commits
	// run concurrently — one fsync of latency, not n under the lock.
	r.cluster.CommitControls()
	mResidentOpened.Inc()
	mResidentActive.Add(1)
	return k, nil
}

// controlMsg builds a self-addressed lifecycle control.
func controlMsg(id dist.ProcID, kind string, k int) dist.Message {
	return dist.Message{From: id, To: id, Kind: kind, Instance: k}
}

// State reports the lifecycle state of instance k and how many processes
// have decided it.
func (r *Resident) State(k int) (state InstanceState, decided int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k < 0 || k >= len(r.instances) {
		return 0, 0, fmt.Errorf("engine: unknown instance %d", k)
	}
	ins := r.instances[k]
	return ins.state, ins.decidedCount, nil
}

// Running returns the number of admitted-but-unfinished instances.
func (r *Resident) Running() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// Instances returns the total number of instances ever admitted.
func (r *Resident) Instances() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.instances)
}

// Stats reports the cluster's aggregate transport counters.
func (r *Resident) Stats() runtime.ClusterStats { return r.cluster.Stats() }

// LiveParticipants sums the participant state machines currently held
// across all nodes — the number retirement is meant to keep bounded: after
// every admitted instance has decided and its closes have been processed,
// it returns to zero no matter how many instances the engine has served.
func (r *Resident) LiveParticipants() int {
	total := 0
	for _, p := range r.cluster.Processes() {
		if nd, ok := p.(*residentNode); ok {
			total += nd.OpenCount()
		}
	}
	return total
}

// Abort fails a running instance: its participants are retired on every
// node and its sink's OnFailed fires. Used by the service layer to evict
// instances that can no longer decide (e.g. a dead node with no restart
// plan).
func (r *Resident) Abort(k int, reason error) error {
	if reason == nil {
		reason = errors.New("engine: instance aborted")
	}
	r.mu.Lock()
	if k < 0 || k >= len(r.instances) {
		r.mu.Unlock()
		return fmt.Errorf("engine: unknown instance %d", k)
	}
	ins := r.instances[k]
	if ins.state != InstanceRunning {
		r.mu.Unlock()
		return nil
	}
	cb := r.failLocked(k, ins, reason)
	r.mu.Unlock()
	if cb != nil {
		cb(reason)
	}
	return nil
}

// Drain closes admission and waits until no instance is running (each one
// decided or failed), or the timeout elapses.
func (r *Resident) Drain(timeout time.Duration) error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		r.mu.Lock()
		running := r.running
		ch := r.changed
		r.mu.Unlock()
		if running == 0 {
			return nil
		}
		select {
		case <-ch:
		case <-deadline.C:
			return fmt.Errorf("%w: %d instances still running", ErrDrainTimeout, running)
		}
	}
}

// Close shuts the engine down: admission closes immediately, any instance
// still running is failed — its OnFailed fires with ErrEngineClosed, so
// waiters holding tickets unblock instead of hanging on a torn-down cluster
// — and the cluster is shut down (call Drain first for a graceful stop).
// Idempotent.
func (r *Resident) Close() error {
	r.mu.Lock()
	r.closed = true
	first := !r.stopped
	r.stopped = true
	var cbs []func(error)
	closeErr := fmt.Errorf("%w: instance aborted by Close before deciding", ErrEngineClosed)
	if first {
		for k, ins := range r.instances {
			if ins.state == InstanceRunning {
				if cb := r.failLocked(k, ins, closeErr); cb != nil {
					cbs = append(cbs, cb)
				}
			}
		}
	}
	r.mu.Unlock()
	for _, cb := range cbs {
		cb(closeErr)
	}
	err := r.cluster.Shutdown()
	if first {
		mResidentEngines.Add(-1)
	}
	return err
}

// instanceSpec is the registry lookup nodes use when applying an open
// control (live or during WAL replay).
func (r *Resident) instanceSpec(k int) (InstanceSpec, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k < 0 || k >= len(r.instances) {
		return InstanceSpec{}, false
	}
	return r.instances[k].spec, true
}

// signal wakes Drain waiters. Callers hold r.mu.
func (r *Resident) signal() {
	close(r.changed)
	r.changed = make(chan struct{})
}

// retireLocked drops instance k's participants on every node by enqueuing
// journaled close controls, and releases the registry row's heavyweight
// state. The spec survives: a node relaunched later may replay the open. A
// close externalises nothing, so nobody waits for its fsync: a node that
// loses it in a crash gets it again from reconcile.
// Callers hold r.mu — the critical section serializes retirement against
// Open fan-outs and relaunch reconciliation, so a close can never overtake
// its open on any node's delivery path.
func (r *Resident) retireLocked(k int, ins *residentInstance) {
	if ins.retired {
		return
	}
	ins.retired = true
	ins.sink = InstanceSink{}
	ins.decided = nil
	for i := 0; i < r.n; i++ {
		_ = r.cluster.EnqueueControl(dist.ProcID(i), controlMsg(dist.ProcID(i), dist.KindCloseInstance, k))
	}
	mResidentRetired.Inc()
	mResidentActive.Add(-1)
	if r.retireEvery > 0 {
		if r.retirements++; r.retirements >= r.retireEvery {
			r.retirements = 0
			// Off the critical section: compaction fsyncs every node's log.
			go func() { _ = r.cluster.CheckpointWALs() }()
		}
	}
}

// failLocked moves a running instance to Failed and retires it, returning
// the OnFailed callback for the caller to fire after unlocking.
func (r *Resident) failLocked(k int, ins *residentInstance, err error) func(error) {
	cb := ins.sink.OnFailed
	ins.state = InstanceFailed
	ins.err = err
	r.running--
	r.retireLocked(k, ins)
	r.signal()
	return cb
}

// noteDecided records that process id's participant of instance k
// terminated. The nth process completes the instance: it becomes Decided
// and is retired everywhere. Called from the goroutine driving the
// participant (live delivery or WAL replay); replays of already-counted
// processes are deduplicated here.
func (r *Resident) noteDecided(k int, id dist.ProcID, sub dist.Process) {
	r.mu.Lock()
	if k < 0 || k >= len(r.instances) {
		r.mu.Unlock()
		return
	}
	ins := r.instances[k]
	if ins.state != InstanceRunning || ins.decided[id] {
		r.mu.Unlock()
		return
	}
	ins.decided[id] = true
	ins.decidedCount++
	opened := ins.opened
	procCb := ins.sink.OnProcDecided
	var decidedCb func()
	if ins.decidedCount == r.n {
		ins.state = InstanceDecided
		r.running--
		decidedCb = ins.sink.OnDecided
		r.retireLocked(k, ins)
		r.signal()
	}
	r.mu.Unlock()
	if m := r.cluster.WANModel(); m != nil && !opened.IsZero() {
		m.ObserveRegionDecide(int(id), time.Since(opened).Seconds())
	}
	if procCb != nil {
		procCb(id, sub)
	}
	if decidedCb != nil {
		decidedCb()
	}
}

// noteOpenFailure records that process id could not construct its
// participant of instance k. The whole instance fails: without all n
// participants it can never decide.
func (r *Resident) noteOpenFailure(k int, id dist.ProcID, err error) {
	r.mu.Lock()
	if k < 0 || k >= len(r.instances) {
		r.mu.Unlock()
		return
	}
	ins := r.instances[k]
	if ins.state != InstanceRunning {
		r.mu.Unlock()
		return
	}
	cb := r.failLocked(k, ins, err)
	r.mu.Unlock()
	if cb != nil {
		cb(err)
	}
}

// reconcile is the RecoveryConfig.OnRelaunch hook: controls enqueued while
// node id was down were rejected, so re-derive them from the relaunched
// node's journaled watermark. The runtime calls it with r.mu already held
// (RelaunchGate) and before the new incarnation's delivery loop starts, so
// it is atomic with the swap that made the node reachable: a concurrent
// Open either ran before the swap (rejected with ErrNodeDown, and the
// watermark gap below re-derives it) or is blocked on r.mu until the
// re-enqueued controls are already queued ahead of it. Every lifecycle
// change therefore lands on the new incarnation exactly once, in id order.
func (r *Resident) reconcile(id dist.ProcID) {
	procs := r.cluster.Processes()
	if int(id) >= len(procs) {
		return
	}
	nd, ok := procs[id].(*residentNode)
	if !ok {
		return
	}
	h := nd.Highest()
	for k := h + 1; k < len(r.instances); k++ {
		kind := dist.KindOpenInstance
		if r.instances[k].retired {
			// Never opened here and already retired everywhere else: a close
			// control alone advances the node's watermark past k, so stray
			// retransmitted frames for k are dropped instead of buffered.
			kind = dist.KindCloseInstance
		}
		_ = r.cluster.EnqueueControl(id, controlMsg(id, kind, k))
	}
	// Instances the journal reopened but the engine retired while the node
	// was down: close them again.
	for _, k := range nd.OpenInstances() {
		if k < len(r.instances) && r.instances[k].retired {
			_ = r.cluster.EnqueueControl(id, controlMsg(id, dist.KindCloseInstance, k))
		}
	}
}
