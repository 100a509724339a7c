package runtime

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/rlink"
	"chc/internal/telemetry"
	"chc/internal/wal"
)

// ErrRecovery marks a failed crash-recovery relaunch: a corrupt or
// unreadable WAL, a panic while replaying the journaled history through a
// fresh state machine, or replay nondeterminism. It is distinct from a plain
// crash so callers can tell "a node died and stayed dead by plan" from "the
// recovery machinery itself failed".
var ErrRecovery = errors.New("runtime: crash recovery failed")

// errRunStopped aborts a relaunch that lost the race with cluster shutdown;
// it is not reported as a recovery failure.
var errRunStopped = errors.New("runtime: run stopped before relaunch")

// RecoveryConfig is the caller's half of crash recovery: with Env.WALDir
// set, every process journals its protocol history to a write-ahead log, and
// the restart plans of Env.Restarts relaunch killed nodes from those logs.
// The journal settings themselves (WALDir, WALFS, Checkpoint, Durability) are
// the environment's.
type RecoveryConfig struct {
	// Factory builds a fresh, deterministic state machine for process i —
	// identical to the one the cluster was constructed with. Replay drives
	// the journaled delivery sequence through it to reconstruct pre-crash
	// state.
	Factory func(i int) dist.Process
	// Inputs, when non-nil, are journaled per process for audit; replay
	// itself relies on Factory embedding the input deterministically.
	Inputs []geom.Point
	// Mirror keeps each log's replayable state mirrored in memory even when
	// no automatic checkpoint policy runs, so on-demand compaction
	// (Cluster.CheckpointWALs — the resident engine's WAL retention horizon)
	// can snapshot at any moment. Implied by the Degrade policy.
	Mirror bool
	// OnRelaunch, when non-nil, is called after a killed node's replayed
	// incarnation has been swapped into the cluster but before its delivery
	// loop starts. The resident engine uses it to reconcile the node's
	// instance lifecycle: controls enqueued while the node was down were
	// rejected with ErrNodeDown, and this hook re-derives and re-enqueues
	// them from the node's journaled watermark. It runs with RelaunchGate
	// held (when one is configured), so the hook must not acquire that lock
	// itself.
	OnRelaunch func(id dist.ProcID)
	// RelaunchGate, when non-nil, is locked around the swap that makes a
	// relaunched incarnation reachable by EnqueueControl and the OnRelaunch
	// hook. A caller that serializes its own control enqueues on the same
	// lock therefore observes "node down, then reconciled" atomically:
	// there is no window in which a fresh control can land on the new
	// incarnation ahead of the controls OnRelaunch re-enqueues, which the
	// resident engine's id-ordered lifecycle watermark requires.
	RelaunchGate sync.Locker

	// rearmMin/rearmMax, set together and only by in-package tests, bound
	// the exponential backoff between degraded-mode re-arm attempts
	// (defaults 1ms/250ms).
	rearmMin, rearmMax time.Duration
}

// RestartPlan schedules a crash-and-recover fault: the node is killed after
// KillAfterSends successful sends (mid-broadcast if the budget lands there),
// stays down for Downtime — during which peers see dropped frames and
// retransmit — and is then relaunched from its write-ahead log.
type RestartPlan struct {
	Proc           dist.ProcID
	KillAfterSends int
	Downtime       time.Duration
}

// checkRecovery checks the recovery half of cfg against n processes, and
// arms each planned node's crash budget with the kill budget of its first
// restart plan.
func (cfg Config) checkRecovery(n int, budgets []int) error {
	if cfg.WALDir != "" {
		if cfg.Recovery.Factory == nil {
			return errors.New("runtime: recovery needs a process factory")
		}
		if cfg.Recovery.Inputs != nil && len(cfg.Recovery.Inputs) != n {
			return fmt.Errorf("runtime: %d recovery inputs for %d processes", len(cfg.Recovery.Inputs), n)
		}
	}
	armed := make(map[dist.ProcID]bool)
	for _, rp := range cfg.Restarts {
		if rp.Proc < 0 || int(rp.Proc) >= n {
			return fmt.Errorf("runtime: restart plan for unknown process %d", rp.Proc)
		}
		if rp.KillAfterSends < 0 {
			return fmt.Errorf("runtime: negative kill budget for process %d", rp.Proc)
		}
		if !armed[rp.Proc] {
			armed[rp.Proc] = true
			budgets[rp.Proc] = rp.KillAfterSends
		}
	}
	return nil
}

// WALPath is the write-ahead log location of one process under a recovery
// directory.
func WALPath(dir string, id dist.ProcID) string {
	return filepath.Join(dir, fmt.Sprintf("node-%03d.wal", id))
}

// runState is the bookkeeping of one Run call: settle slots, per-node
// restart queues, and the WaitGroup covering every incarnation and
// supervisor goroutine.
type runState struct {
	c          *Cluster
	n          int
	done       []atomic.Bool
	unsettled  atomic.Int64
	allSettled chan struct{}
	wg         sync.WaitGroup

	mu     sync.Mutex
	queues [][]RestartPlan
	recErr []error
}

// settleSlot consumes one settle slot; the last slot wakes the monitor.
func (rs *runState) settleSlot() {
	if rs.unsettled.Add(-1) == 0 {
		close(rs.allSettled)
	}
}

// recordRecoveryError stores a relaunch failure for Run to report.
func (rs *runState) recordRecoveryError(err error) {
	rs.mu.Lock()
	rs.recErr = append(rs.recErr, err)
	rs.mu.Unlock()
}

// recoveryErr returns the joined relaunch failures, wrapped in ErrRecovery.
func (rs *runState) recoveryErr() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.recErr) == 0 {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrRecovery, errors.Join(rs.recErr...))
}

// onSettled reacts to an incarnation of node i settling. A crash settle with
// a queued restart plan hands the node to the supervisor; a decide settle
// consumes the slots of restart plans that will now never fire (the node
// finished before its kill budget ran out).
func (rs *runState) onSettled(i int, byCrash bool) {
	rs.mu.Lock()
	if byCrash {
		if len(rs.queues[i]) > 0 {
			plan := rs.queues[i][0]
			rs.queues[i] = rs.queues[i][1:]
			rs.mu.Unlock()
			rs.wg.Add(1)
			go rs.supervise(i, plan)
			return
		}
		rs.mu.Unlock()
		return
	}
	unfired := len(rs.queues[i])
	rs.queues[i] = nil
	rs.mu.Unlock()
	for ; unfired > 0; unfired-- {
		rs.settleSlot()
	}
}

// launch starts the goroutine driving one incarnation of node n.
func (rs *runState) launch(n *node, inc *incarnation, alreadyInit bool) {
	rs.wg.Add(1)
	go rs.runProc(n, inc, alreadyInit)
}

// runProc drives one incarnation: Init (unless resumed), then the delivery
// loop, settling exactly once — on decide or on crash.
func (rs *runState) runProc(n *node, inc *incarnation, alreadyInit bool) {
	defer rs.wg.Done()
	i := int(n.id)
	proc, mbox, crashed, box := inc.proc, inc.mbox, &inc.crashed, inc.box
	settled := false
	settle := func(byCrash bool) {
		if settled {
			return
		}
		settled = true
		rs.settleSlot()
		rs.onSettled(i, byCrash)
	}
	ctx := &nodeContext{cluster: rs.c, node: n, inc: inc, n: rs.n}
	// A zero kill budget means "crash before doing anything" — enforced for
	// first launches and relaunches alike, so a RestartPlan with
	// KillAfterSends=0 fires the instant the node comes back up instead of
	// waiting for a send attempt that may never happen.
	if n.budget.Load() == 0 {
		crashed.Store(true)
		settle(true)
		return
	}
	if !alreadyInit {
		proc.Init(ctx)
	}
	decided := false
	decide := func() {
		if decided {
			return
		}
		decided = true
		if box != nil && !box.commitDecision(proc) {
			return // fail-stopped on the way out: the crash check below settles
		}
		rs.done[i].Store(true)
		settle(false)
	}
	if proc.Done() {
		decide()
	}
	if crashed.Load() {
		settle(true) // budget exhausted mid-Init-broadcast
	}
	for {
		msg, err := mbox.Pop()
		if err != nil {
			// The mailbox closed under us. If this incarnation crashed (a
			// durability fail-stop closes the mailbox from the link callback)
			// its settle slot must still be consumed; a plain shutdown close
			// settles nothing.
			if crashed.Load() {
				settle(true)
			}
			return
		}
		if crashed.Load() {
			continue
		}
		proc.Deliver(ctx, msg)
		if proc.Done() {
			decide()
		}
		if crashed.Load() {
			settle(true) // budget exhausted during this delivery's sends
		}
	}
}

// decidedRounder is optionally implemented by state machines that expose the
// round at which they terminated (core.Process reports t_end).
type decidedRounder interface{ DecidedRound() int }

// commitDecision makes a decision durable before the run acts on it
// (recovery mode only): the decided record closes the journal's account of
// the node, so replay and offline audits can tell "decided" from "still
// running" without re-executing the state machine, and the barrier covers it
// together with every delivery the decision rests on. It reports false when
// the barrier failed — the incarnation fail-stopped and has not decided as
// far as anyone outside the node can tell.
func (b *durableBox) commitDecision(proc dist.Process) bool {
	round := 0
	if dr, ok := proc.(decidedRounder); ok {
		round = dr.DecidedRound()
	}
	b.journalDecided(round)
	return b.barrier(waitDecide) == nil
}

// supervise handles one crash-restart cycle of node i: tear the dead
// incarnation down, wait out the downtime, then relaunch from the WAL.
func (rs *runState) supervise(i int, plan RestartPlan) {
	defer rs.wg.Done()
	rs.c.killNode(i)
	if plan.Downtime > 0 {
		time.Sleep(plan.Downtime)
	}
	// The recovery clock starts after the planned downtime: it measures the
	// relaunch work (replay + resumption), not the configured sleep. The
	// disabled path never reads the clock.
	var start time.Time
	if telemetry.Enabled() || telemetry.TraceOn() {
		start = time.Now()
	}
	if err := rs.c.relaunch(rs, i); err != nil {
		if !errors.Is(err, errRunStopped) {
			mRecoveryFailures.Inc()
			rs.recordRecoveryError(fmt.Errorf("node %d: %w", i, err))
		}
		// The relaunched incarnation will never settle its slot; do it here
		// so Run can return.
		rs.settleSlot()
		return
	}
	mRestarts.Inc()
	if !start.IsZero() {
		d := time.Since(start)
		mRecoverySeconds.ObserveDuration(d)
		if telemetry.TraceOn() {
			telemetry.Emit("runtime.recovery", map[string]any{
				"proc": i, "dur_ns": d.Nanoseconds(), "downtime_ns": plan.Downtime.Nanoseconds(),
			})
		}
	}
}

// killNode makes a crashed node actually dead: its incarnation is marked
// down (so frames addressed to it are dropped and no acks are emitted), its
// mailbox is closed (terminating the incarnation goroutine), and its WAL is
// abandoned — closed without flushing, so the journal tail no commit covered
// is lost the way a real crash loses it. The incarnation stays on the node's
// dying list, summed by Stats, until its final counters are folded into the
// node's dead counters. The chaos injector is shared by all incarnations and
// stays armed.
func (c *Cluster) killNode(i int) {
	n := c.nodes[i]
	c.stateMu.Lock()
	inc := n.live()
	if inc == nil {
		c.stateMu.Unlock()
		return // already dead: the kill that got here first finishes the job
	}
	inc.down = true
	n.dying = append(n.dying, inc)
	c.stateMu.Unlock()

	if inc.ep != nil {
		_ = inc.ep.Close()
	}
	if inc.box != nil && inc.box.close() {
		// The box died degraded: the last-chance re-arm failed, so the WAL is
		// missing deliveries this incarnation already acked (peers may have
		// trimmed them). Mark the node so relaunch refuses to resume from the
		// incomplete journal.
		c.stateMu.Lock()
		n.diedDeg = true
		c.stateMu.Unlock()
	}
	inc.mbox.Close()
	if inc.wal != nil {
		inc.wal.Abandon()
	}
	c.stateMu.Lock()
	if inc.ep != nil {
		n.deadLink.Add(inc.ep.Stats())
	}
	if inc.wal != nil {
		n.deadLog.Add(inc.wal.Stats())
	}
	n.dying = slices.DeleteFunc(n.dying, func(d *incarnation) bool { return d == inc })
	c.stateMu.Unlock()
	if n.tcp != nil {
		// Sever the dead node's live connections: peers must observe the
		// outage and bridge it with redials and retransmission.
		n.tcp.breakLinks()
	}
}

// captureContext records the sends a state machine performs while its
// journaled history is replayed. Nothing reaches the network: peer-bound
// messages become the regenerated retransmission queues, and self-bound
// messages are matched against the journal to find the ones still pending.
type captureContext struct {
	id    dist.ProcID
	n     int
	sends [][]dist.Message
	self  []dist.Message
}

var (
	_ dist.Context         = (*captureContext)(nil)
	_ dist.InstanceSender  = (*captureContext)(nil)
	_ dist.OutputCommitter = (*captureContext)(nil)
)

func (cc *captureContext) ID() dist.ProcID { return cc.id }
func (cc *captureContext) N() int          { return cc.n }

func (cc *captureContext) Send(to dist.ProcID, kind string, round int, payload any) {
	cc.SendInstance(0, to, kind, round, payload)
}

// SendInstance preserves the engine's instance index on regenerated sends:
// a multiplexing node replayed from its WAL rebuilds retransmission queues
// whose messages must route to the same instance they originally belonged
// to.
func (cc *captureContext) SendInstance(instance int, to dist.ProcID, kind string, round int, payload any) {
	if to < 0 || int(to) >= cc.n {
		return
	}
	msg := dist.Message{From: cc.id, To: to, Kind: kind, Round: round, Instance: instance, Payload: payload}
	if to == cc.id {
		cc.self = append(cc.self, msg)
		return
	}
	cc.sends[to] = append(cc.sends[to], msg)
}

// CommitOutput has nothing to wait for: a replay's deliveries come from the
// journal, so whatever rests on them is already covered.
func (cc *captureContext) CommitOutput() error { return nil }

func (cc *captureContext) Broadcast(kind string, round int, payload any) {
	for to := dist.ProcID(0); int(to) < cc.n; to++ {
		if to == cc.id {
			continue
		}
		cc.Send(to, kind, round, payload)
	}
}

// replayNode reconstructs node i's state machine from its WAL: a fresh
// factory-built process re-consumes the journaled delivery sequence under a
// capture context. Panics inside Init/Deliver (e.g. a history corrupted
// into an impossible state) are converted to errors.
func (c *Cluster) replayNode(i int) (proc dist.Process, cc *captureContext, rep *wal.Replayed, err error) {
	defer func() {
		if p := recover(); p != nil {
			proc, cc, rep = nil, nil, nil
			err = fmt.Errorf("panic during replay: %v", p)
		}
	}()
	rep, err = wal.ReplayWith(c.cfg.WALFS, WALPath(c.cfg.WALDir, dist.ProcID(i)))
	if err != nil {
		return nil, nil, nil, err
	}
	proc = c.cfg.Recovery.Factory(i)
	cc = &captureContext{id: dist.ProcID(i), n: len(c.nodes), sends: make([][]dist.Message, len(c.nodes))}
	proc.Init(cc)
	for _, m := range rep.Delivered {
		proc.Deliver(cc, m)
	}
	// Deciding is monotone in the delivered prefix, so a journaled decision
	// the replayed machine fails to re-reach means the factory diverged.
	if rep.Decided && !proc.Done() {
		return nil, nil, nil, fmt.Errorf("nondeterministic replay: journal has a decision record but the replayed process did not decide")
	}
	return proc, cc, rep, nil
}

// relaunch builds node i's next incarnation from its WAL and swaps it into
// the cluster: replayed process, new epoch in the log, resumed reliable-link
// endpoint, fresh mailbox, and the pending self-sends the crash cut off.
func (c *Cluster) relaunch(rs *runState, i int) error {
	n := c.nodes[i]
	c.stateMu.RLock()
	diedDegraded := n.diedDeg
	c.stateMu.RUnlock()
	if diedDegraded {
		// The Degrade policy's contract: a node that dies while degraded is a
		// full crash fault. Its journal is missing deliveries it acked
		// non-durably (peers may already have trimmed them), so replaying it
		// would silently lose them — refuse instead of resuming.
		return errors.New("node died degraded (non-durable deliveries not re-armed); refusing relaunch from an incomplete journal")
	}
	proc, cc, rep, err := c.replayNode(i)
	if err != nil {
		return err
	}
	id := n.id
	// Self-sends are journaled when pushed, in generation order, so the
	// journaled ones are a prefix of the regenerated ones; anything beyond
	// the prefix was generated but never pushed durably and must be pushed
	// now. A longer journal than the regeneration means Factory is not
	// deterministic — fail loudly rather than resume divergent state.
	// Journaled lifecycle controls are also self-addressed but are injected
	// by the engine, not generated by the state machine, so replay does not
	// regenerate them — they are excluded from the comparison.
	var loggedSelf uint64
	for _, m := range rep.Delivered {
		if m.From == id && !dist.IsControl(m.Kind) {
			loggedSelf++
		}
	}
	if int(loggedSelf) > len(cc.self) {
		return fmt.Errorf("nondeterministic replay: journal has %d self-deliveries, replay regenerated %d",
			loggedSelf, len(cc.self))
	}
	recvNext := make([]uint64, len(c.nodes))
	for j := range recvNext {
		recvNext[j] = rep.DeliveredFrom(dist.ProcID(j))
	}

	w, err := wal.OpenWith(WALPath(c.cfg.WALDir, id), c.walOptions())
	if err != nil {
		return err
	}
	if err := w.AppendEpoch(); err != nil {
		_ = w.Close()
		return err
	}
	inc, err := c.newIncarnation(n, proc, w, cc.self[loggedSelf:],
		&rlink.ResumeState{Epoch: rep.Epoch + 1, RecvNext: recvNext, Out: cc.sends})
	if err != nil {
		return err
	}

	// The gate covers publishing the new incarnation through the
	// reconciliation hook: controls enqueued by other gate holders either
	// ran before the swap (rejected with ErrNodeDown, so the hook sees them
	// as missed and re-enqueues them) or run after the hook (landing behind
	// the re-enqueued ones). Without it, a control enqueued between the swap
	// and the hook would reach the new incarnation ahead of earlier missed
	// controls and the node's id-ordered watermark would drop those as
	// duplicates.
	gate := c.cfg.Recovery.RelaunchGate
	if gate != nil {
		gate.Lock()
	}
	c.stateMu.Lock()
	if c.stopping {
		c.stateMu.Unlock()
		if gate != nil {
			gate.Unlock()
		}
		inc.close()
		return errRunStopped
	}
	n.inc = inc
	c.stateMu.Unlock()
	if n.tcp != nil {
		n.tcp.ep.Store(inc.ep)
	}
	if c.cfg.Recovery.OnRelaunch != nil {
		// Before the delivery loop starts: the hook's control enqueues are
		// journaled and queued on the fresh mailbox, so the incarnation
		// processes them ahead of any live traffic. Frames for instances the
		// node has not (re-)opened yet buffer inside the resident node until
		// the re-enqueued opens are applied.
		c.cfg.Recovery.OnRelaunch(id)
	}
	if gate != nil {
		// Released before Announce: handshake frames can block on TCP dials
		// and must not stall the callers serialized on the gate.
		gate.Unlock()
	}

	// Arm the next restart plan's kill budget, or lift the limit.
	next := int64(-1)
	rs.mu.Lock()
	if len(rs.queues[i]) > 0 {
		next = int64(rs.queues[i][0].KillAfterSends)
	}
	rs.mu.Unlock()
	n.budget.Store(next)

	// Tell every peer the new epoch and watermarks so they trim and rewind;
	// then resume the protocol.
	inc.ep.Announce()
	rs.launch(n, inc, true)
	return nil
}
