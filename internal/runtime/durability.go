package runtime

import (
	"errors"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/dist"
	"chc/internal/rlink"
	"chc/internal/telemetry"
	"chc/internal/wal"
)

// DurabilityPolicy decides what a node does when its write-ahead log stops
// accepting writes (disk error, full device, failed fsync).
type DurabilityPolicy int

const (
	// FailStop (the default) makes the node crash on the spot: a process
	// that cannot journal can no longer uphold the recovery contract, so it
	// becomes one of the f crash faults the protocol tolerates. With a
	// queued restart plan the supervisor may still relaunch it from the
	// durable prefix of its log.
	FailStop DurabilityPolicy = iota
	// Degrade quarantines the node into non-durable mode instead: it keeps
	// participating (deliveries are acked without journaling, buffered in
	// memory) while a background loop retries the disk with backoff. A
	// successful re-arm publishes the full history — including the
	// degraded-window deliveries — as a fresh snapshot, restoring
	// durability; a degraded node that crashes before then is a full crash
	// fault and must not be relaunched (the supervisor enforces this: its
	// journal is missing acked deliveries, so a relaunch is refused with a
	// recovery error rather than resuming divergent state).
	Degrade
)

// String names the policy for flags and run reports.
func (p DurabilityPolicy) String() string {
	if p == Degrade {
		return "degrade"
	}
	return "failstop"
}

// errFailStopped refuses deliveries to an incarnation that has already
// fail-stopped; the link withholds its ack, so the peer keeps the message
// for a potential relaunch.
var errFailStopped = errors.New("runtime: node fail-stopped on durability failure")

// errBoxClosed ends a barrier that raced the node's teardown: nothing more
// will be committed, and nothing more may leave the node.
var errBoxClosed = errors.New("runtime: node is shutting down")

// durableBox owns the durability path of one incarnation: the WAL, the
// mailbox, and the degradation state machine.
//
// The contract is output commit. A delivery is appended to the journal and
// pushed to the mailbox under one mutex — journal order must equal mailbox
// (processing) order, or a relaunched incarnation could attach different
// payloads to already-transmitted (link, seq) pairs: equivocation across the
// restart boundary — but it is not fsynced there. The fsync happens in
// commit, at most one at a time per node, and nothing leaves the node before
// a commit covers what it rests on: a link ack, the deliveries below the
// receive cursor it claims (released here through the endpoint's durable
// watermark); a send or a resident decision, the deliveries its process has
// consumed (consumedBarrier); an admitted instance id or a batch decision,
// the record appended for it (barrier). A delivery the process has not
// consumed yet is not waited for: a crash that loses it looks, from outside,
// like the message arriving late, and the peer still holds its frame. A
// crash therefore loses only a journal tail that nothing outside the node
// has observed — never acked, never acted on externally.
type durableBox struct {
	c                  *Cluster
	i                  int
	crashed            *atomic.Bool // the incarnation's crash flag (shared with runProc)
	policy             DurabilityPolicy
	rearmMin, rearmMax time.Duration
	ackDelay           time.Duration // how long a delivery may wait for a send's commit to cover it

	// ep is the reliable-link endpoint whose acks this box releases; nil
	// while a relaunch is still journaling the cut-off self-sends.
	ep atomic.Pointer[rlink.Endpoint]

	mu       sync.Mutex
	w        *wal.WAL
	mbox     *mailbox
	degraded bool
	rearming bool
	pending  [][]byte // record bodies accrued while degraded, journal order
	closed   bool
	closedCh chan struct{}
	// appended numbers the records accepted into the journal (or, degraded,
	// into pending): the k-th record is number k. Written under mu, read by
	// barriers without it. A delivery's number travels with its message into
	// the mailbox, whose Pop publishes the number of the last one consumed.
	appended atomic.Uint64

	// One commit (fsync) is in flight per node: committing, under commitMu,
	// marks it, and commitDone wakes the callers waiting behind it — each
	// re-checks whether that commit already covered its target before running
	// one of its own. committed is the highest record number covered so far.
	commitMu   sync.Mutex
	commitDone *sync.Cond
	committing bool
	committed  atomic.Uint64
	cursors    []uint64 // receive-cursor scratch of the commit in flight

	// wake tells the committer that uncommitted deliveries exist (capacity 1:
	// a pending signal already covers every later delivery).
	wake chan struct{}
}

func newDurableBox(c *Cluster, i int, w *wal.WAL, mbox *mailbox, crashed *atomic.Bool) *durableBox {
	b := &durableBox{
		c: c, i: i, w: w, mbox: mbox, crashed: crashed,
		policy:   c.cfg.Durability,
		rearmMin: time.Millisecond, rearmMax: 250 * time.Millisecond,
		ackDelay: c.linkConfig().AckHoldDelay(),
		closedCh: make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	b.commitDone = sync.NewCond(&b.commitMu)
	if rc := c.cfg.Recovery; rc.rearmMin > 0 {
		b.rearmMin, b.rearmMax = rc.rearmMin, rc.rearmMax
	}
	c.bg.Add(1)
	go b.commitLoop()
	return b
}

// reserveSyncProcs keeps the journals of an n-node cluster from starving the
// scheduler on a host with fewer CPUs than nodes. A commit's fsync is a
// blocking call of well under a millisecond, and the Go runtime keeps the P of
// a thread in such a call until its monitor thread takes it away — which it
// stops doing once it has backed off to its 10 ms poll, and then every fsync
// holds its P for its whole length. With GOMAXPROCS 2 and six journals the
// monitor's state set the durable service's decide latency: 95 or 150 ms for
// the same work, flipping between runs (DESIGN.md, "One P per journal").
// Commits never overlap per node, so n Ps is the most the journals hold at a
// time; GOMAXPROCS is raised to that and never lowered — it is process-wide.
func reserveSyncProcs(n int) {
	syncProcsMu.Lock()
	defer syncProcsMu.Unlock()
	if goruntime.GOMAXPROCS(0) < n {
		goruntime.GOMAXPROCS(n)
	}
}

var syncProcsMu sync.Mutex // orders concurrent cluster constructors

// attach hands the box the endpoint whose acks it releases, switching the
// endpoint to held acks. Call before the endpoint can receive frames.
func (b *durableBox) attach(ep *rlink.Endpoint) {
	ep.HoldAcks()
	b.ep.Store(ep)
}

// deliver is the rlink delivery callback (and the path of self-sends and
// lifecycle controls): append to the journal, push to the mailbox, return —
// no fsync. On an append failure it applies the policy; only fail-stop
// reports the error upstream (so the link never advances past the message).
func (b *durableBox) deliver(m dist.Message) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed.Load() {
		// The incarnation already fail-stopped (or was killed); its teardown
		// is asynchronous, so deliveries can still race in. Refuse them
		// without re-counting faults: FailStops counts nodes, not attempts.
		return errFailStopped
	}
	if !b.degraded {
		err := b.w.AppendDelivered(m)
		if err == nil {
			b.accept(m)
			return nil
		}
		// The buffered append itself failed (a flush of the full buffer hit
		// the disk, or a failed rotation wedged the log).
		b.noteFault(err)
		if b.policy != Degrade {
			b.failStop()
			return err
		}
		b.enterDegraded()
	}
	// Degraded: accepted non-durably. The body is buffered for the next
	// re-arm attempt and the message made visible to the process.
	if body, err := wal.EncodeDelivered(m); err == nil {
		b.pending = append(b.pending, body)
	}
	b.accept(m)
	return nil
}

// accept numbers m's record and queues m under that number (under b.mu, so
// numbers reach the mailbox in journal order). The record number travels
// with the message: the process's Pop publishes it as consumed, and the
// exit the process reaches next waits for a commit that covers it.
func (b *durableBox) accept(m dist.Message) {
	b.mbox.pushRecord(m, b.noteAppended())
}

// journalDecided journals a decision through the box so a degraded node's
// decision lands in the pending buffer (and so in the re-arm snapshot). The
// record is covered by the decide barrier that follows. An append failure is
// tolerated: the decision is already reproducible from the journaled
// deliveries.
func (b *durableBox) journalDecided(round int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.degraded {
		b.pending = append(b.pending, wal.EncodeDecided(round))
	} else if b.w.AppendDecided(round) != nil {
		return
	}
	b.noteAppended()
}

// noteAppended numbers one accepted record (under b.mu), makes sure the
// committer will cover it if no exit does first, and returns its number.
func (b *durableBox) noteAppended() uint64 {
	rec := b.appended.Add(1)
	b.wakeCommitter()
	return rec
}

// barrier gates an exit that rests on a record its caller has just appended
// itself — the open control of an admitted instance id, a batch decision's
// decided record — and which the process may not have consumed yet: it
// blocks until a commit covers every record accepted so far. A non-nil
// error means the incarnation fail-stopped (or is shutting down) and the
// output must not happen.
func (b *durableBox) barrier(wait *telemetry.Histogram) error {
	return b.barrierAt(b.appended.Load(), wait)
}

// consumedBarrier gates a send or a resident decision: it blocks until a
// commit covers every delivery the process has consumed, and fails like
// barrier. Records the link journals meanwhile — while the process is in the
// middle of a broadcast — are not waited for, since nothing the process
// emits can rest on them, so one fsync covers a whole broadcast.
func (b *durableBox) consumedBarrier(wait *telemetry.Histogram) error {
	return b.barrierAt(b.mbox.consumed.Load(), wait)
}

// barrierAt blocks until a commit covers record number target.
func (b *durableBox) barrierAt(target uint64, wait *telemetry.Histogram) error {
	if b.committed.Load() >= target {
		return nil
	}
	var start time.Time
	if telemetry.Enabled() {
		start = time.Now()
	}
	err := b.commit(target)
	if !start.IsZero() {
		wait.ObserveDuration(time.Since(start))
	}
	return err
}

// commitPass is the target no commit ever covers: commit(commitPass) waits
// out the commit in flight and then always runs one of its own.
const commitPass = ^uint64(0)

// commit returns once a commit covers target: the one in flight if it
// does, otherwise one it runs itself. Commits never overlap.
func (b *durableBox) commit(target uint64) error {
	b.commitMu.Lock()
	for b.committing && b.committed.Load() < target {
		b.commitDone.Wait()
	}
	if b.committed.Load() >= target {
		b.commitMu.Unlock()
		return nil
	}
	b.committing = true
	b.commitMu.Unlock()
	err := b.commitOnce()
	b.commitMu.Lock()
	b.committing = false
	b.commitMu.Unlock()
	b.commitDone.Broadcast()
	return err
}

// commitOnce makes every record accepted so far durable with one fsync and
// only then releases what it covers: the committed count barriers wait on,
// and the link acks, from receive cursors captured before the fsync started
// (a delivery accepted while the fsync runs is not claimed by it). Failure
// policy, per commit: fail-stop kills the node — the unsynced tail was never
// acked or acted on externally and peers still hold its frames, so nothing
// is rejected retroactively; degrade moves the whole uncommitted tail into
// pending and releases it non-durably. wal.ErrCheckpoint means the fsync
// itself succeeded: the tail is already durable and nothing moves. With
// nothing left to fsync (wal.Sync is then a no-op) the pass still releases
// acks: those of deliveries an earlier commit made durable without claiming
// them, accepted between its cursor capture and its fsync.
func (b *durableBox) commitOnce() error {
	ep := b.ep.Load()
	if ep != nil {
		b.cursors = ep.RecvCursors(b.cursors)
	}
	// all is read after the cursors: a delivery below them was accepted
	// before they were captured, so it is within all.
	b.mu.Lock()
	stopped, closed, degraded, all := b.crashed.Load(), b.closed, b.degraded, b.appended.Load()
	b.mu.Unlock()
	switch {
	case stopped:
		return errFailStopped
	case closed:
		return errBoxClosed
	}
	// A degraded node has nothing to fsync — pending owns its tail.
	if !degraded {
		if err := b.w.Sync(); err != nil && !b.syncFailed(err) {
			return err
		}
	}
	covered := b.committed.Swap(all)
	if all > covered && telemetry.TraceOn() {
		telemetry.Emit("runtime.durability", map[string]any{
			"proc": b.i, "action": "commit", "records": all - covered,
		})
	}
	if ep != nil && ep.AdvanceDurable(b.cursors) {
		b.wakeCommitter()
	}
	return nil
}

// syncFailed applies the durability policy to a failed commit fsync and
// reports whether the commit may still release what it covers (degrade:
// yes, non-durably; fail-stop: no, the node dies).
func (b *durableBox) syncFailed(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || errors.Is(err, wal.ErrClosed) {
		return false // shutdown closed the log under the commit
	}
	if b.crashed.Load() {
		// A failed append fail-stopped the node while this fsync ran; like
		// deliver, do not count that node again.
		return false
	}
	b.noteFault(err)
	if b.policy != Degrade {
		b.failStop()
		return false
	}
	if !b.degraded {
		b.enterDegraded()
	}
	return true
}

// wakeCommitter tells the committer there is something to release: a fresh
// record, or a delivery whose ack is still held after an advance.
func (b *durableBox) wakeCommitter() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// commitLoop is the node's committer: it releases the acks of deliveries no
// send is waiting on. After a wake-up it lets ackDelay pass — in a busy
// round a send's own commit covers the deliveries first, and the committer
// finds nothing left to fsync — then runs one commit pass.
func (b *durableBox) commitLoop() {
	defer b.c.bg.Done()
	timer := time.NewTimer(time.Hour)
	timer.Stop() // armed per pass below; Reset wants a stopped, drained timer
	defer timer.Stop()
	for {
		select {
		case <-b.wake:
		case <-b.closedCh:
			return
		}
		var start time.Time
		if telemetry.Enabled() {
			start = time.Now()
		}
		timer.Reset(b.ackDelay)
		select {
		case <-timer.C:
		case <-b.closedCh:
			return
		}
		if b.commit(commitPass) == nil && !start.IsZero() {
			waitAck.ObserveDuration(time.Since(start))
		}
	}
}

// noteFault counts one WAL write/fsync failure (under b.mu).
func (b *durableBox) noteFault(err error) {
	b.c.durability.faults.Add(1)
	mDurabilityFaults.Inc()
	if telemetry.TraceOn() {
		telemetry.Emit("runtime.durability", map[string]any{
			"proc": b.i, "action": "fault", "err": err.Error(),
		})
	}
}

// failStop crashes the incarnation (under b.mu). The teardown must be
// asynchronous: deliver runs inside the reliable link's receive path, and
// killNode closes the endpoint, which waits for that very machinery.
func (b *durableBox) failStop() {
	b.crashed.Store(true)
	b.c.durability.failStops.Add(1)
	mFailStops.Inc()
	if telemetry.TraceOn() {
		telemetry.Emit("runtime.durability", map[string]any{"proc": b.i, "action": "failstop"})
	}
	go b.c.killNode(b.i)
}

// enterDegraded quarantines the node into non-durable mode (under b.mu) and
// starts the re-arm loop. The whole uncommitted tail — every record appended
// since the last successful fsync, already pushed to the mailbox — leaves the
// log's mirror and becomes the head of pending, in journal order; the next
// re-arm re-persists it. After a post-fsync checkpoint failure that tail is
// empty (the records are in the durable history), so nothing is owned twice.
func (b *durableBox) enterDegraded() {
	b.degraded = true
	b.pending = append(b.pending, b.w.TakeUnsynced()...)
	b.c.durability.degraded.Add(1)
	mDegradations.Inc()
	if telemetry.TraceOn() {
		telemetry.Emit("runtime.durability", map[string]any{"proc": b.i, "action": "degrade"})
	}
	if !b.rearming {
		b.rearming = true
		b.c.bg.Add(1)
		go b.rearmLoop()
	}
}

// rearmLoop retries the disk with exponential backoff until durability is
// restored or the box is closed. Holding b.mu across the Rearm call is
// deliberate: deliveries arriving during the attempt wait, so a successful
// re-arm covers every message the process has consumed.
func (b *durableBox) rearmLoop() {
	defer b.c.bg.Done()
	backoff := b.rearmMin
	for {
		select {
		case <-time.After(backoff):
		case <-b.closedCh:
			return
		}
		b.mu.Lock()
		if b.closed {
			b.mu.Unlock()
			return
		}
		ok := b.rearmOnceLocked()
		b.mu.Unlock()
		if ok {
			return
		}
		backoff *= 2
		if backoff > b.rearmMax {
			backoff = b.rearmMax
		}
	}
}

// rearmOnceLocked attempts one durability restoration (under b.mu) and
// reports success.
func (b *durableBox) rearmOnceLocked() bool {
	if b.w.Rearm(b.pending) != nil {
		return false
	}
	b.pending = nil
	b.degraded = false
	b.rearming = false
	b.c.durability.rearms.Add(1)
	mRearms.Inc()
	if telemetry.TraceOn() {
		telemetry.Emit("runtime.durability", map[string]any{"proc": b.i, "action": "rearm"})
	}
	return true
}

// isDegraded reports whether the node is currently in non-durable mode.
func (b *durableBox) isDegraded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.degraded
}

// close stops the committer and the re-arm loop, after one last synchronous restoration
// attempt: if the disk has healed by shutdown, the degraded-window history
// is persisted rather than abandoned (so post-run replay sees it). A disk
// that is still failing fails the attempt immediately and the node's
// durability ends where the failure left it. It reports whether the box
// ended degraded — i.e. the journal is missing deliveries the node already
// acked, so the supervisor must never relaunch from it. Idempotent; called
// from killNode and Run shutdown.
func (b *durableBox) close() (endedDegraded bool) {
	b.mu.Lock()
	if !b.closed {
		if b.degraded {
			b.rearmOnceLocked()
		}
		b.closed = true
		close(b.closedCh)
	}
	endedDegraded = b.degraded
	b.mu.Unlock()
	return endedDegraded
}

// durabilityCounters aggregates storage-failure handling across a cluster's
// incarnations (atomics: bumped from link callbacks and re-arm loops).
type durabilityCounters struct {
	faults    atomic.Int64 // WAL write/fsync failures observed
	failStops atomic.Int64 // nodes fail-stopped
	degraded  atomic.Int64 // nodes that entered degraded mode
	rearms    atomic.Int64 // successful durability restorations
}
