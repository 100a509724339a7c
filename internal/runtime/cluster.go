package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/netfault"
	"chc/internal/rlink"
	"chc/internal/wal"
	"chc/internal/wan"
	"chc/internal/wire"
)

// ErrTimeout is returned by Run when the protocol does not complete within
// the deadline.
var ErrTimeout = errors.New("runtime: protocol did not complete before the deadline")

// ErrStopped is returned by EnqueueControl once cluster shutdown has begun.
var ErrStopped = errors.New("runtime: cluster is shutting down")

// ErrNodeDown is returned by EnqueueControl while the target node is dead
// (killed by a restart plan and not yet relaunched). The control is not
// lost information: the caller's relaunch hook (RecoveryConfig.OnRelaunch)
// re-derives and re-enqueues whatever the node missed.
var ErrNodeDown = errors.New("runtime: node is down")

// node is one process slot of the cluster: what survives a crash of the
// process. Everything a crash takes with it is the node's incarnation.
type node struct {
	id     dist.ProcID
	budget atomic.Int64    // remaining sends before simulated crash; -1 = unlimited
	sender rlink.Sender    // frame sender under every incarnation's endpoint, incl. WAN shaping and chaos (nil: plain channel cluster)
	inj    *chaos.Injector // chaos injector (nil when disabled)
	shaper *wan.Shaper     // WAN frame shaper (channel clusters; nil when disabled)
	tcp    *tcpTransport   // TCP transport (nil for channel clusters)

	// The fields below are guarded by Cluster.stateMu.

	// inc is the node's latest incarnation. killNode marks it down and
	// relaunch replaces it; in between it stays here, so Processes still
	// reports a crashed node's state machine.
	inc *incarnation
	// dying holds killed incarnations whose teardown is still running: their
	// counters can still move, so Stats keeps summing them until killNode
	// folds the final values into dead under the same lock.
	dying    []*incarnation
	deadLink rlink.Stats // link counters of dead incarnations
	deadLog  wal.Stats   // journal counters of dead incarnations
	diedDeg  bool        // node died degraded: journal incomplete, relaunch forbidden
}

// live returns the node's incarnation if it is up (under stateMu).
func (n *node) live() *incarnation {
	if n.inc == nil || n.inc.down {
		return nil
	}
	return n.inc
}

// incarnation is one life of a node — what a crash takes with it. First
// launch and relaunch build one through newIncarnation; it is immutable once
// published except for down.
type incarnation struct {
	proc    dist.Process
	mbox    *mailbox
	crashed atomic.Bool // set when the send budget runs out or the journal fail-stops
	// send is the hop a protocol message takes off the node: the reliable-link
	// endpoint, or straight into the peer's mailbox on a plain channel cluster
	// (whose mailboxes already are reliable FIFO channels).
	send func(dist.Message) error
	ep   *rlink.Endpoint // reliable-link endpoint (nil on a plain channel cluster)
	wal  *wal.WAL        // write-ahead log (recovery mode only)
	box  *durableBox     // durability state machine and output-commit barrier (recovery mode only)

	down bool // killed and not yet replaced (under Cluster.stateMu)
}

// deliver hands a message to the incarnation's own mailbox — a self-send or
// a lifecycle control. In recovery mode it goes through the journal first:
// these are deliveries like any other and must be replayable.
func (inc *incarnation) deliver(msg dist.Message) error {
	if inc.box != nil {
		return inc.box.deliver(msg)
	}
	inc.mbox.Push(msg)
	return nil
}

// close releases an incarnation that never ran (a failed or abandoned
// construction). A running one is torn down by killNode or teardown.
func (inc *incarnation) close() {
	if inc.ep != nil {
		_ = inc.ep.Close()
	}
	if inc.box != nil {
		inc.box.close()
	}
	if inc.wal != nil {
		_ = inc.wal.Close()
	}
}

// Config is everything a cluster is built from.
type Config struct {
	// Env is the environment the cluster runs in; the constructors check it
	// with Env.Validate.
	Env
	// Crashes injects crash-stop faults: each process stops after its
	// AfterSends budget, mid-broadcast if the budget lands there. Checked
	// with dist.CrashBudgets, as on the simulator.
	Crashes []dist.CrashPlan
	// Recovery is the caller's half of crash recovery, read only when
	// Env.WALDir is set.
	Recovery RecoveryConfig

	// links, set only by in-package tests, forces the reliable-link layer
	// onto a channel cluster that would not otherwise run it, with this
	// link configuration.
	links *rlink.Config
}

// Cluster runs n protocol state machines concurrently, one goroutine per
// process, over an in-process or TCP transport. With chaos, WAN shaping or
// a WAL the message path is layered as
//
//	process -> rlink endpoint -> [chaos injector] -> frame transport
//
// and the receive path feeds frames back through the peer's endpoint, which
// restores the exactly-once FIFO contract the protocol is proven against.
//
// Processes step concurrently, so their geometry work (subset hulls,
// intersections, averaging) overlaps: the n processes are the parallelism,
// and each one's geometry runs sequentially on its own goroutine. Results
// are therefore bitwise-deterministic whatever GOMAXPROCS is, so WAL replay
// on a recovering host reproduces the exact payloads of the original run.
type Cluster struct {
	// stateMu guards what the restart supervisor changes while the cluster
	// runs — which incarnation each node points at and whether it is down, the
	// dying/dead counter bookkeeping, the died-degraded marks — plus the
	// stopping flag. Steady-state paths take the read lock; only
	// kill/relaunch/shutdown take the write lock.
	stateMu  sync.RWMutex
	stopping bool

	nodes []*node
	cfg   Config

	wanModel *wan.Model         // Env.WAN resolved against n (nil when disabled)
	wanInj   *wan.Injector      // shared conn shaper (TCP clusters; channel clusters shape per node)
	nfault   *netfault.Injector // shared byte-stream fault injector (TCP clusters)

	// residentMu guards the resident-mode lifecycle (Start/Shutdown).
	residentMu   sync.Mutex
	resident     *runState
	residentDone bool
	residentErr  error

	durability durabilityCounters
	bg         sync.WaitGroup // background re-arm loops

	sends atomic.Int64
	bytes atomic.Int64
}

// ClusterStats aggregates protocol-level message counts with the link-layer
// counters of the reliability and chaos machinery.
type ClusterStats struct {
	Sends int64 // protocol messages handed to the network
	Bytes int64 // payload bytes, as wire.MessageSize counts them
	Net   dist.NetStats
}

// NewChannelCluster builds a cluster connected by in-process mailboxes.
// Without chaos, WAN shaping or a WAL the mailboxes are already reliable FIFO
// channels and messages take the direct path; any of the three inserts the
// rlink stack between the processes and the mailboxes (chaos attacks frames,
// shaping delays them, and the journal's output commit holds the acks).
func NewChannelCluster(procs []dist.Process, cfg Config) (*Cluster, error) {
	c, err := newCluster(procs, cfg, TransportChannel)
	if err != nil {
		return nil, err
	}
	reliable := cfg.links != nil || cfg.hasChaos() || c.wanModel != nil || c.journaled()
	for i, proc := range procs {
		var s rlink.Sender
		if reliable {
			s = c.maybeInjectChaos(i, c.maybeInjectWAN(i, &chanFrameSender{cluster: c}))
		}
		if err := c.install(i, proc, s); err != nil {
			c.abort()
			return nil, err
		}
	}
	return c, nil
}

// newCluster checks cfg for transport t and n = len(procs) processes and
// builds the nodes, each armed with its crash budget.
func newCluster(procs []dist.Process, cfg Config, t Transport) (*Cluster, error) {
	if len(procs) == 0 {
		return nil, errors.New("runtime: no processes")
	}
	if err := cfg.Validate(t); err != nil {
		return nil, err
	}
	budgets, err := dist.CrashBudgets(len(procs), cfg.Crashes)
	if err != nil {
		return nil, err
	}
	if err := cfg.checkRecovery(len(procs), budgets); err != nil {
		return nil, err
	}
	c := &Cluster{nodes: make([]*node, len(procs)), cfg: cfg}
	for i := range c.nodes {
		c.nodes[i] = &node{id: dist.ProcID(i)}
		c.nodes[i].budget.Store(int64(budgets[i]))
	}
	if cfg.HasWAN() {
		m, err := wan.NewModel(*cfg.WAN, len(procs), cfg.WANSeed)
		if err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		c.wanModel = m
	}
	if c.journaled() {
		reserveSyncProcs(len(procs))
	}
	return c, nil
}

// journaled reports whether the nodes write ahead (Env.WALDir is set).
func (c *Cluster) journaled() bool { return c.cfg.WALDir != "" }

// linkConfig is the reliable-link configuration every endpoint runs with.
func (c *Cluster) linkConfig() rlink.Config {
	if c.cfg.links != nil {
		return *c.cfg.links
	}
	return rlink.Config{}
}

// maybeInjectWAN wraps a frame sender with the node's WAN shaper (channel
// clusters; TCP clusters shape at the conn layer instead). It sits below
// chaos in the chain, so only frames that survive fault injection are
// charged against the modeled link.
func (c *Cluster) maybeInjectWAN(i int, s rlink.Sender) rlink.Sender {
	if c.wanModel == nil {
		return s
	}
	c.nodes[i].shaper = wan.NewShaper(dist.ProcID(i), c.wanModel, s)
	return c.nodes[i].shaper
}

// WANModel exposes the resolved WAN model (nil without Env.WAN); the
// resident engine uses it for per-region decide-latency attribution.
func (c *Cluster) WANModel() *wan.Model { return c.wanModel }

// maybeInjectChaos wraps a frame sender with the configured chaos injector.
func (c *Cluster) maybeInjectChaos(i int, s rlink.Sender) rlink.Sender {
	if !c.cfg.hasChaos() {
		return s
	}
	c.nodes[i].inj = chaos.New(dist.ProcID(i), len(c.nodes), *c.cfg.Chaos, c.cfg.ChaosSeed, s)
	return c.nodes[i].inj
}

// install gives node i its first incarnation over frame sender s (nil on a
// plain channel cluster). In recovery mode it first creates the node's
// write-ahead log, which the incarnation threads its deliveries through.
func (c *Cluster) install(i int, proc dist.Process, s rlink.Sender) error {
	n := c.nodes[i]
	n.sender = s
	var w *wal.WAL
	if c.journaled() {
		var err error
		w, err = wal.CreateWith(WALPath(c.cfg.WALDir, n.id), c.walOptions())
		if err != nil {
			return fmt.Errorf("runtime: create WAL for node %d: %w", i, err)
		}
		if inputs := c.cfg.Recovery.Inputs; inputs != nil {
			if err := w.AppendInput(n.id, inputs[i]); err == nil {
				err = w.Sync()
			}
			if err != nil {
				_ = w.Close()
				return fmt.Errorf("runtime: journal input for node %d: %w", i, err)
			}
		}
	}
	inc, err := c.newIncarnation(n, proc, w, nil, nil)
	if err != nil {
		return err
	}
	n.inc = inc
	if n.tcp != nil {
		// Before any reader goroutine exists; see tcpTransport.ep.
		n.tcp.ep.Store(inc.ep)
	}
	return nil
}

// newIncarnation builds a life of node n around proc: a fresh mailbox and
// crash flag, in recovery mode the durable box over the (already opened) log
// w, and the reliable-link endpoint over the node's frame sender — new for a
// first launch; for a relaunch resumed from the replayed journal's link state,
// after the self-sends the crash cut off. The log is the incarnation's from
// here on: a failed construction closes it.
func (c *Cluster) newIncarnation(n *node, proc dist.Process, w *wal.WAL, pendingSelf []dist.Message, resume *rlink.ResumeState) (*incarnation, error) {
	inc := &incarnation{proc: proc, mbox: newMailbox(), wal: w}
	if n.sender == nil {
		inc.send = c.deliverLocal
		return inc, nil
	}
	deliver := c.deliverLocal
	if w != nil {
		inc.box = newDurableBox(c, int(n.id), w, inc.mbox, &inc.crashed)
		deliver = inc.box.deliver
	}
	if resume == nil {
		inc.ep = rlink.New(n.id, len(c.nodes), n.sender, deliver, c.linkConfig())
	} else {
		for _, m := range pendingSelf {
			// The cut-off self-sends are deliveries like any other: journaled and
			// queued now, covered by the incarnation's first commit. Under
			// fail-stop, a log that cannot take them fails the relaunch (resuming
			// would diverge from the durable history); under the degrade policy
			// the box quarantines instead and the relaunch proceeds non-durably.
			if err := deliver(m); err != nil {
				inc.close()
				return nil, fmt.Errorf("journal pending self-send: %w", err)
			}
		}
		var err error
		if inc.ep, err = rlink.NewResumed(n.id, len(c.nodes), n.sender, deliver, c.linkConfig(), *resume); err != nil {
			inc.close()
			return nil, err
		}
	}
	if inc.box != nil {
		inc.box.attach(inc.ep)
	}
	inc.send = inc.ep.Send
	return inc, nil
}

// abort releases whatever a failed constructor had built so far: it is
// teardown with no run to wait for.
func (c *Cluster) abort() { _ = c.teardown(&runState{}) }

// live snapshots every node's incarnation (nil for a node that is down), so
// callers act on them outside stateMu.
func (c *Cluster) live() []*incarnation {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	incs := make([]*incarnation, len(c.nodes))
	for i, n := range c.nodes {
		incs[i] = n.live()
	}
	return incs
}

// walOptions builds the log options from the environment: the (possibly
// fault-injecting) filesystem, the checkpoint policy, and mirror mode when
// the degrade policy may need to re-arm or the caller plans on-demand
// checkpoints (retention compaction needs the state mirror).
func (c *Cluster) walOptions() wal.Options {
	return wal.Options{
		FS:         c.cfg.WALFS,
		Checkpoint: c.cfg.Checkpoint,
		Mirror:     c.cfg.Durability == Degrade || c.cfg.Recovery.Mirror,
	}
}

// CheckpointWALs snapshots and compacts every live write-ahead log: each
// log's mirrored state becomes a fresh checkpoint segment and the replayed
// history behind it is dropped. The resident engine calls this on a WAL
// retention horizon (every N retired instances) so long-lived services do
// not accumulate unbounded journal; logs must run with RecoveryConfig.Mirror
// (or the Degrade policy, which mirrors anyway). Nodes that are down between
// kill and relaunch are skipped; the first real error is returned.
func (c *Cluster) CheckpointWALs() error {
	var first error
	for _, inc := range c.live() {
		if inc == nil || inc.wal == nil {
			continue
		}
		if err := inc.wal.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}

// routeFrame delivers a frame to the target node's reliable-link endpoint
// (the in-process analogue of the TCP receive path). A node that is down
// between kill and relaunch has no live incarnation, and its frames are
// dropped — exactly what a dead TCP listener would do.
func (c *Cluster) routeFrame(to dist.ProcID, f wire.Frame) error {
	if to < 0 || int(to) >= len(c.nodes) {
		return fmt.Errorf("runtime: frame to unknown node %d", to)
	}
	// Snapshot under the read lock but call outside it: OnFrame's ack reply
	// re-enters routeFrame, and a recursive RLock can deadlock against a
	// waiting writer (the restart supervisor). A just-killed endpoint is
	// safe to call — Close makes OnFrame a no-op.
	c.stateMu.RLock()
	inc := c.nodes[to].live()
	c.stateMu.RUnlock()
	if inc == nil || inc.ep == nil {
		return errors.New("runtime: target has no reliable-link endpoint")
	}
	inc.ep.OnFrame(f)
	return nil
}

// Stats reports aggregate protocol and link-layer counters after (or
// during) a run. The link and journal counters are summed over every
// incarnation exactly once — folded into its node's dead counters, or read
// here — and the partition is taken under the lock killNode folds under, so
// no counter ever reads lower than it did before.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{Sends: c.sends.Load(), Bytes: c.bytes.Load()}
	var link rlink.Stats
	var log wal.Stats
	var wals []*wal.WAL
	// Endpoint counters are atomics, read under the lock so the read is
	// ordered against the fold. A log's counters sit behind the mutex it holds
	// across an fsync, and waiting that out under stateMu would stall a
	// pending kill and every frame queued behind it — they are read outside:
	// a dying log's counters stop moving (Abandon) before they are folded, so
	// the late read is still exact.
	count := func(inc *incarnation) {
		if inc.ep != nil {
			link.Add(inc.ep.Stats())
		}
		if inc.wal != nil {
			wals = append(wals, inc.wal)
		}
	}
	c.stateMu.RLock()
	for _, n := range c.nodes {
		link.Add(n.deadLink)
		log.Add(n.deadLog)
		for _, inc := range n.dying {
			count(inc)
		}
		if inc := n.live(); inc != nil {
			count(inc)
		}
	}
	c.stateMu.RUnlock()
	for _, w := range wals {
		log.Add(w.Stats())
	}
	st.Net = dist.NetStats{
		FramesSent:     link.FramesSent,
		Retransmits:    link.Retransmits,
		DupSuppressed:  link.DupSuppressed,
		OutOfOrder:     link.OutOfOrder,
		AcksSent:       link.AcksSent,
		Resumes:        link.Resumes,
		WindowWithheld: link.WindowWithheld,
		ReorderDrops:   link.ReorderDrops,
		WALAppends:     log.Appends,
		WALSyncs:       log.Syncs,
		WALCheckpoints: log.Checkpoints,
	}
	for _, n := range c.nodes {
		if n.inj != nil {
			s := n.inj.Stats()
			st.Net.InjectedDrops += s.Drops
			st.Net.InjectedDups += s.Dups
			st.Net.InjectedDelays += s.Delays
			st.Net.PartitionDrops += s.PartitionDrops
		}
		if t := n.tcp; t != nil {
			st.Net.Reconnects += t.reconnects.Load()
			st.Net.LinkFaults += t.linkFaults.Load()
			st.Net.CorruptFrames += t.corruptFrames.Load()
			st.Net.PeerQuarantines += t.quarantines.Load()
			st.Net.PeerReadmits += t.readmits.Load()
		}
		if n.shaper != nil {
			st.Net.WANDelayedFrames += n.shaper.Delayed()
			st.Net.WANCutHeld += n.shaper.Held()
		}
	}
	if c.nfault != nil {
		st.Net.InjectedWire = int64(c.nfault.Stats().Total())
	}
	if c.wanInj != nil {
		st.Net.WANShapedWrites += c.wanInj.Delayed()
		st.Net.WANCutHeld += c.wanInj.Held()
	}
	st.Net.DurabilityFaults = c.durability.faults.Load()
	st.Net.FailStops = c.durability.failStops.Load()
	st.Net.Degradations = c.durability.degraded.Load()
	st.Net.Rearms = c.durability.rearms.Load()
	return st
}

// Degraded lists the nodes currently running in non-durable (degraded)
// mode: quarantined by the Degrade policy and not yet re-armed.
func (c *Cluster) Degraded() []dist.ProcID {
	var out []dist.ProcID
	for i, inc := range c.live() {
		if inc != nil && inc.box != nil && inc.box.isDegraded() {
			out = append(out, dist.ProcID(i))
		}
	}
	return out
}

// Processes returns the cluster's current state machines — after a run with
// restarts these are the relaunched incarnations, so decision inspection
// sees the recovered state; a node that is down reports the state machine it
// crashed with.
func (c *Cluster) Processes() []dist.Process {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	procs := make([]dist.Process, len(c.nodes))
	for i, n := range c.nodes {
		procs[i] = n.inc.proc
	}
	return procs
}

// Run initialises every process and pumps messages until all live processes
// report Done, then shuts the transports down. Completion is signalled by
// the process goroutines themselves (no polling): each incarnation settles
// exactly once — on deciding or on crashing — and the last one to settle
// wakes the monitor. With Env.Restarts, a crashed node's settle hands the
// slot to the restart supervisor, which relaunches the node from its WAL;
// the relaunched incarnation settles a slot of its own. It returns
// ErrTimeout if the protocol fails to converge in time; Stats() still
// reports the partial counters accumulated up to the timeout. A failed
// relaunch surfaces as an error wrapping ErrRecovery.
func (c *Cluster) Run(timeout time.Duration) error {
	c.residentMu.Lock()
	started := c.resident != nil
	c.residentMu.Unlock()
	if started {
		return errors.New("runtime: cluster is resident (started with Start); use Shutdown")
	}
	// One settle slot per initial incarnation plus one per planned restart.
	rs := c.newRunState(int64(len(c.nodes) + len(c.cfg.Restarts)))

	var runErr error
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-rs.allSettled:
	case <-timer.C:
		runErr = ErrTimeout
	}
	if recErr := c.teardown(rs); recErr != nil {
		return recErr
	}
	return runErr
}

// residentSlots keeps a resident run's settle accounting from ever reaching
// zero: a resident cluster ends by Shutdown, never by "everyone decided".
const residentSlots = int64(1) << 62

// Start launches the cluster resident: every process goroutine starts
// delivering, restart plans stay armed (killed nodes are relaunched from
// their WALs), and the cluster keeps running until Shutdown. Unlike Run,
// completion of the hosted state machines settles nothing — resident
// processes (the engine's lifecycle nodes) are never Done; work arrives and
// retires dynamically via EnqueueControl.
func (c *Cluster) Start() error {
	c.residentMu.Lock()
	defer c.residentMu.Unlock()
	if c.resident != nil {
		return errors.New("runtime: cluster already started")
	}
	c.stateMu.RLock()
	stopping := c.stopping
	c.stateMu.RUnlock()
	if stopping {
		return ErrStopped
	}
	c.resident = c.newRunState(residentSlots)
	return nil
}

// Shutdown tears a resident cluster down: further control enqueues fail,
// process goroutines drain, links stop retransmitting, transports and WALs
// close. It is idempotent and returns any recovery failure accumulated over
// the cluster's lifetime.
func (c *Cluster) Shutdown() error {
	c.residentMu.Lock()
	defer c.residentMu.Unlock()
	if c.resident == nil {
		return errors.New("runtime: cluster not started")
	}
	if c.residentDone {
		return c.residentErr
	}
	c.residentDone = true
	c.residentErr = c.teardown(c.resident)
	return c.residentErr
}

// EnqueueControl places an in-band control message (dist.KindOpenInstance /
// dist.KindCloseInstance) on node id's delivery path. On a WAL-enabled
// cluster the control goes through the node's journaling path, so it is a
// journal record ordered exactly where the node will process it — replay
// re-applies it at the same position. Like any delivery it is appended, not
// fsynced: a caller about to externalise the control (an instance id it
// returns) follows up with CommitControls; one that externalises nothing (a
// close) does not wait. The message must be self-addressed (From == To ==
// id): controls are local lifecycle commands, not traffic.
func (c *Cluster) EnqueueControl(id dist.ProcID, msg dist.Message) error {
	if id < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("runtime: control for unknown node %d", id)
	}
	if msg.From != id || msg.To != id {
		return fmt.Errorf("runtime: control for node %d must be self-addressed (from=%d to=%d)", id, msg.From, msg.To)
	}
	c.stateMu.RLock()
	stopping := c.stopping
	inc := c.nodes[id].live()
	c.stateMu.RUnlock()
	if stopping {
		return ErrStopped
	}
	if inc == nil {
		return ErrNodeDown
	}
	return inc.deliver(msg)
}

// CommitControls blocks until every live node's journal covers the controls
// enqueued before the call — the n commits run concurrently, so the caller
// pays about one fsync, not n. A node whose commit fails has fail-stopped
// and one that is down has no journal to wait for; either way its relaunch
// re-derives the controls it lost (RecoveryConfig.OnRelaunch), so there is
// nothing for the caller to act on and no error is returned. Without a WAL
// it returns at once.
func (c *Cluster) CommitControls() {
	var wg sync.WaitGroup
	for _, inc := range c.live() {
		if inc == nil || inc.box == nil {
			continue
		}
		wg.Add(1)
		go func(b *durableBox) {
			defer wg.Done()
			_ = b.barrier(waitControl) // a failed node is reconciled at relaunch
		}(inc.box)
	}
	wg.Wait()
}

// newRunState builds the settle bookkeeping with the given number of slots
// and launches every initial incarnation.
func (c *Cluster) newRunState(slots int64) *runState {
	n := len(c.nodes)
	rs := &runState{
		c:          c,
		n:          n,
		done:       make([]atomic.Bool, n),
		allSettled: make(chan struct{}),
		queues:     make([][]RestartPlan, n),
	}
	rs.unsettled.Store(slots)
	for _, rp := range c.cfg.Restarts {
		rs.queues[rp.Proc] = append(rs.queues[rp.Proc], rp)
	}
	for i, inc := range c.live() {
		rs.launch(c.nodes[i], inc, false)
	}
	return rs
}

// teardown shuts the cluster down. Order: block further relaunches, wake
// the process goroutines, stop retransmissions, disarm chaos, then tear the
// transports down. Incarnations that are down were torn down by killNode.
func (c *Cluster) teardown(rs *runState) error {
	c.stateMu.Lock()
	c.stopping = true
	c.stateMu.Unlock()
	incs := c.live()
	for _, inc := range incs {
		if inc != nil && inc.box != nil {
			inc.box.close()
		}
	}
	for _, inc := range incs {
		if inc != nil {
			inc.mbox.Close()
		}
	}
	for _, inc := range incs {
		if inc != nil && inc.ep != nil {
			_ = inc.ep.Close()
		}
	}
	for _, n := range c.nodes {
		if n.inj != nil {
			_ = n.inj.Close()
		}
		if n.shaper != nil {
			n.shaper.Close()
		}
	}
	// Disarm wire corruption and WAN shaping before tearing transports down,
	// so shutdown traffic (final acks, closes) is not re-broken or parked
	// behind modeled delays mid-teardown.
	c.nfault.Disarm()
	c.wanInj.Disarm()
	for _, n := range c.nodes {
		if n.tcp != nil {
			_ = n.tcp.Close()
		}
	}
	for _, inc := range incs {
		if inc != nil && inc.wal != nil {
			_ = inc.wal.Close()
		}
	}
	rs.wg.Wait()
	c.bg.Wait()
	return rs.recoveryErr()
}

// deliverLocal routes a message into the target's mailbox (the plain channel
// cluster's send hop and the reliable-link receive path of a cluster without
// a WAL both end up here). The error return exists only to satisfy the rlink
// deliver signature; a plain mailbox push cannot fail.
func (c *Cluster) deliverLocal(msg dist.Message) error {
	if msg.To < 0 || int(msg.To) >= len(c.nodes) {
		return nil
	}
	c.stateMu.RLock()
	inc := c.nodes[msg.To].inc
	c.stateMu.RUnlock()
	inc.mbox.Push(msg)
	return nil
}

// consumeSendBudget enforces crash plans; it returns false when the sender
// has crashed and the message must be dropped.
func (n *node) consumeSendBudget(crashed *atomic.Bool) bool {
	if crashed.Load() {
		return false
	}
	for {
		cur := n.budget.Load()
		if cur < 0 {
			return true // unlimited
		}
		if cur == 0 {
			crashed.Store(true)
			return false
		}
		if n.budget.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// nodeContext implements dist.Context for one incarnation of one node. It
// holds the incarnation, so sending looks nothing up in the cluster.
type nodeContext struct {
	cluster *Cluster
	node    *node
	inc     *incarnation
	n       int
}

var (
	_ dist.Context             = (*nodeContext)(nil)
	_ dist.InstanceSender      = (*nodeContext)(nil)
	_ dist.InstanceBroadcaster = (*nodeContext)(nil)
	_ dist.OutputCommitter     = (*nodeContext)(nil)
)

func (nc *nodeContext) ID() dist.ProcID { return nc.node.id }
func (nc *nodeContext) N() int          { return nc.n }

func (nc *nodeContext) Send(to dist.ProcID, kind string, round int, payload any) {
	nc.SendInstance(0, to, kind, round, payload)
}

func (nc *nodeContext) SendInstance(instance int, to dist.ProcID, kind string, round int, payload any) {
	// Invalid targets are local no-ops: they consume no crash budget and do
	// not count as sends, mirroring dist.Sim.send.
	if to < 0 || int(to) >= nc.n {
		return
	}
	if !nc.node.consumeSendBudget(&nc.inc.crashed) {
		return
	}
	msg := dist.Message{From: nc.node.id, To: to, Kind: kind, Round: round, Instance: instance, Payload: payload}
	nc.output(msg, wire.MessageSize(msg))
}

// BroadcastInstance sends to every other process in ascending ID order,
// each copy taking its own crash-budget step and output-commit barrier as a
// Send would. The copies differ only in To, so the broadcast is sized once.
func (nc *nodeContext) BroadcastInstance(instance int, kind string, round int, payload any) {
	msg := dist.Message{From: nc.node.id, Kind: kind, Round: round, Instance: instance, Payload: payload}
	size := wire.MessageSize(msg)
	for to := dist.ProcID(0); int(to) < nc.n; to++ {
		if to == msg.From {
			continue
		}
		if !nc.node.consumeSendBudget(&nc.inc.crashed) {
			return
		}
		msg.To = to
		nc.output(msg, size)
	}
}

// output counts a message that passed the sender's crash budget, size bytes
// long, and hands it to the network.
func (nc *nodeContext) output(msg dist.Message, size int) {
	nc.cluster.sends.Add(1)
	mSends.Inc()
	nc.cluster.bytes.Add(int64(size))
	if msg.To == msg.From {
		// No node has a network link to itself on any transport; in recovery
		// mode the self-delivery is journaled like any other — a delivery, not
		// an output, so it does not wait on the barrier. A journaling failure
		// here has no retransmitting peer to lean on, and ignoring it would
		// silently desynchronize the process from its durable history — so it
		// is treated as a crash of the node: the incarnation settles as
		// crashed, and a restart plan (if any) relaunches it from the
		// journaled prefix, whose replay regenerates the failed self-send.
		if err := nc.inc.deliver(msg); err != nil {
			nc.inc.crashed.Store(true)
		}
		return
	}
	// Output commit: the message may depend on any delivery this process has
	// consumed, so the journal must cover them all before it leaves — and
	// need cover no more. A failed barrier has already fail-stopped the
	// incarnation (or the node is shutting down); the message stays unsent,
	// and a relaunch regenerates it from the journaled prefix.
	if box := nc.inc.box; box != nil && box.consumedBarrier(waitSend) != nil {
		return
	}
	// An error is a transport failure after shutdown; the message is lost,
	// which the crash-fault model already accounts for. The send still
	// counted: it was handed to the network.
	_ = nc.inc.send(msg)
}

// CommitOutput is the output-commit barrier for what leaves the node other
// than through Send — the resident engine calls it before handing a
// participant's decision to its sink. Like a send, it waits for the
// deliveries the process has consumed. It returns nil at once without a WAL.
func (nc *nodeContext) CommitOutput() error {
	if nc.inc.box == nil {
		return nil
	}
	return nc.inc.box.consumedBarrier(waitDecide)
}

func (nc *nodeContext) Broadcast(kind string, round int, payload any) {
	nc.BroadcastInstance(0, kind, round, payload)
}

// chanFrameSender carries frames between in-process nodes (the unreliable
// hop under the rlink/chaos stack of a channel cluster).
type chanFrameSender struct {
	cluster *Cluster
}

var _ rlink.Sender = (*chanFrameSender)(nil)

func (s *chanFrameSender) SendFrame(to dist.ProcID, f wire.Frame) error {
	return s.cluster.routeFrame(to, f)
}

// String implements fmt.Stringer for diagnostics.
func (c *Cluster) String() string {
	st := c.Stats()
	return fmt.Sprintf("Cluster(n=%d, sends=%d, bytes=%d)", len(c.nodes), st.Sends, st.Bytes)
}
