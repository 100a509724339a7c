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

// transport moves protocol messages between nodes. In the plain channel
// cluster it must itself preserve per-sender FIFO order and exactly-once
// delivery; in reliable-link mode those guarantees come from the rlink
// endpoint above an unreliable frame transport.
type transport interface {
	// Send hands a message to the network; it must not block indefinitely.
	Send(msg dist.Message) error
	// Close releases network resources.
	Close() error
}

// Cluster runs n protocol state machines concurrently, one goroutine per
// process, over an in-process or TCP transport. With WithChaos or
// WithReliableLinks the message path is layered as
//
//	process -> rlink endpoint -> [chaos injector] -> frame transport
//
// and the receive path feeds frames back through the peer's endpoint, which
// restores the exactly-once FIFO contract the protocol is proven against.
//
// Processes step concurrently, so their geometry work (subset hulls,
// intersections, averaging) overlaps; the engine's internal fan-outs all
// draw from one GOMAXPROCS-sized worker pool (internal/geom/par), which
// caps total geometry parallelism across all processes instead of letting
// n state machines oversubscribe the host, and keeps results
// bitwise-deterministic so WAL replay on a recovering host reproduces the
// exact payloads of the original run.
type Cluster struct {
	// stateMu guards the per-node slices that the restart supervisor swaps
	// when it relaunches an incarnation (procs, inbox, trans, rel, wal,
	// deliver) plus the stopping flag. Steady-state paths take the read lock;
	// only kill/relaunch/shutdown take the write lock.
	stateMu  sync.RWMutex
	stopping bool

	procs  []dist.Process
	inbox  []*mailbox
	trans  []transport
	budget []int64 // remaining sends before simulated crash; -1 = unlimited

	rel     []*rlink.Endpoint          // reliable-link endpoints (nil entries when disabled)
	inj     []*chaos.Injector          // chaos injectors (nil entries when disabled)
	tcp     []*tcpTransport            // TCP transports (nil entries for channel clusters)
	wal     []*wal.WAL                 // write-ahead logs (recovery mode only)
	box     []*durableBox              // durability state machines (recovery mode only)
	diedDeg []bool                     // node died degraded: journal incomplete, relaunch forbidden
	crash   []*atomic.Bool             // per-incarnation crash flags (fresh on relaunch)
	deliver []func(dist.Message) error // per-incarnation mailbox delivery (recovery mode only)
	sender  []rlink.Sender             // frame sender under each endpoint (incl. chaos), for rebuilds

	chaosProfile *chaos.Profile
	chaosSeed    int64
	reliable     bool
	rlinkCfg     rlink.Config

	wanPlan  *wan.Plan     // WAN link model (nil when disabled)
	wanSeed  int64         // seed of the WAN delay/jitter stream
	wanModel *wan.Model    // plan resolved against n (nil when disabled)
	wanShape []*wan.Shaper // per-node frame shapers (channel clusters)
	wanInj   *wan.Injector // shared conn shaper (TCP clusters)

	netPlan *netfault.Plan     // wire-fault plan (TCP clusters only)
	nfault  *netfault.Injector // shared byte-stream fault injector
	wireCfg WireConfig         // TCP write-path tuning (coalescing, compression)

	recovery *RecoveryConfig
	restarts []RestartPlan

	// residentMu guards the resident-mode lifecycle (Start/Shutdown).
	residentMu   sync.Mutex
	resident     *runState
	residentDone bool
	residentErr  error

	retiredMu sync.Mutex
	retired   dist.NetStats // counters from endpoints/logs of killed incarnations

	durability durabilityCounters
	bg         sync.WaitGroup // background re-arm loops

	sends atomic.Int64
	bytes atomic.Int64
	sizer func(dist.Message) int
}

// ClusterStats aggregates protocol-level message counts with the link-layer
// counters of the reliability and chaos machinery.
type ClusterStats struct {
	Sends int64 // protocol messages handed to the network
	Bytes int64 // estimated payload bytes (needs WithSizer)
	Net   dist.NetStats
}

// Option configures a Cluster.
type Option interface {
	apply(*Cluster)
}

type crashOption struct{ plans []dist.CrashPlan }

func (o crashOption) apply(c *Cluster) {
	for _, p := range o.plans {
		if p.Proc >= 0 && int(p.Proc) < len(c.budget) {
			c.budget[p.Proc] = int64(p.AfterSends)
		}
	}
}

// WithCrashes injects crash faults: each process stops after its AfterSends
// budget, mid-broadcast if the budget lands there.
func WithCrashes(plans ...dist.CrashPlan) Option {
	return crashOption{plans: plans}
}

type sizerOption struct{ fn func(dist.Message) int }

func (o sizerOption) apply(c *Cluster) { c.sizer = o.fn }

// WithSizer installs a payload size estimator for byte accounting.
func WithSizer(fn func(dist.Message) int) Option {
	return sizerOption{fn: fn}
}

type chaosOption struct {
	profile chaos.Profile
	seed    int64
}

func (o chaosOption) apply(c *Cluster) {
	p := o.profile
	c.chaosProfile = &p
	c.chaosSeed = o.seed
	c.reliable = true // an unreliable link needs the reliability layer
}

// WithChaos injects seeded network faults (drops, duplication, delays,
// transient partitions) below the reliable-link layer, which is enabled
// automatically. Composable with WithCrashes: chaos attacks the links,
// crash plans attack the processes.
func WithChaos(profile chaos.Profile, seed int64) Option {
	return chaosOption{profile: profile, seed: seed}
}

type wanOption struct {
	plan wan.Plan
	seed int64
}

func (o wanOption) apply(c *Cluster) {
	p := o.plan
	c.wanPlan = &p
	c.wanSeed = o.seed
	c.reliable = true // shaping lives at the frame layer, under rlink
}

// WithWAN shapes every link through a wide-area model: per-edge propagation
// delay (jitter, heavy tails), bandwidth-derived queueing delay, and one-way
// partition windows, per the plan's geo-topology. The model is pure delay —
// it never drops or corrupts, so it consumes no crash budget and cannot trip
// the wire-level quarantine machinery. Channel clusters shape at the frame
// layer (the reliable-link stack is enabled automatically); TCP clusters
// shape the connections' write paths. Composable with WithChaos (chaos
// decides a frame's fate first; survivors ride the shaped link) and
// WithNetFaults.
func WithWAN(plan wan.Plan, seed int64) Option {
	return wanOption{plan: plan, seed: seed}
}

type reliableOption struct{ cfg rlink.Config }

func (o reliableOption) apply(c *Cluster) {
	c.reliable = true
	c.rlinkCfg = o.cfg
}

// WithReliableLinks forces the sequence/ack/retransmit layer even on
// transports that are already reliable (useful for exercising the layer
// itself). TCP clusters always run it; see NewTCPCluster.
func WithReliableLinks(cfg rlink.Config) Option {
	return reliableOption{cfg: cfg}
}

type netFaultOption struct{ plan netfault.Plan }

func (o netFaultOption) apply(c *Cluster) {
	p := o.plan
	c.netPlan = &p
}

// WithNetFaults injects seeded byte-stream faults (bit flips, garbage runs,
// mutated length prefixes, truncated writes, mid-frame resets, stalls) into
// the TCP mesh, below even the frame codec. Only NewTCPCluster honors it —
// channel clusters have no byte streams to corrupt and reject the option.
// Composable with WithChaos (frame-level faults) and WithCrashes.
func WithNetFaults(plan netfault.Plan) Option {
	return netFaultOption{plan: plan}
}

type wireOption struct{ cfg WireConfig }

func (o wireOption) apply(c *Cluster) { c.wireCfg = o.cfg }

// WithWire tunes the TCP transport's write path: frame coalescing (on by
// default; WireConfig.SingleFrame restores the write+flush-per-frame
// behavior), the flush-deadline batching window, and optional per-batch
// compression. Channel clusters have no wire and ignore the option.
func WithWire(cfg WireConfig) Option {
	return wireOption{cfg: cfg}
}

// NewChannelCluster builds a cluster connected by in-process mailboxes.
// Without chaos the mailboxes are already reliable FIFO channels and
// messages take the direct path; WithChaos (or WithReliableLinks) inserts
// the rlink/chaos stack between the processes and the mailboxes.
func NewChannelCluster(procs []dist.Process, opts ...Option) (*Cluster, error) {
	c, err := newCluster(procs, opts...)
	if err != nil {
		return nil, err
	}
	if c.netPlan != nil {
		return nil, errors.New("runtime: WithNetFaults requires a TCP cluster (channel clusters have no byte streams)")
	}
	if c.reliable {
		for i := range procs {
			var s rlink.Sender = &chanFrameSender{cluster: c}
			s = c.maybeInjectWAN(i, s)
			s = c.maybeInjectChaos(i, s)
			if err := c.installEndpoint(i, s); err != nil {
				for _, ep := range c.rel {
					if ep != nil {
						_ = ep.Close()
					}
				}
				c.closeWALs()
				return nil, err
			}
		}
		return c, nil
	}
	for i := range procs {
		c.trans[i] = &channelTransport{cluster: c, from: dist.ProcID(i)}
	}
	return c, nil
}

func newCluster(procs []dist.Process, opts ...Option) (*Cluster, error) {
	if len(procs) == 0 {
		return nil, errors.New("runtime: no processes")
	}
	c := &Cluster{
		procs:   procs,
		inbox:   make([]*mailbox, len(procs)),
		trans:   make([]transport, len(procs)),
		budget:  make([]int64, len(procs)),
		rel:     make([]*rlink.Endpoint, len(procs)),
		inj:     make([]*chaos.Injector, len(procs)),
		tcp:     make([]*tcpTransport, len(procs)),
		wal:     make([]*wal.WAL, len(procs)),
		box:     make([]*durableBox, len(procs)),
		diedDeg: make([]bool, len(procs)),
		crash:   make([]*atomic.Bool, len(procs)),
		deliver: make([]func(dist.Message) error, len(procs)),
		sender:  make([]rlink.Sender, len(procs)),
	}
	for i := range procs {
		c.inbox[i] = newMailbox()
		c.budget[i] = -1
		c.crash[i] = &atomic.Bool{}
	}
	for _, o := range opts {
		o.apply(c)
	}
	if c.wanPlan != nil && c.wanPlan.Enabled() {
		m, err := wan.NewModel(*c.wanPlan, len(procs), c.wanSeed)
		if err != nil {
			return nil, fmt.Errorf("runtime: %w", err)
		}
		c.wanModel = m
	}
	if err := c.validateRecovery(); err != nil {
		return nil, err
	}
	return c, nil
}

// maybeInjectWAN wraps a frame sender with the node's WAN shaper (channel
// clusters; TCP clusters shape at the conn layer instead). It sits below
// chaos in the chain, so only frames that survive fault injection are
// charged against the modeled link.
func (c *Cluster) maybeInjectWAN(i int, s rlink.Sender) rlink.Sender {
	if c.wanModel == nil {
		return s
	}
	sh := wan.NewShaper(dist.ProcID(i), c.wanModel, s)
	c.wanShape = append(c.wanShape, sh)
	return sh
}

// WANModel exposes the resolved WAN model (nil when WithWAN is absent); the
// resident engine uses it for per-region decide-latency attribution.
func (c *Cluster) WANModel() *wan.Model { return c.wanModel }

// maybeInjectChaos wraps a frame sender with the configured chaos injector.
func (c *Cluster) maybeInjectChaos(i int, s rlink.Sender) rlink.Sender {
	if c.chaosProfile == nil || !c.chaosProfile.Enabled() {
		return s
	}
	inj := chaos.New(dist.ProcID(i), len(c.procs), *c.chaosProfile, c.chaosSeed, s)
	c.inj[i] = inj
	return inj
}

// installEndpoint places a reliable-link endpoint over the frame sender and
// routes its deliveries into the local mailboxes. In recovery mode it also
// creates the node's write-ahead log and threads deliveries through it.
func (c *Cluster) installEndpoint(i int, s rlink.Sender) error {
	c.sender[i] = s
	deliver := c.deliverLocal
	if c.recovery != nil {
		w, err := wal.CreateWith(WALPath(c.recovery.Dir, dist.ProcID(i)), c.walOptions())
		if err != nil {
			return fmt.Errorf("runtime: create WAL for node %d: %w", i, err)
		}
		if c.recovery.Inputs != nil {
			if err := w.AppendInput(dist.ProcID(i), c.recovery.Inputs[i]); err == nil {
				err = w.Sync()
			}
			if err != nil {
				_ = w.Close()
				return fmt.Errorf("runtime: journal input for node %d: %w", i, err)
			}
		}
		c.wal[i] = w
		box := newDurableBox(c, i, w, c.inbox[i], c.crash[i])
		c.box[i] = box
		deliver = box.deliver
		c.deliver[i] = deliver
	}
	ep := rlink.New(dist.ProcID(i), len(c.procs), s, deliver, c.rlinkCfg)
	if b := c.box[i]; b != nil {
		b.attach(ep)
	}
	c.rel[i] = ep
	c.trans[i] = &endpointTransport{ep: ep}
	return nil
}

// closeWALs stops every committer and closes every open write-ahead log
// (constructor error paths).
func (c *Cluster) closeWALs() {
	for _, b := range c.box {
		if b != nil {
			b.close()
		}
	}
	for _, w := range c.wal {
		if w != nil {
			_ = w.Close()
		}
	}
}

// walOptions builds the log options from the recovery configuration: the
// (possibly fault-injecting) filesystem, the checkpoint policy, and mirror
// mode when the degrade policy may need to re-arm or the caller plans
// on-demand checkpoints (retention compaction needs the state mirror).
func (c *Cluster) walOptions() wal.Options {
	o := wal.Options{}
	if c.recovery != nil {
		o.FS = c.recovery.FS
		o.Checkpoint = c.recovery.Checkpoint
		o.Mirror = c.recovery.Durability == Degrade || c.recovery.Mirror
	}
	return o
}

// CheckpointWALs snapshots and compacts every live write-ahead log: each
// log's mirrored state becomes a fresh checkpoint segment and the replayed
// history behind it is dropped. The resident engine calls this on a WAL
// retention horizon (every N retired instances) so long-lived services do
// not accumulate unbounded journal; logs must run with RecoveryConfig.Mirror
// (or the Degrade policy, which mirrors anyway). Nodes that are down between
// kill and relaunch are skipped; the first real error is returned.
func (c *Cluster) CheckpointWALs() error {
	c.stateMu.RLock()
	wals := append([]*wal.WAL(nil), c.wal...)
	c.stateMu.RUnlock()
	var first error
	for _, w := range wals {
		if w == nil {
			continue
		}
		if err := w.Checkpoint(); err != nil && !errors.Is(err, wal.ErrClosed) && first == nil {
			first = err
		}
	}
	return first
}

// routeFrame delivers a frame to the target node's reliable-link endpoint
// (the in-process analogue of the TCP receive path). A node that is down
// between kill and relaunch has no endpoint, and its frames are dropped —
// exactly what a dead TCP listener would do.
func (c *Cluster) routeFrame(to dist.ProcID, f wire.Frame) error {
	if to < 0 || int(to) >= len(c.rel) {
		return fmt.Errorf("runtime: frame to unknown node %d", to)
	}
	// Snapshot under the read lock but call outside it: OnFrame's ack reply
	// re-enters routeFrame, and a recursive RLock can deadlock against a
	// waiting writer (the restart supervisor). A just-killed endpoint is
	// safe to call — Close makes OnFrame a no-op.
	c.stateMu.RLock()
	ep := c.rel[to]
	c.stateMu.RUnlock()
	if ep == nil {
		return errors.New("runtime: target has no reliable-link endpoint")
	}
	ep.OnFrame(f)
	return nil
}

// Stats reports aggregate protocol and link-layer counters after (or
// during) a run.
func (c *Cluster) Stats() ClusterStats {
	st := ClusterStats{Sends: c.sends.Load(), Bytes: c.bytes.Load()}
	c.stateMu.RLock()
	rel := append([]*rlink.Endpoint(nil), c.rel...)
	wals := append([]*wal.WAL(nil), c.wal...)
	c.stateMu.RUnlock()
	for _, ep := range rel {
		if ep == nil {
			continue
		}
		s := ep.Stats()
		st.Net.FramesSent += s.FramesSent
		st.Net.Retransmits += s.Retransmits
		st.Net.DupSuppressed += s.DupSuppressed
		st.Net.OutOfOrder += s.OutOfOrder
		st.Net.AcksSent += s.AcksSent
		st.Net.Resumes += s.Resumes
		st.Net.WindowWithheld += s.WindowWithheld
		st.Net.ReorderDrops += s.ReorderDrops
	}
	for _, w := range wals {
		if w == nil {
			continue
		}
		s := w.Stats()
		st.Net.WALAppends += s.Appends
		st.Net.WALSyncs += s.Syncs
		st.Net.WALCheckpoints += s.Checkpoints
	}
	for _, inj := range c.inj {
		if inj == nil {
			continue
		}
		s := inj.Stats()
		st.Net.InjectedDrops += s.Drops
		st.Net.InjectedDups += s.Dups
		st.Net.InjectedDelays += s.Delays
		st.Net.PartitionDrops += s.PartitionDrops
	}
	for _, t := range c.tcp {
		if t == nil {
			continue
		}
		st.Net.Reconnects += t.reconnects.Load()
		st.Net.LinkFaults += t.linkFaults.Load()
		st.Net.CorruptFrames += t.corruptFrames.Load()
		st.Net.PeerQuarantines += t.quarantines.Load()
		st.Net.PeerReadmits += t.readmits.Load()
	}
	if c.nfault != nil {
		st.Net.InjectedWire = int64(c.nfault.Stats().Total())
	}
	for _, sh := range c.wanShape {
		st.Net.WANDelayedFrames += sh.Delayed()
		st.Net.WANCutHeld += sh.Held()
	}
	if c.wanInj != nil {
		st.Net.WANShapedWrites += c.wanInj.Delayed()
		st.Net.WANCutHeld += c.wanInj.Held()
	}
	c.retiredMu.Lock()
	r := c.retired
	c.retiredMu.Unlock()
	st.Net.FramesSent += r.FramesSent
	st.Net.Retransmits += r.Retransmits
	st.Net.DupSuppressed += r.DupSuppressed
	st.Net.OutOfOrder += r.OutOfOrder
	st.Net.AcksSent += r.AcksSent
	st.Net.Resumes += r.Resumes
	st.Net.WindowWithheld += r.WindowWithheld
	st.Net.ReorderDrops += r.ReorderDrops
	st.Net.WALAppends += r.WALAppends
	st.Net.WALSyncs += r.WALSyncs
	st.Net.WALCheckpoints += r.WALCheckpoints
	d := c.durability.stats()
	st.Net.DurabilityFaults = d.Faults
	st.Net.FailStops = d.FailStops
	st.Net.Degradations = d.Degraded
	st.Net.Rearms = d.Rearms
	return st
}

// Degraded lists the nodes currently running in non-durable (degraded)
// mode: quarantined by the Degrade policy and not yet re-armed.
func (c *Cluster) Degraded() []dist.ProcID {
	c.stateMu.RLock()
	boxes := append([]*durableBox(nil), c.box...)
	c.stateMu.RUnlock()
	var out []dist.ProcID
	for i, b := range boxes {
		if b != nil && b.isDegraded() {
			out = append(out, dist.ProcID(i))
		}
	}
	return out
}

// Processes returns the cluster's current state machines — after a run with
// restarts these are the relaunched incarnations, so decision inspection
// sees the recovered state.
func (c *Cluster) Processes() []dist.Process {
	c.stateMu.RLock()
	defer c.stateMu.RUnlock()
	return append([]dist.Process(nil), c.procs...)
}

// Run initialises every process and pumps messages until all live processes
// report Done, then shuts the transports down. Completion is signalled by
// the process goroutines themselves (no polling): each incarnation settles
// exactly once — on deciding or on crashing — and the last one to settle
// wakes the monitor. With WithRestarts, a crashed node's settle hands the
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
	rs := c.newRunState(int64(len(c.procs) + len(c.restarts)))

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
	if id < 0 || int(id) >= len(c.inbox) {
		return fmt.Errorf("runtime: control for unknown node %d", id)
	}
	if msg.From != id || msg.To != id {
		return fmt.Errorf("runtime: control for node %d must be self-addressed (from=%d to=%d)", id, msg.From, msg.To)
	}
	c.stateMu.RLock()
	stopping := c.stopping
	d := c.deliver[id]
	mbox := c.inbox[id]
	c.stateMu.RUnlock()
	if stopping {
		return ErrStopped
	}
	if d != nil {
		return d(msg)
	}
	if c.recovery != nil {
		// Recovery mode always installs a journaling deliver func; its
		// absence means the node is dead between kill and relaunch.
		return ErrNodeDown
	}
	mbox.Push(msg)
	return nil
}

// CommitControls blocks until every live node's journal covers the controls
// enqueued before the call — the n commits run concurrently, so the caller
// pays about one fsync, not n. A node whose commit fails has fail-stopped
// and one that is down has no journal to wait for; either way its relaunch
// re-derives the controls it lost (RecoveryConfig.OnRelaunch), so there is
// nothing for the caller to act on and no error is returned. Without a WAL
// it returns at once.
func (c *Cluster) CommitControls() {
	c.stateMu.RLock()
	boxes := append([]*durableBox(nil), c.box...)
	c.stateMu.RUnlock()
	var wg sync.WaitGroup
	for _, b := range boxes {
		if b == nil {
			continue
		}
		wg.Add(1)
		go func(b *durableBox) {
			defer wg.Done()
			_ = b.barrier(waitControl) // a failed node is reconciled at relaunch
		}(b)
	}
	wg.Wait()
}

// newRunState builds the settle bookkeeping with the given number of slots
// and launches every initial incarnation.
func (c *Cluster) newRunState(slots int64) *runState {
	n := len(c.procs)
	rs := &runState{
		c:          c,
		n:          n,
		done:       make([]atomic.Bool, n),
		allSettled: make(chan struct{}),
		queues:     make([][]RestartPlan, n),
	}
	rs.unsettled.Store(slots)
	for _, rp := range c.restarts {
		rs.queues[rp.Proc] = append(rs.queues[rp.Proc], rp)
	}
	c.stateMu.RLock()
	for i := range c.procs {
		rs.launch(i, c.procs[i], c.inbox[i], c.crash[i], c.box[i], false)
	}
	c.stateMu.RUnlock()
	return rs
}

// teardown shuts the cluster down. Order: block further relaunches, wake
// the process goroutines, stop retransmissions, disarm chaos, then tear the
// transports down.
func (c *Cluster) teardown(rs *runState) error {
	c.stateMu.Lock()
	c.stopping = true
	inboxes := append([]*mailbox(nil), c.inbox...)
	rel := append([]*rlink.Endpoint(nil), c.rel...)
	wals := append([]*wal.WAL(nil), c.wal...)
	boxes := append([]*durableBox(nil), c.box...)
	trans := append([]transport(nil), c.trans...)
	c.stateMu.Unlock()
	for _, b := range boxes {
		if b != nil {
			b.close()
		}
	}
	for _, mbox := range inboxes {
		mbox.Close()
	}
	for _, ep := range rel {
		if ep != nil {
			_ = ep.Close()
		}
	}
	for _, inj := range c.inj {
		if inj != nil {
			_ = inj.Close()
		}
	}
	for _, sh := range c.wanShape {
		sh.Close()
	}
	// Disarm wire corruption and WAN shaping before tearing transports down,
	// so shutdown traffic (final acks, closes) is not re-broken or parked
	// behind modeled delays mid-teardown.
	c.nfault.Disarm()
	c.wanInj.Disarm()
	for _, tr := range trans {
		if tr != nil {
			_ = tr.Close()
		}
	}
	for _, t := range c.tcp {
		if t != nil {
			_ = t.Close()
		}
	}
	for _, w := range wals {
		if w != nil {
			_ = w.Close()
		}
	}
	rs.wg.Wait()
	c.bg.Wait()
	return rs.recoveryErr()
}

// deliverLocal routes a message into the target's mailbox (channel transport
// and reliable-link receive path both end up here). The error return exists
// only to satisfy the rlink deliver signature; a plain mailbox push cannot
// fail.
func (c *Cluster) deliverLocal(msg dist.Message) error {
	if msg.To < 0 || int(msg.To) >= len(c.inbox) {
		return nil
	}
	c.stateMu.RLock()
	mbox := c.inbox[msg.To]
	c.stateMu.RUnlock()
	mbox.Push(msg)
	return nil
}

// deliverToSelf hands a self-addressed message to the node's own mailbox. In
// recovery mode it goes through the incarnation's journaling path first —
// self-sends are deliveries like any other and must be replayable.
func (c *Cluster) deliverToSelf(id dist.ProcID, msg dist.Message) error {
	c.stateMu.RLock()
	d := c.deliver[id]
	c.stateMu.RUnlock()
	if d != nil {
		return d(msg)
	}
	return c.deliverLocal(msg)
}

// consumeSendBudget enforces crash plans; it returns false when the sender
// has crashed and the message must be dropped.
func (c *Cluster) consumeSendBudget(from dist.ProcID, crashed *atomic.Bool) bool {
	if crashed.Load() {
		return false
	}
	for {
		cur := atomic.LoadInt64(&c.budget[from])
		if cur < 0 {
			return true // unlimited
		}
		if cur == 0 {
			crashed.Store(true)
			return false
		}
		if atomic.CompareAndSwapInt64(&c.budget[from], cur, cur-1) {
			return true
		}
	}
}

// nodeContext implements dist.Context for one incarnation of one node.
type nodeContext struct {
	cluster *Cluster
	id      dist.ProcID
	n       int
	crashed *atomic.Bool
	box     *durableBox // the incarnation's output-commit barrier (nil without a WAL)
}

var (
	_ dist.Context         = (*nodeContext)(nil)
	_ dist.InstanceSender  = (*nodeContext)(nil)
	_ dist.OutputCommitter = (*nodeContext)(nil)
)

func (nc *nodeContext) ID() dist.ProcID { return nc.id }
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
	if !nc.cluster.consumeSendBudget(nc.id, nc.crashed) {
		return
	}
	msg := dist.Message{From: nc.id, To: to, Kind: kind, Round: round, Instance: instance, Payload: payload}
	nc.cluster.sends.Add(1)
	mSends.Inc()
	if nc.cluster.sizer != nil {
		nc.cluster.bytes.Add(int64(nc.cluster.sizer(msg)))
	}
	if to == nc.id {
		// No node has a network link to itself on any transport; in recovery
		// mode the self-delivery is journaled like any other — a delivery, not
		// an output, so it does not wait on the barrier. A journaling failure
		// here has no retransmitting peer to lean on, and ignoring it would
		// silently desynchronize the process from its durable history — so it
		// is treated as a crash of the node: the incarnation settles as
		// crashed, and a restart plan (if any) relaunches it from the
		// journaled prefix, whose replay regenerates the failed self-send.
		if err := nc.cluster.deliverToSelf(nc.id, msg); err != nil {
			nc.crashed.Store(true)
		}
		return
	}
	// Output commit: the message may depend on any delivery this process has
	// consumed, so the journal must cover them all before it leaves. A failed
	// barrier has already fail-stopped the incarnation (or the node is
	// shutting down); the message stays unsent, and a relaunch regenerates it
	// from the journaled prefix.
	if nc.box != nil && nc.box.barrier(waitSend) != nil {
		return
	}
	nc.cluster.stateMu.RLock()
	tr := nc.cluster.trans[nc.id]
	nc.cluster.stateMu.RUnlock()
	if err := tr.Send(msg); err != nil {
		// Transport failure after shutdown; the message is lost, which the
		// crash-fault model already accounts for. The send still counted:
		// it was handed to the network.
		return
	}
}

// CommitOutput is the output-commit barrier for what leaves the node other
// than through Send — the resident engine calls it before handing a
// participant's decision to its sink. It returns nil at once without a WAL.
func (nc *nodeContext) CommitOutput() error {
	if nc.box == nil {
		return nil
	}
	return nc.box.barrier(waitDecide)
}

func (nc *nodeContext) Broadcast(kind string, round int, payload any) {
	for to := dist.ProcID(0); int(to) < nc.n; to++ {
		if to == nc.id {
			continue
		}
		nc.Send(to, kind, round, payload)
	}
}

// channelTransport delivers directly into the peer mailboxes.
type channelTransport struct {
	cluster *Cluster
	from    dist.ProcID
}

var _ transport = (*channelTransport)(nil)

func (t *channelTransport) Send(msg dist.Message) error {
	return t.cluster.deliverLocal(msg)
}

func (t *channelTransport) Close() error { return nil }

// chanFrameSender carries frames between in-process nodes (the unreliable
// hop under the rlink/chaos stack of a channel cluster).
type chanFrameSender struct {
	cluster *Cluster
}

var _ rlink.Sender = (*chanFrameSender)(nil)

func (s *chanFrameSender) SendFrame(to dist.ProcID, f wire.Frame) error {
	return s.cluster.routeFrame(to, f)
}

// endpointTransport adapts a reliable-link endpoint to the transport
// interface. Closing is handled by the cluster shutdown sequence.
type endpointTransport struct {
	ep *rlink.Endpoint
}

var _ transport = (*endpointTransport)(nil)

func (t *endpointTransport) Send(msg dist.Message) error { return t.ep.Send(msg) }
func (t *endpointTransport) Close() error                { return nil }

// String implements fmt.Stringer for diagnostics.
func (c *Cluster) String() string {
	st := c.Stats()
	return fmt.Sprintf("Cluster(n=%d, sends=%d, bytes=%d)", len(c.procs), st.Sends, st.Bytes)
}
