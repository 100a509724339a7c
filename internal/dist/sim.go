// Package dist implements the paper's system model as a deterministic
// discrete-event simulator: n processes on a complete graph with reliable
// FIFO exactly-once channels, full asynchrony (an adversarial scheduler
// chooses the delivery order), and crash faults injected at message
// granularity — a process that crashes mid-broadcast has delivered only a
// prefix of its sends, exactly the behaviour the fault model allows.
//
// Protocols are written as event-driven state machines (the Process
// interface); the same state machines are also driven by the goroutine/TCP
// runtime in package runtime, so protocol logic is implemented once and
// executed under both simulated and real concurrency.
package dist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
)

// ProcID identifies a process; IDs are 0..n-1.
type ProcID int

// Message is a protocol message on a FIFO channel.
type Message struct {
	From     ProcID
	To       ProcID
	Kind     string // protocol-defined tag, e.g. "input", "report", "round"
	Round    int    // asynchronous round index (informational)
	Instance int    // engine instance index (0 in single-instance runs)
	Payload  any    // protocol-defined payload; treated as immutable
}

// Context is the interface a process uses to interact with the network.
type Context interface {
	// ID returns the process's own identifier.
	ID() ProcID
	// N returns the total number of processes.
	N() int
	// Send enqueues a message to a single process.
	Send(to ProcID, kind string, round int, payload any)
	// Broadcast sends to every *other* process, in ascending ID order (the
	// order matters when a crash cuts the broadcast short).
	Broadcast(kind string, round int, payload any)
}

// InstanceSender is optionally implemented by Contexts that can stamp the
// engine's numeric instance index on outgoing messages. Protocol state
// machines never call it — they see a Context whose plain Send carries
// their instance implicitly; the multiplexing layer (internal/engine)
// detects this interface on the driver's context and routes every send
// through it. Kinds are carried byte-for-byte: instance identity lives in
// its own field, never in the kind string.
type InstanceSender interface {
	SendInstance(instance int, to ProcID, kind string, round int, payload any)
}

// OutputCommitter is implemented by the Contexts of a runtime that can
// journal deliveries (internal/runtime): CommitOutput blocks until the
// journal covers every delivery the node has consumed, and fails when the
// incarnation fail-stopped instead. A process that hands results to the
// outside world other than through Send (the resident engine's decision
// sink) must call it first, so a Context wrapped around such a runtime's
// has to forward it. Without a journal it returns nil at once.
type OutputCommitter interface {
	CommitOutput() error
}

// Process is an event-driven protocol state machine. Implementations are
// driven by a single goroutine at a time and need no internal locking.
type Process interface {
	// Init is called exactly once before any delivery.
	Init(ctx Context)
	// Deliver handles one incoming message.
	Deliver(ctx Context, msg Message)
	// Done reports whether the process has terminated (decided).
	Done() bool
}

// CrashPlan schedules a crash: the process stops after performing
// AfterSends successful sends (0 = crashes before sending anything).
// Message-granular: a crash can land in the middle of a broadcast.
type CrashPlan struct {
	Proc       ProcID
	AfterSends int
}

// CrashBudgets checks crash plans against n processes — each names a known
// process, at most once, with a non-negative budget — and returns every
// process's send budget (-1: never crashes). The simulator and the networked
// runtime both call it, so a plan is accepted or refused the same way on
// every executor.
func CrashBudgets(n int, plans []CrashPlan) ([]int, error) {
	budget := make([]int, n)
	for i := range budget {
		budget[i] = -1
	}
	for _, c := range plans {
		switch {
		case c.Proc < 0 || int(c.Proc) >= n:
			return nil, fmt.Errorf("dist: crash plan for unknown process %d", c.Proc)
		case budget[c.Proc] >= 0:
			return nil, fmt.Errorf("dist: duplicate crash plan for process %d", c.Proc)
		case c.AfterSends < 0:
			return nil, fmt.Errorf("dist: negative AfterSends for process %d", c.Proc)
		}
		budget[c.Proc] = c.AfterSends
	}
	return budget, nil
}

// Config configures a simulation run.
type Config struct {
	N             int
	Seed          int64
	Scheduler     Scheduler   // nil = RandomScheduler
	Crashes       []CrashPlan // at most one entry per process
	MaxDeliveries int         // 0 = default limit (livelock guard)
	Sizer         func(Message) int
}

// Stats aggregates observable costs of a run.
type Stats struct {
	Sends        int            // messages handed to the network
	Deliveries   int            // messages delivered to live processes
	DroppedCrash int            // messages addressed to crashed processes
	Bytes        int            // total payload bytes (needs Config.Sizer)
	KindCounts   map[string]int // sends per message kind
	Net          *NetStats      // link-layer counters (networked runs only)
}

// NetStats counts link-layer work below the protocol: the reliability
// machinery (retransmits, dedup, reordering), injected chaos faults, and
// TCP link repair. The deterministic simulator models perfect channels and
// leaves it nil; the networked runtime fills it in.
type NetStats struct {
	FramesSent    int64 // first transmissions of data frames
	Retransmits   int64 // retransmitted data frames
	DupSuppressed int64 // duplicate data frames discarded at the receiver
	OutOfOrder    int64 // data frames buffered ahead of a sequence gap
	AcksSent      int64 // acknowledgement frames

	InjectedDrops  int64 // frames dropped by chaos injection
	InjectedDups   int64 // frames duplicated by chaos injection
	InjectedDelays int64 // frames delayed by chaos injection
	PartitionDrops int64 // frames dropped inside a chaos partition window

	Reconnects int64 // TCP links re-established after a failure
	LinkFaults int64 // TCP link errors (mid-frame truncation, write failures)

	CorruptFrames   int64 // frames rejected by the wire decoder (CRC, framing, oversize)
	PeerQuarantines int64 // peers quarantined for exceeding the corruption strike budget
	PeerReadmits    int64 // quarantined peers readmitted on a clean handshake
	WindowWithheld  int64 // sends deferred past the per-link transmission window
	ReorderDrops    int64 // frames dropped beyond the receive reorder bound
	InjectedWire    int64 // byte-stream faults injected by netfault (corrupting kinds)

	WANDelayedFrames int64 // in-process frames released late by the WAN shaper
	WANShapedWrites  int64 // TCP writes released late by the WAN conn shaper
	WANCutHeld       int64 // departures held by a one-way WAN partition window

	Resumes    int64 // epoch-increase handshakes processed (peer restarts seen)
	WALAppends int64 // records appended to write-ahead logs
	WALSyncs   int64 // fsync batches issued by write-ahead logs

	WALCheckpoints   int64 // snapshots published (rotations + degraded re-arms)
	DurabilityFaults int64 // WAL write/fsync failures observed by the runtime
	FailStops        int64 // nodes fail-stopped on durability failure
	Degradations     int64 // nodes that entered non-durable (degraded) mode
	Rearms           int64 // degraded nodes whose durability was restored
}

// ErrDeadlock is returned when live undecided processes remain but no
// messages are in flight — the protocol is stuck.
var ErrDeadlock = errors.New("dist: deadlock (no messages in flight, processes not done)")

// ErrLivelock is returned when the delivery limit is exhausted.
var ErrLivelock = errors.New("dist: delivery limit exceeded (livelock?)")

const defaultMaxDeliveries = 5_000_000

// Sim is a deterministic single-threaded simulation of one protocol run.
//
// The n*n directed channels live in a dense table indexed from*N+to, so
// ascending table index is ascending (from, to). view holds one entry per
// non-empty channel in that order and is what the scheduler sees; it
// persists across deliveries and is patched in place — a pop refreshes one
// entry, and only a channel flipping between empty and non-empty shifts the
// tail — so the steady-state delivery path allocates nothing.
type Sim struct {
	cfg   Config
	procs []Process
	ctxs  []simContext // one per process, handed to every Init/Deliver
	rng   *rand.Rand

	chans []fifo
	view  []ChannelState

	crashed    []bool
	sendBudget []int // remaining sends before crash; -1 = never crashes
	stats      Stats
}

// fifo is one channel's queue. Popping advances head instead of re-slicing,
// so the backing array is reused once the queue drains (or compacts).
type fifo struct {
	buf  []Message
	head int
}

func (q *fifo) len() int { return len(q.buf) - q.head }

func (q *fifo) push(m Message) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full with a mostly consumed prefix: slide the live tail down
		// rather than let append grow the array.
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, m)
}

func (q *fifo) pop() Message {
	m := q.buf[q.head]
	q.buf[q.head] = Message{} // drop the payload reference
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return m
}

// NewSim validates the configuration and builds a simulator. The processes
// slice must have exactly cfg.N entries.
func NewSim(cfg Config, procs []Process) (*Sim, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dist: N = %d", cfg.N)
	}
	if len(procs) != cfg.N {
		return nil, fmt.Errorf("dist: %d processes for N = %d", len(procs), cfg.N)
	}
	budget, err := CrashBudgets(cfg.N, cfg.Crashes)
	if err != nil {
		return nil, err
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = NewRandomScheduler()
	}
	cfg.Scheduler = sched
	s := &Sim{
		cfg:        cfg,
		procs:      procs,
		ctxs:       make([]simContext, cfg.N),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		chans:      make([]fifo, cfg.N*cfg.N),
		crashed:    make([]bool, cfg.N),
		sendBudget: budget,
		stats:      Stats{KindCounts: make(map[string]int)},
	}
	for i := range s.ctxs {
		s.ctxs[i] = simContext{sim: s, id: ProcID(i)}
	}
	return s, nil
}

// Run executes the protocol to completion: it initialises every process and
// delivers messages in scheduler order until all live processes are done.
// Crashed processes are not required to finish. Stats are valid even when an
// error is returned.
func (s *Sim) Run() (*Stats, error) {
	maxDeliveries := s.cfg.MaxDeliveries
	if maxDeliveries == 0 {
		maxDeliveries = defaultMaxDeliveries
	}
	for i, p := range s.procs {
		if s.sendBudget[i] == 0 {
			// Crashes before sending anything, including its Init sends.
			s.crashed[i] = true
			continue
		}
		p.Init(&s.ctxs[i])
	}
	for s.stats.Deliveries < maxDeliveries {
		if s.allLiveDone() {
			return &s.stats, nil
		}
		if !s.deliverNext() {
			return &s.stats, s.deadlockError()
		}
	}
	return &s.stats, ErrLivelock
}

// deliverNext lets the scheduler choose among the non-empty channels and
// delivers the head of its choice (or discards it, if the addressee has
// crashed). It reports false when nothing is in flight.
func (s *Sim) deliverNext() bool {
	if len(s.view) == 0 {
		return false
	}
	idx := s.cfg.Scheduler.Pick(s.view, s.rng)
	if idx < 0 || idx >= len(s.view) {
		idx = 0 // defensive: a misbehaving scheduler falls back to FIFO
	}
	v := &s.view[idx]
	q := &s.chans[s.chanIndex(v.From, v.To)]
	msg := q.pop()
	if q.len() == 0 {
		s.view = slices.Delete(s.view, idx, idx+1)
	} else {
		head := &q.buf[q.head]
		v.Pending, v.Kind, v.Round = q.len(), head.Kind, head.Round
	}
	if s.crashed[msg.To] {
		s.stats.DroppedCrash++
		mSimDroppedCrash.Inc()
		return true
	}
	s.stats.Deliveries++
	mSimDeliveries.Inc()
	s.procs[msg.To].Deliver(&s.ctxs[msg.To], msg)
	return true
}

// Crashed reports whether process id crashed during the run.
func (s *Sim) Crashed(id ProcID) bool { return s.crashed[id] }

// allLiveDone reports whether every non-crashed process has decided.
func (s *Sim) allLiveDone() bool {
	for i, p := range s.procs {
		if !s.crashed[i] && !p.Done() {
			return false
		}
	}
	return true
}

func (s *Sim) deadlockError() error {
	var stuck []int
	for i, p := range s.procs {
		if !s.crashed[i] && !p.Done() {
			stuck = append(stuck, i)
		}
	}
	return fmt.Errorf("%w: stuck processes %v", ErrDeadlock, stuck)
}

// chanIndex is the position of channel from->to in the dense table.
func (s *Sim) chanIndex(from, to ProcID) int { return int(from)*s.cfg.N + int(to) }

// send enqueues a message, enforcing the sender's crash budget.
func (s *Sim) send(from, to ProcID, kind string, round, instance int, payload any) {
	if s.crashed[from] {
		return
	}
	// Validate the target before touching the crash budget: a send to a
	// nonexistent process is a local no-op, not a network event, so it must
	// neither burn budget nor count in Stats. runtime.Cluster applies the
	// same rule, keeping send accounting aligned across both executors.
	if to < 0 || int(to) >= s.cfg.N {
		return
	}
	if s.sendBudget[from] == 0 {
		s.crashed[from] = true
		return
	}
	if s.sendBudget[from] > 0 {
		s.sendBudget[from]--
	}
	msg := Message{From: from, To: to, Kind: kind, Round: round, Instance: instance, Payload: payload}
	ch := s.chanIndex(from, to)
	q := &s.chans[ch]
	q.push(msg)
	// The channel's slot in the view, by binary search on the table index.
	at := sort.Search(len(s.view), func(i int) bool {
		return s.chanIndex(s.view[i].From, s.view[i].To) >= ch
	})
	if q.len() > 1 {
		s.view[at].Pending++
	} else {
		s.view = slices.Insert(s.view, at, ChannelState{From: from, To: to, Pending: 1, Kind: kind, Round: round})
	}
	s.stats.Sends++
	mSimSends.Inc()
	s.stats.KindCounts[kind]++
	if s.cfg.Sizer != nil {
		s.stats.Bytes += s.cfg.Sizer(msg)
	}
}

// simContext adapts the simulator to the Context interface for one process.
type simContext struct {
	sim *Sim
	id  ProcID
}

var (
	_ Context        = (*simContext)(nil)
	_ InstanceSender = (*simContext)(nil)
)

func (c *simContext) ID() ProcID { return c.id }
func (c *simContext) N() int     { return c.sim.cfg.N }

func (c *simContext) Send(to ProcID, kind string, round int, payload any) {
	c.sim.send(c.id, to, kind, round, 0, payload)
}

func (c *simContext) SendInstance(instance int, to ProcID, kind string, round int, payload any) {
	c.sim.send(c.id, to, kind, round, instance, payload)
}

func (c *simContext) Broadcast(kind string, round int, payload any) {
	for to := ProcID(0); int(to) < c.sim.cfg.N; to++ {
		if to == c.id {
			continue
		}
		c.sim.send(c.id, to, kind, round, 0, payload)
	}
}
