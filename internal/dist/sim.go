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
type Sim struct {
	cfg    Config
	procs  []Process
	rng    *rand.Rand
	queues map[chanKey][]Message
	keys   []chanKey // sorted keys of non-empty queues (rebuilt lazily)
	dirty  bool

	crashed    []bool
	sendBudget []int // remaining sends before crash; -1 = never crashes
	stats      Stats
}

type chanKey struct{ from, to ProcID }

// NewSim validates the configuration and builds a simulator. The processes
// slice must have exactly cfg.N entries.
func NewSim(cfg Config, procs []Process) (*Sim, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("dist: N = %d", cfg.N)
	}
	if len(procs) != cfg.N {
		return nil, fmt.Errorf("dist: %d processes for N = %d", len(procs), cfg.N)
	}
	budget := make([]int, cfg.N)
	for i := range budget {
		budget[i] = -1
	}
	seen := make(map[ProcID]bool, len(cfg.Crashes))
	for _, c := range cfg.Crashes {
		if c.Proc < 0 || int(c.Proc) >= cfg.N {
			return nil, fmt.Errorf("dist: crash plan for unknown process %d", c.Proc)
		}
		if seen[c.Proc] {
			return nil, fmt.Errorf("dist: duplicate crash plan for process %d", c.Proc)
		}
		if c.AfterSends < 0 {
			return nil, fmt.Errorf("dist: negative AfterSends for process %d", c.Proc)
		}
		seen[c.Proc] = true
		budget[c.Proc] = c.AfterSends
	}
	sched := cfg.Scheduler
	if sched == nil {
		sched = NewRandomScheduler()
	}
	cfg.Scheduler = sched
	return &Sim{
		cfg:        cfg,
		procs:      procs,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		queues:     make(map[chanKey][]Message),
		crashed:    make([]bool, cfg.N),
		sendBudget: budget,
		stats:      Stats{KindCounts: make(map[string]int)},
	}, nil
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
		id := ProcID(i)
		if s.sendBudget[i] == 0 {
			// Crashes before sending anything, including its Init sends.
			s.crashed[i] = true
			continue
		}
		p.Init(&simContext{sim: s, id: id})
	}
	for s.stats.Deliveries < maxDeliveries {
		if s.allLiveDone() {
			return &s.stats, nil
		}
		key, ok := s.pickChannel()
		if !ok {
			if s.allLiveDone() {
				return &s.stats, nil
			}
			return &s.stats, s.deadlockError()
		}
		q := s.queues[key]
		msg := q[0]
		if len(q) == 1 {
			delete(s.queues, key)
		} else {
			s.queues[key] = q[1:]
		}
		s.dirty = true
		if s.crashed[msg.To] {
			s.stats.DroppedCrash++
			mSimDroppedCrash.Inc()
			continue
		}
		s.stats.Deliveries++
		mSimDeliveries.Inc()
		s.procs[msg.To].Deliver(&simContext{sim: s, id: msg.To}, msg)
	}
	return &s.stats, ErrLivelock
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

// pickChannel asks the scheduler to choose among non-empty channels.
func (s *Sim) pickChannel() (chanKey, bool) {
	if s.dirty || s.keys == nil {
		s.keys = s.keys[:0]
		for k := range s.queues {
			s.keys = append(s.keys, k)
		}
		sort.Slice(s.keys, func(i, j int) bool {
			if s.keys[i].from != s.keys[j].from {
				return s.keys[i].from < s.keys[j].from
			}
			return s.keys[i].to < s.keys[j].to
		})
		s.dirty = false
	}
	if len(s.keys) == 0 {
		return chanKey{}, false
	}
	states := make([]ChannelState, len(s.keys))
	for i, k := range s.keys {
		q := s.queues[k]
		states[i] = ChannelState{
			From:    k.from,
			To:      k.to,
			Pending: len(q),
			Kind:    q[0].Kind,
			Round:   q[0].Round,
		}
	}
	idx := s.cfg.Scheduler.Pick(states, s.rng)
	if idx < 0 || idx >= len(s.keys) {
		idx = 0 // defensive: a misbehaving scheduler falls back to FIFO
	}
	return s.keys[idx], true
}

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
	key := chanKey{from: from, to: to}
	if _, existed := s.queues[key]; !existed {
		s.dirty = true
	}
	s.queues[key] = append(s.queues[key], msg)
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
