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
	"math/bits"
	"math/rand"
	"slices"
	"sync"
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

// InstanceBroadcaster is InstanceSender's broadcast: BroadcastInstance is
// Broadcast with the engine's instance index stamped on every copy. Every
// executor implements it, so a broadcast reaches the executor as one call
// and it can treat the n-1 copies as one event.
type InstanceBroadcaster interface {
	BroadcastInstance(instance int, kind string, round int, payload any)
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
	// Sizer returns a message's size in bytes for Stats.Bytes. It must not
	// depend on To: a broadcast is sized once for all of its copies.
	// wire.MessageSize qualifies.
	Sizer func(Message) int
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
// ascending table index is ascending (from, to). A bitset over that table
// marks the non-empty channels and is what the scheduler sees, through the
// Channels view: a send that fills an empty channel sets one bit and a pop
// that drains one clears it, so nothing shifts and the steady-state delivery
// path allocates nothing.
//
// A send or a broadcast is one post in a slab: what its copies share (kind,
// round, instance, payload) is stored once, and each channel queues the
// post's 4-byte index. A broadcast is one post with a copy on each of its
// channels, and the post's slot is recycled when its last copy leaves.
//
// The scheduler's generator and the channel table (its fifos and post slab)
// are pooled: NewSim takes them, re-seeding the generator, and Run gives
// them back when it returns, so a run allocates neither a source nor slabs.
type Sim struct {
	cfg   Config
	procs []Process
	ctxs  []simContext // one per process, handed to every Init/Deliver
	rng   *rand.Rand

	chans *channelTable

	crashed    []bool
	sendBudget []int // remaining sends before crash; -1 = never crashes
	kinds      []kindCount
	stats      Stats
}

// kindCount counts the sends of one message kind. A run has a handful of
// kinds, sent under the same string constants, so a linear scan of these
// finds its entry faster than a map write would.
type kindCount struct {
	kind string
	n    int
}

// channelTable holds every channel's FIFO, dense from*N+to, the posts
// their entries index, and the set of the non-empty channels as one bit per
// table slot plus a live count. It is the Channels view the scheduler is
// shown: the i-th entry is the i-th set bit, which is the i-th non-empty
// channel in ascending (From, To) order.
type channelTable struct {
	n     int // processes: channel c runs from c/n to c%n
	fifos []fifo
	live  []uint64 // bit c%64 of word c/64 set iff fifos[c] is non-empty
	count int      // set bits in live

	posts []post  // slab of the posts in flight
	free  []int32 // recycled slots of posts

	// Cursor: the rank of the last entry resolved and its slot (pos), the
	// word that slot sits in, and that word's set bits above it, so the next
	// entry continues from there. mark and unmark reset it (rank -1).
	rank, pos, word int
	rest            uint64
}

// post is one send or broadcast in flight: what its copies share, and how
// many of them are still queued.
type post struct {
	from     ProcID
	kind     string
	round    int
	instance int
	payload  any
	copies   int
}

var _ Channels = (*channelTable)(nil)

var tablePool = sync.Pool{New: func() any { return new(channelTable) }}

// newChannelTable takes a table from the pool and empties it for n
// processes; release gives it back.
func newChannelTable(n int) *channelTable {
	t := tablePool.Get().(*channelTable)
	slots := n * n
	t.n, t.count, t.rank = n, 0, -1
	t.fifos = slices.Grow(t.fifos[:0], slots)[:slots]
	for c := range t.fifos {
		t.fifos[c].buf, t.fifos[c].head = t.fifos[c].buf[:0], 0
	}
	t.live = slices.Grow(t.live[:0], (slots+63)/64)[:(slots+63)/64]
	clear(t.live)
	t.posts, t.free = t.posts[:0], t.free[:0]
	return t
}

// release drops the payloads still queued and returns t to the pool.
func (t *channelTable) release() {
	clear(t.posts)
	tablePool.Put(t)
}

// Len implements Channels.
func (t *channelTable) Len() int { return t.count }

// At implements Channels, filling the entry from the post at the channel's
// head.
func (t *channelTable) At(i int) ChannelState {
	c := t.slot(i)
	q := &t.fifos[c]
	head := &t.posts[q.buf[q.head]]
	return ChannelState{From: head.from, To: t.to(c, head.from), Pending: q.len(), Kind: head.kind, Round: head.round}
}

// to is the receiving end of channel c, whose sender is from.
func (t *channelTable) to(c int, from ProcID) ProcID { return ProcID(c - int(from)*t.n) }

// newPost takes a free slot of the slab, or grows it, and returns the
// slot's index and post for the caller to fill.
func (t *channelTable) newPost() (int32, *post) {
	if k := len(t.free); k > 0 {
		i := t.free[k-1]
		t.free = t.free[:k-1]
		return i, &t.posts[i]
	}
	t.posts = append(t.posts, post{})
	i := len(t.posts) - 1
	return int32(i), &t.posts[i]
}

// enqueue queues a copy of post i on channel c.
func (t *channelTable) enqueue(c int, i int32) {
	q := &t.fifos[c]
	q.push(i)
	if q.len() == 1 {
		t.mark(c)
	}
}

// dequeue pops the copy at channel c's head and rebuilds its message. The
// post's last copy frees its slot and drops its payload reference.
func (t *channelTable) dequeue(c int) Message {
	q := &t.fifos[c]
	i := q.pop()
	if q.len() == 0 {
		t.unmark(c)
	}
	p := &t.posts[i]
	msg := Message{From: p.from, To: t.to(c, p.from), Kind: p.kind, Round: p.round, Instance: p.instance, Payload: p.payload}
	if p.copies--; p.copies == 0 {
		p.payload = nil
		t.free = append(t.free, i)
	}
	return msg
}

// slot returns the table index of the i-th non-empty channel (0 <= i <
// count). Asking again for the last entry, or for the one after it, resumes
// from the cursor; any other i selects afresh.
func (t *channelTable) slot(i int) int {
	switch {
	case i == t.rank:
		return t.pos
	case i == t.rank+1 && t.rank >= 0:
		for t.rest == 0 {
			t.word++
			t.rest = t.live[t.word]
		}
	default:
		k, word := i, 0
		for c := bits.OnesCount64(t.live[0]); k >= c; c = bits.OnesCount64(t.live[word]) {
			k -= c
			word++
		}
		w := t.live[word]
		t.word, t.rest = word, w&^(1<<selectBit(w, k)-1)
	}
	b := bits.TrailingZeros64(t.rest)
	t.rest &= t.rest - 1
	t.rank, t.pos = i, t.word<<6|b
	return t.pos
}

// selectBit returns the position of the k-th set bit of w (k <
// popcount(w)) without a data-dependent branch: the byte popcounts, summed
// into running totals by one multiply, locate the byte that holds it, and
// selectInByte the bit within that byte. The scheduler's picks are random,
// so a search that branched on them would mispredict.
func selectBit(w uint64, k int) int {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	s := w - w>>1&0x5555555555555555
	s = s&0x3333333333333333 + s>>2&0x3333333333333333
	s = (s + s>>4) & 0x0f0f0f0f0f0f0f0f
	s *= ones // byte j: set bits in bytes 0..j
	// Byte j keeps its high bit iff its running total is at most k, so
	// the count of such bytes is the index of the byte holding the bit.
	place := bits.OnesCount64(((uint64(k)*ones|highs)-s)&highs) * 8
	before := int(s << 8 >> place & 0xff) // set bits below that byte
	return place + int(selectInByte[w>>place&0xff][k-before])
}

// selectInByte[b][k] is the position of the k-th set bit of the byte b.
var selectInByte = func() (t [256][8]uint8) {
	for b := range t {
		k := 0
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				t[b][k] = uint8(i)
				k++
			}
		}
	}
	return t
}()

// mark records that channel c turned non-empty; unmark that it drained.
func (t *channelTable) mark(c int) {
	t.live[c>>6] |= 1 << (c & 63)
	t.count++
	t.rank = -1
}

func (t *channelTable) unmark(c int) {
	t.live[c>>6] &^= 1 << (c & 63)
	t.count--
	t.rank = -1
}

// fifo is one channel's queue of post indices. Popping advances head
// instead of re-slicing, so the backing array is reused once the queue
// drains (or compacts).
type fifo struct {
	buf  []int32
	head int
}

func (q *fifo) len() int { return len(q.buf) - q.head }

func (q *fifo) push(i int32) {
	if len(q.buf) == cap(q.buf) && q.head > len(q.buf)/2 {
		// Full with a mostly consumed prefix: slide the live tail down
		// rather than let append grow the array.
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, i)
}

func (q *fifo) pop() int32 {
	i := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return i
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
		rng:        newRand(cfg.Seed),
		chans:      newChannelTable(cfg.N),
		crashed:    make([]bool, cfg.N),
		sendBudget: budget,
	}
	for i := range s.ctxs {
		s.ctxs[i] = simContext{sim: s, id: ProcID(i)}
	}
	return s, nil
}

// rngPool holds the schedulers' generators between runs. Seeding a pooled
// *rand.Rand gives, bit for bit, the stream rand.New(rand.NewSource(seed))
// gives, without allocating a 5 KB source per run.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

func newRand(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Run executes the protocol to completion: it initialises every process and
// delivers messages in scheduler order until all live processes are done.
// Crashed processes are not required to finish. Stats are valid even when an
// error is returned. A Sim runs once: Run returns its generator and channel
// table to their pools.
func (s *Sim) Run() (*Stats, error) {
	defer s.release()
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
			return s.result(nil)
		}
		if !s.deliverNext() {
			return s.result(s.deadlockError())
		}
	}
	return s.result(ErrLivelock)
}

// release returns the generator and the channel table to their pools.
func (s *Sim) release() {
	rngPool.Put(s.rng)
	s.chans.release()
	s.rng, s.chans = nil, nil
}

// result fills Stats.KindCounts from the per-kind send counts; every exit
// of Run goes through it, since Stats stay valid on error.
func (s *Sim) result(err error) (*Stats, error) {
	s.stats.KindCounts = make(map[string]int, len(s.kinds))
	for _, k := range s.kinds {
		s.stats.KindCounts[k.kind] = k.n
	}
	return &s.stats, err
}

// deliverNext lets the scheduler choose among the non-empty channels and
// delivers the head of its choice (or discards it, if the addressee has
// crashed). It reports false when nothing is in flight.
func (s *Sim) deliverNext() bool {
	if s.chans.count == 0 {
		return false
	}
	idx := s.cfg.Scheduler.Pick(s.chans, s.rng)
	if idx < 0 || idx >= s.chans.count {
		idx = 0 // defensive: a misbehaving scheduler falls back to FIFO
	}
	msg := s.chans.dequeue(s.chans.slot(idx))
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
	i, p := s.chans.newPost()
	p.from, p.kind, p.round, p.instance, p.payload, p.copies = from, kind, round, instance, payload, 1
	s.chans.enqueue(s.chanIndex(from, to), i)
	s.account(p, to)
}

// broadcast sends one post to every other process, in ascending ID order,
// enforcing the sender's crash budget exactly as n-1 sends would: a budget
// shorter than the broadcast delivers to the lowest ids it covers and
// leaves the sender crashed.
func (s *Sim) broadcast(from ProcID, kind string, round, instance int, payload any) {
	if s.crashed[from] {
		return
	}
	k := s.cfg.N - 1
	if b := s.sendBudget[from]; b >= 0 {
		if b < k {
			k = b
			s.crashed[from] = true
		}
		s.sendBudget[from] -= k
	}
	if k == 0 {
		return
	}
	i, p := s.chans.newPost()
	p.from, p.kind, p.round, p.instance, p.payload, p.copies = from, kind, round, instance, payload, k
	for to := ProcID(0); k > 0; to++ {
		if to != from {
			s.chans.enqueue(s.chanIndex(from, to), i)
			k--
		}
	}
	first := ProcID(0)
	if from == 0 {
		first = 1
	}
	s.account(p, first)
}

// account adds every copy of post p to Stats, the kind count and the send
// counter. first is one of p's receivers, for the Sizer to see a whole
// message: every copy has the size of that one.
func (s *Sim) account(p *post, first ProcID) {
	s.stats.Sends += p.copies
	mSimSends.Add(int64(p.copies))
	if s.cfg.Sizer != nil {
		msg := Message{From: p.from, To: first, Kind: p.kind, Round: p.round, Instance: p.instance, Payload: p.payload}
		s.stats.Bytes += p.copies * s.cfg.Sizer(msg)
	}
	for i := range s.kinds {
		if s.kinds[i].kind == p.kind {
			s.kinds[i].n += p.copies
			return
		}
	}
	s.kinds = append(s.kinds, kindCount{kind: p.kind, n: p.copies})
}

// simContext adapts the simulator to the Context interface for one process.
type simContext struct {
	sim *Sim
	id  ProcID
}

var (
	_ Context             = (*simContext)(nil)
	_ InstanceSender      = (*simContext)(nil)
	_ InstanceBroadcaster = (*simContext)(nil)
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
	c.sim.broadcast(c.id, kind, round, 0, payload)
}

func (c *simContext) BroadcastInstance(instance int, kind string, round int, payload any) {
	c.sim.broadcast(c.id, kind, round, instance, payload)
}
