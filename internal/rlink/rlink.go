// Package rlink implements the reliable-channel abstraction Algorithm CC is
// proven against — exactly-once, per-sender-FIFO delivery — on top of an
// unreliable frame transport that may drop, duplicate, reorder or delay
// frames (a chaos-injected link, or a TCP link that breaks and reconnects).
//
// Each node runs one Endpoint. The sending side stamps every protocol
// message with a per-link sequence number, keeps it buffered until the
// receiver's cumulative ack covers it, and retransmits with exponential
// backoff plus jitter. The receiving side acknowledges every data frame,
// suppresses duplicates, and holds out-of-order frames in a reorder buffer
// so messages are handed to the process in exactly the order they were
// sent. The paper's channel model therefore holds end-to-end as long as
// each link eventually delivers a retransmission (fair-lossy links).
package rlink

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/dist"
	"chc/internal/telemetry"
	"chc/internal/wire"
)

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("rlink: endpoint closed")

// Sender pushes a frame toward a peer over the unreliable transport below
// the endpoint. Implementations may fail or silently drop; the endpoint
// relies only on retransmission for delivery.
type Sender interface {
	SendFrame(to dist.ProcID, f wire.Frame) error
}

// Config tunes the retransmission machinery. Zero values select defaults
// suited to loopback/in-process links.
type Config struct {
	// RetransmitInitial is the delay before the first retransmission of an
	// unacked frame (default 4ms).
	RetransmitInitial time.Duration
	// RetransmitMax caps the exponential backoff (default 250ms).
	RetransmitMax time.Duration
	// Tick is the scan period of the retransmission loop (default 1ms).
	Tick time.Duration
	// Seed drives retransmission jitter (default 1).
	Seed int64
	// MaxInflight caps the transmission window of each directed link: at
	// most this many unacked frames are on the wire at once (default 512).
	// Frames sent beyond the window stay queued but are withheld from the
	// transport until acks open the window, so Send never blocks and no
	// frame is ever lost — the bound trades wire pressure, not correctness.
	MaxInflight int
	// MaxReorder caps the receive-side reorder buffer of each directed
	// link: a data frame more than this many sequence numbers ahead of the
	// delivery cursor is dropped instead of buffered (default 1024). The
	// sender's retransmission re-offers it once the gap closes, preserving
	// exactly-once FIFO delivery under a hostile or wildly reordering wire
	// without unbounded memory.
	MaxReorder int
}

// AckHoldDelay is how long the owner of an endpoint that holds acks (HoldAcks)
// may sit on a delivery before it should commit and release the ack: a
// quarter of the first retransmission delay, so the held ack plus the fsync
// that frees it still beat the sender's earliest retry (jittered down to half
// of RetransmitInitial).
func (c Config) AckHoldDelay() time.Duration {
	return c.withDefaults().RetransmitInitial / 4
}

func (c Config) withDefaults() Config {
	if c.RetransmitInitial <= 0 {
		c.RetransmitInitial = 4 * time.Millisecond
	}
	if c.RetransmitMax <= 0 {
		c.RetransmitMax = 250 * time.Millisecond
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 512
	}
	if c.MaxReorder <= 0 {
		c.MaxReorder = 1024
	}
	return c
}

// Stats counts the reliability work an endpoint performed.
type Stats struct {
	FramesSent     int64 // first transmissions of data frames
	Retransmits    int64 // additional transmissions of data frames
	DupSuppressed  int64 // received data frames discarded as duplicates
	OutOfOrder     int64 // received data frames buffered ahead of a gap
	AcksSent       int64 // ack frames emitted
	Resumes        int64 // epoch-increase handshakes processed (peer restarts seen)
	WindowWithheld int64 // sends queued past the transmission window (deferred, not lost)
	ReorderDrops   int64 // received frames dropped beyond the reorder bound (re-offered later)
}

// Add accumulates o into s (totals over several endpoints or incarnations).
func (s *Stats) Add(o Stats) {
	s.FramesSent += o.FramesSent
	s.Retransmits += o.Retransmits
	s.DupSuppressed += o.DupSuppressed
	s.OutOfOrder += o.OutOfOrder
	s.AcksSent += o.AcksSent
	s.Resumes += o.Resumes
	s.WindowWithheld += o.WindowWithheld
	s.ReorderDrops += o.ReorderDrops
}

// Endpoint provides reliable exactly-once FIFO links from one node to all
// its peers, over any Sender.
type Endpoint struct {
	self    dist.ProcID
	cfg     Config
	sender  Sender
	deliver func(dist.Message) error
	epoch   uint64 // incarnation number, fixed at construction
	// holdAcks withholds the cumulative ack of a delivery until the owner
	// reports it durable (output commit); set once by HoldAcks before the
	// endpoint receives frames.
	holdAcks bool

	out []*outLink
	in  []*inLink

	rngMu sync.Mutex
	rng   *rand.Rand

	framesSent     atomic.Int64
	retransmits    atomic.Int64
	dupSuppressed  atomic.Int64
	outOfOrder     atomic.Int64
	acksSent       atomic.Int64
	resumes        atomic.Int64
	windowWithheld atomic.Int64
	reorderDrops   atomic.Int64

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// pending is an unacknowledged data frame awaiting (re)transmission.
type pending struct {
	frame     wire.Frame
	attempts  int
	nextRetry time.Time
}

// outLink is the sender-side state of one directed link.
type outLink struct {
	mu        sync.Mutex
	nextSeq   uint64
	queue     []pending // ascending seq; prefix-trimmed by cumulative acks
	peerEpoch uint64    // highest incarnation announced by the peer
}

// inLink is the receiver-side state of one directed link.
type inLink struct {
	mu   sync.Mutex
	next uint64 // next expected (lowest undelivered) sequence number
	// durable is the watermark behind next that the link exports: acks and
	// handshakes claim [0, durable) and nothing above. It equals next unless
	// the endpoint holds acks (HoldAcks), in which case only AdvanceDurable
	// moves it.
	durable  uint64
	buffered map[uint64]dist.Message
}

// New builds an endpoint for node self in a cluster of n nodes. Incoming
// messages are handed to deliver in per-sender FIFO order, exactly once.
// deliver is invoked with an internal per-link lock held (that is what
// serializes concurrent receives into FIFO order), so it must not call back
// into the endpoint and should do only bounded work. A non-nil error from
// deliver rejects the message: it stays buffered, the receive cursor — and
// therefore the cumulative ack — does not advance past it, and the peer's
// retransmission re-offers it later (the recovery runtime uses this to
// refuse deliveries to an incarnation that has fail-stopped).
func New(self dist.ProcID, n int, sender Sender, deliver func(dist.Message) error, cfg Config) *Endpoint {
	e := newEndpoint(self, n, sender, deliver, cfg)
	e.start()
	return e
}

// newEndpoint builds the endpoint without starting the retransmission loop,
// so NewResumed can seed link state before any concurrent access exists.
func newEndpoint(self dist.ProcID, n int, sender Sender, deliver func(dist.Message) error, cfg Config) *Endpoint {
	cfg = cfg.withDefaults()
	e := &Endpoint{
		self:    self,
		cfg:     cfg,
		sender:  sender,
		deliver: deliver,
		out:     make([]*outLink, n),
		in:      make([]*inLink, n),
		rng:     rand.New(rand.NewSource(cfg.Seed ^ int64(self)*0x9e3779b9)),
		stop:    make(chan struct{}),
	}
	for i := range e.out {
		e.out[i] = &outLink{}
		e.in[i] = &inLink{buffered: make(map[uint64]dist.Message)}
	}
	return e
}

// HoldAcks makes the endpoint an output-commit receiver: accepting a
// delivery no longer acknowledges it. The receive cursor still advances (FIFO
// delivery is unchanged), but acks, handshakes and re-acks claim only what
// the owner has reported durable through AdvanceDurable — the recovery
// runtime journals deliveries without fsyncing them and releases the acks
// after the fsync that covers them. Call it before the endpoint is handed
// its first frame.
func (e *Endpoint) HoldAcks() { e.holdAcks = true }

// RecvCursors snapshots every link's receive cursor into dst (resized to the
// peer count) — the deliveries accepted so far. The owner captures it
// *before* starting the fsync that will cover those deliveries and hands it
// to AdvanceDurable afterwards, so the watermark never claims a delivery
// accepted while the fsync was already running.
func (e *Endpoint) RecvCursors(dst []uint64) []uint64 {
	dst = dst[:0]
	for _, il := range e.in {
		il.mu.Lock()
		dst = append(dst, il.next)
		il.mu.Unlock()
	}
	return dst
}

// AdvanceDurable raises each link's durable watermark to the given cursor
// (as captured by RecvCursors) and acknowledges the newly covered frames. It
// reports whether some link still has deliveries above its watermark, i.e.
// whether the owner has another commit to run before every ack is out.
func (e *Endpoint) AdvanceDurable(cursors []uint64) (lagging bool) {
	if e.closed.Load() {
		return false
	}
	for from, il := range e.in {
		if from >= len(cursors) {
			break
		}
		il.mu.Lock()
		advanced := cursors[from] > il.durable
		if advanced {
			il.durable = cursors[from]
		}
		lagging = lagging || il.durable < il.next
		il.mu.Unlock()
		if advanced {
			e.sendAck(dist.ProcID(from), cursors[from]-1)
		}
	}
	return lagging
}

// sendAck emits one cumulative ack covering [0, seq].
func (e *Endpoint) sendAck(to dist.ProcID, seq uint64) {
	e.acksSent.Add(1)
	mAcksSent.Inc()
	_ = e.sender.SendFrame(to, wire.Frame{Type: wire.FrameAck, From: e.self, Seq: seq})
}

// start launches the retransmission loop.
func (e *Endpoint) start() {
	e.wg.Add(1)
	go e.retransmitLoop()
}

// Send stamps msg with the next sequence number of the link to msg.To,
// buffers it until acked, and attempts a first transmission. A transport
// error is not fatal: the frame stays queued and the retransmission loop
// keeps trying until an ack arrives or the endpoint closes.
func (e *Endpoint) Send(msg dist.Message) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if msg.To < 0 || int(msg.To) >= len(e.out) {
		return errors.New("rlink: send to unknown peer")
	}
	l := e.out[msg.To]
	l.mu.Lock()
	f := wire.Frame{Type: wire.FrameData, From: e.self, Seq: l.nextSeq, Msg: msg}
	l.nextSeq++
	inWindow := len(l.queue) < e.cfg.MaxInflight
	if inWindow {
		l.queue = append(l.queue, pending{
			frame:     f,
			attempts:  1,
			nextRetry: time.Now().Add(e.backoff(1)),
		})
	} else {
		// Transmission window full: keep the frame queued but off the wire.
		// attempts=0 with a zero deadline makes the retransmission loop send
		// it the moment acks trim the queue and the frame enters the window
		// (the same path that drains WAL-reseeded frames after a restart).
		l.queue = append(l.queue, pending{frame: f})
		e.windowWithheld.Add(1)
		mWindowWithheld.Inc()
	}
	l.mu.Unlock()
	if inWindow {
		e.framesSent.Add(1)
		mFramesSent.Inc()
		_ = e.sender.SendFrame(msg.To, f)
	}
	return nil
}

// OnFrame is the receive path: the transport calls it for every frame
// addressed to this node. Data frames are deduplicated, reordered and
// delivered; ack frames retire pending retransmissions; epoch handshakes
// resynchronize link state across a peer's restart.
func (e *Endpoint) OnFrame(f wire.Frame) {
	if e.closed.Load() {
		return
	}
	if f.From < 0 || int(f.From) >= len(e.in) {
		return
	}
	switch f.Type {
	case wire.FrameHandshake:
		e.onHandshake(f)
	case wire.FrameAck:
		l := e.out[f.From]
		l.mu.Lock()
		i := 0
		for i < len(l.queue) && l.queue[i].frame.Seq <= f.Seq {
			i++
		}
		if i > 0 {
			l.queue = append(l.queue[:0], l.queue[i:]...)
		}
		l.mu.Unlock()
	case wire.FrameData:
		il := e.in[f.From]
		il.mu.Lock()
		switch {
		case f.Seq < il.next:
			e.dupSuppressed.Add(1)
			mDupSuppressed.Inc()
		case f.Seq >= il.next+uint64(e.cfg.MaxReorder):
			// Beyond the reorder bound: drop instead of buffering. The frame
			// is not covered by our cumulative ack, so the sender's
			// retransmission re-offers it once the gap closes — bounded
			// memory without giving up exactly-once FIFO delivery.
			e.reorderDrops.Add(1)
			mReorderDrops.Inc()
		default:
			if _, dup := il.buffered[f.Seq]; dup {
				e.dupSuppressed.Add(1)
				mDupSuppressed.Inc()
			} else {
				if f.Seq != il.next {
					e.outOfOrder.Add(1)
					mOutOfOrder.Inc()
				}
				il.buffered[f.Seq] = f.Msg
			}
			// Deliver while still holding il.mu: concurrent OnFrame calls for
			// the same sender are possible (chaos-delayed copies fire from
			// separate timer goroutines, retransmits race direct sends, and
			// old and new connection readers overlap across a TCP reconnect),
			// and two drained batches handed off outside the lock could
			// interleave out of sequence order. deliver does bounded work (a
			// mailbox push, plus a buffered journal append in recovery mode), so
			// holding the link lock is safe. A rejected delivery (the owner
			// fail-stopped) stays buffered and ends the drain: the cursor — and
			// with it the cumulative ack below — never covers a message that
			// was not accepted, and the next retransmission retries the
			// delivery (the drain runs even for a frame suppressed as an
			// in-buffer duplicate, which is exactly what that retransmission
			// is).
			for {
				m, ok := il.buffered[il.next]
				if !ok {
					break
				}
				if e.deliver(m) != nil {
					mAcksWithheld.Inc()
					break
				}
				delete(il.buffered, il.next)
				il.next++
			}
		}
		if !e.holdAcks {
			il.durable = il.next
		}
		// Ack cumulatively, even for duplicates: the retransmission that
		// produced the duplicate means a previous ack was lost. A held
		// endpoint acks from here only such duplicates — frames below the
		// watermark; everything newer is acked by AdvanceDurable once the
		// owner's fsync covers it.
		ackable := il.durable > 0 && (!e.holdAcks || f.Seq < il.durable)
		ackSeq := il.durable - 1
		il.mu.Unlock()
		if ackable {
			e.sendAck(f.From, ackSeq)
		}
	}
}

// retransmitLoop periodically rescans all links for overdue frames.
func (e *Endpoint) retransmitLoop() {
	defer e.wg.Done()
	t := time.NewTicker(e.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-e.stop:
			return
		case now := <-t.C:
			for to, l := range e.out {
				var resend []wire.Frame
				l.mu.Lock()
				var firsts int64
				// Only the transmission window touches the wire; withheld
				// frames past it wait for acks to advance the queue.
				window := l.queue
				if len(window) > e.cfg.MaxInflight {
					window = window[:e.cfg.MaxInflight]
				}
				for i := range window {
					p := &window[i]
					if now.After(p.nextRetry) {
						resend = append(resend, p.frame)
						if p.attempts == 0 {
							firsts++ // reseeded after a restart, never yet sent
						}
						p.attempts++
						p.nextRetry = now.Add(e.backoff(p.attempts))
					}
				}
				l.mu.Unlock()
				e.framesSent.Add(firsts)
				e.retransmits.Add(int64(len(resend)) - firsts)
				mFramesSent.Add(firsts)
				if redone := int64(len(resend)) - firsts; redone > 0 {
					mRetransmits.Add(redone)
					mRetransmitsByLink.With(fmt.Sprintf("%d->%d", e.self, to)).Add(redone)
					if telemetry.TraceOn() {
						telemetry.Emit("rlink.retransmit", map[string]any{
							"from": int(e.self), "to": to, "frames": redone,
						})
					}
				}
				for _, f := range resend {
					_ = e.sender.SendFrame(dist.ProcID(to), f)
				}
			}
		}
	}
}

// backoff computes the delay before attempt+1: exponential in the attempt
// count, capped, with up to 50% random jitter to avoid retransmission
// storms marching in lockstep across links.
func (e *Endpoint) backoff(attempts int) time.Duration {
	d := e.cfg.RetransmitInitial
	for i := 1; i < attempts && d < e.cfg.RetransmitMax; i++ {
		d *= 2
	}
	if d > e.cfg.RetransmitMax {
		d = e.cfg.RetransmitMax
	}
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	e.rngMu.Lock()
	j := e.rng.Int63n(half + 1)
	e.rngMu.Unlock()
	return d/2 + time.Duration(j) // uniform in [d/2, d]
}

// Pending returns the number of data frames sent but not yet acknowledged,
// summed over all links.
func (e *Endpoint) Pending() int {
	total := 0
	for _, l := range e.out {
		l.mu.Lock()
		total += len(l.queue)
		l.mu.Unlock()
	}
	return total
}

// Stats returns a snapshot of the endpoint's reliability counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		FramesSent:     e.framesSent.Load(),
		Retransmits:    e.retransmits.Load(),
		DupSuppressed:  e.dupSuppressed.Load(),
		OutOfOrder:     e.outOfOrder.Load(),
		AcksSent:       e.acksSent.Load(),
		Resumes:        e.resumes.Load(),
		WindowWithheld: e.windowWithheld.Load(),
		ReorderDrops:   e.reorderDrops.Load(),
	}
}

// Close stops the retransmission loop; pending frames are abandoned (the
// run is over — undelivered frames are indistinguishable from a crash cut).
func (e *Endpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	close(e.stop)
	e.wg.Wait()
	return nil
}
