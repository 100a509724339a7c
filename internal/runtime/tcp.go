package runtime

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/dist"
	"chc/internal/netfault"
	"chc/internal/rlink"
	"chc/internal/telemetry"
	"chc/internal/wan"
	"chc/internal/wire"
)

// errLinkDown is returned by SendFrame while a peer link is being redialed;
// the reliable-link layer keeps the frame queued and retries.
var errLinkDown = errors.New("runtime: tcp link down, reconnecting")

// errSendQueueFull is returned by SendFrame when a peer's pending batch has
// hit maxPendBytes: the frame is dropped and the reliable-link layer's
// retransmission re-offers it once the writer drains.
var errSendQueueFull = errors.New("runtime: tcp send queue full, frame dropped")

// WireConfig tunes the TCP transport's write path, which always coalesces
// frames per link. The zero value is the default: flush immediately on
// wakeup.
type WireConfig struct {
	// FlushDeadline is how long the peer writer lingers after a wakeup for
	// more frames to accumulate before flushing the batch. Zero flushes
	// immediately: under light load a lone frame still goes out in one
	// write with no added latency, while a burst naturally group-commits
	// because frames arriving during the in-flight write join the next
	// batch. Setting a deadline trades that first-frame latency for larger
	// batches under sustained load.
	FlushDeadline time.Duration
}

// maxPendBytes caps a peer's pending batch; past it SendFrame drops
// (retransmission recovers) so a stalled link cannot buffer unboundedly.
const maxPendBytes = 8 << 20

// Redial backoff bounds for broken links.
const (
	redialInitial = 2 * time.Millisecond
	redialMax     = 100 * time.Millisecond
)

// Peer-health policy: a peer whose streams keep producing corrupt frames is
// quarantined — its connections are torn down and fresh ones rejected at
// the handshake until a jittered backoff expires, after which the next
// clean handshake readmits it. Strikes leak away while frames decode
// cleanly, so the sporadic corruption of a merely flaky wire never
// accumulates to the threshold; only a stream that is corrupt in bulk does.
const (
	// quarantineStrikes is the strike budget: corrupt frames and mid-frame
	// resets add a strike, each strikeDecayEvery cleanly decoded frames
	// remove one.
	quarantineStrikes = 8
	strikeDecayEvery  = 4
	quarantineBase    = 5 * time.Millisecond
	quarantineMax     = 250 * time.Millisecond
	// connGarbageBudget caps the corrupt bytes one accepted connection may
	// emit before it is torn down outright (the StreamDecoder budget).
	connGarbageBudget = 256 << 10
)

// NewTCPCluster builds a cluster whose processes communicate over real TCP
// connections on the loopback interface, framed with the package wire codec.
// A full mesh of n·(n-1) simplex connections is established up front; every
// connection starts with a handshake frame naming the dialing node, so the
// accepting side can bind the byte stream to a peer and replace it after a
// reconnect. The reliable-link layer always runs on top: TCP gives FIFO
// bytes on a healthy connection, but a broken and redialed connection can
// lose frames in flight, so sequence numbers, acks and retransmission are
// what actually uphold the exactly-once FIFO contract (and they absorb any
// chaos faults Env.Chaos injects).
func NewTCPCluster(procs []dist.Process, cfg Config) (*Cluster, error) {
	c, err := listenTCP(procs, cfg)
	if err != nil {
		return nil, err
	}
	if err := c.connectMesh(); err != nil {
		return nil, err
	}
	return c, nil
}

// listenTCP builds a TCP cluster up to the point where every node listens
// and accepts but none has dialed.
func listenTCP(procs []dist.Process, cfg Config) (*Cluster, error) {
	c, err := newCluster(procs, cfg, TransportTCP)
	if err != nil {
		return nil, err
	}
	// One shared fault injector serves the whole mesh, so per-link byte
	// offsets survive reconnects and the corruption schedule is a pure
	// function of the plan seed.
	if cfg.hasNetFaults() {
		c.nfault = netfault.New(*cfg.NetFaults)
	}
	// Likewise one shared WAN conn shaper: link delay/bandwidth clocks are
	// keyed by link label, so a redialed connection resumes shaping where
	// the old one left off.
	if c.wanModel != nil {
		c.wanInj = wan.NewInjector(c.wanModel)
	}
	var wireCfg WireConfig
	if cfg.Wire != nil {
		wireCfg = *cfg.Wire
	}
	addrs := make([]string, len(procs)) // shared by every transport; filled as the listeners come up
	for i, n := range c.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.abort()
			return nil, fmt.Errorf("runtime: listen for node %d: %w", i, err)
		}
		addrs[i] = ln.Addr().String()
		n.tcp = newTCPTransport(n.id, ln, addrs, wireCfg, c.nfault, c.wanInj, "")
	}
	// Install the rlink/chaos stack before any reader goroutine exists.
	for i, proc := range procs {
		if err := c.install(i, proc, c.maybeInjectChaos(i, c.nodes[i].tcp)); err != nil {
			c.abort()
			return nil, err
		}
	}
	for _, n := range c.nodes {
		n.tcp.start()
	}
	return c, nil
}

// connectMesh dials the full mesh up front; later failures are repaired by
// redial. The n·(n-1) dials are independent network operations, so each node
// dials its peers on its own goroutine; on failure the lowest-numbered
// (dialer, target) pair is reported, keeping the error deterministic, and
// the cluster is aborted.
func (c *Cluster) connectMesh() error {
	dialErrs := make([]error, len(c.nodes))
	var dialWG sync.WaitGroup
	for i, n := range c.nodes {
		dialWG.Add(1)
		go func(i int, t *tcpTransport) {
			defer dialWG.Done()
			for j := range c.nodes {
				if i == j {
					continue
				}
				if err := t.dial(dist.ProcID(j)); err != nil {
					dialErrs[i] = fmt.Errorf("runtime: dial %d -> %d: %w", i, j, err)
					return
				}
			}
		}(i, n.tcp)
	}
	dialWG.Wait()
	for _, err := range dialErrs {
		if err != nil {
			c.abort()
			return err
		}
	}
	return nil
}

// tcpTransport is one node's view of the TCP mesh: a listener for incoming
// frames and an outgoing connection per peer, each repaired with capped
// backoff when it breaks.
type tcpTransport struct {
	self  dist.ProcID
	ln    net.Listener
	addrs []string
	// ep is the receive path (the node's rlink endpoint). It is written at
	// install time before any reader goroutine starts, and swapped by the
	// restart supervisor when the node is relaunched with a resumed
	// endpoint; reader goroutines load it per frame. A nil load (mid-kill)
	// drops the frame — the peer's retransmission queue re-offers it.
	ep atomic.Pointer[rlink.Endpoint]

	peers  []*tcpPeer
	health []*peerHealth // inbound stream health, indexed by peer

	// nfault, when non-nil, corrupts the write side of dialed connections
	// per the cluster's wire-fault plan.
	nfault *netfault.Injector

	// wan, when non-nil, shapes the write side of dialed connections through
	// the cluster's WAN model (delay only, chunking-independent).
	wan *wan.Injector

	// cfg is the write-path tuning (the flush deadline).
	cfg WireConfig
	// stop, closed by Close, wakes the per-peer writer goroutines.
	stop chan struct{}

	mu       sync.Mutex // guards accepted
	accepted []net.Conn

	reconnects    atomic.Int64
	linkFaults    atomic.Int64
	corruptFrames atomic.Int64
	quarantines   atomic.Int64
	readmits      atomic.Int64

	// closeMu serializes Close's closed-flag swap against ensureRedial's
	// closed-check + wg.Add, so no goroutine is added to wg after Close has
	// entered wg.Wait with a possibly-zero counter.
	closeMu sync.Mutex
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// tcpPeer is the outgoing half of one link. Senders append encoded frames to
// pend under mu and nudge the peer's writer goroutine, which swaps the batch
// out and hands it to the kernel in a single vectored write — so a burst of
// frames costs one syscall, not one per frame, and frames arriving during
// the in-flight write group-commit into the next batch.
type tcpPeer struct {
	to dist.ProcID

	mu      sync.Mutex
	conn    net.Conn
	dialing bool

	pend    []byte // encoded frames awaiting the writer (pooled; nil when empty)
	nframes int    // frame count in pend
	wake    chan struct{}

	// Per-link telemetry handles, resolved once (vec lookups are off the
	// hot path).
	batchFrames *telemetry.Histogram
	batchBytes  *telemetry.Histogram
}

// peerHealth is the inbound-stream health of one peer: a strike budget fed
// by corrupt frames and mid-frame resets, a quarantine window with jittered
// exponential backoff, and readmission on the first clean handshake after
// expiry. Quarantine is strictly receive-side — it rejects what the peer
// sends here and never touches this node's outbound links — so a corrupt
// wire is confined to the link layer instead of spreading as crash faults.
type peerHealth struct {
	mu      sync.Mutex
	strikes int
	good    int       // cleanly decoded frames since the last decay
	until   time.Time // non-zero while quarantined
	cycles  int       // quarantine episodes taken, drives the backoff
}

// admit gates a freshly handshaken connection: rejected while the peer's
// quarantine backoff runs, readmitted (strikes forgiven) on the first clean
// handshake after it expires.
func (h *peerHealth) admit(t *tcpTransport) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.until.IsZero() {
		return true
	}
	if time.Now().Before(h.until) {
		return false
	}
	h.until = time.Time{}
	h.strikes = 0
	h.good = 0
	t.readmits.Add(1)
	mPeerReadmits.Inc()
	return true
}

// strike charges one fault; crossing the budget quarantines the peer.
func (h *peerHealth) strike(t *tcpTransport) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.until.IsZero() {
		return // already quarantined; the stream is being torn down
	}
	h.good = 0
	if h.strikes++; h.strikes >= quarantineStrikes {
		h.quarantineLocked(t)
	}
}

// quarantineNow quarantines immediately (garbage budget exhausted).
func (h *peerHealth) quarantineNow(t *tcpTransport) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.until.IsZero() {
		h.quarantineLocked(t)
	}
}

func (h *peerHealth) quarantineLocked(t *tcpTransport) {
	d := quarantineBase << uint(h.cycles)
	if d > quarantineMax || d <= 0 {
		d = quarantineMax
	}
	// Jitter in [d/2, d] so a mesh of quarantines does not readmit in
	// lockstep and re-collapse together.
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	h.until = time.Now().Add(d)
	h.cycles++
	t.quarantines.Add(1)
	mPeerQuarantines.Inc()
}

// quarantined reports whether the backoff window is currently running.
func (h *peerHealth) quarantined() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.until.IsZero() && time.Now().Before(h.until)
}

// goodFrame leaks one strike per strikeDecayEvery clean frames, so the
// background corruption of a flaky (not hostile) wire never accumulates to
// the quarantine threshold.
func (h *peerHealth) goodFrame() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.strikes > 0 {
		if h.good++; h.good >= strikeDecayEvery {
			h.good = 0
			h.strikes--
		}
	}
}

var _ rlink.Sender = (*tcpTransport)(nil)

// newTCPTransport builds node self's transport over an open listener. addrs
// are the mesh's listen addresses; linkPrefix namespaces the per-link
// telemetry series (the link benchmark keeps its own).
func newTCPTransport(self dist.ProcID, ln net.Listener, addrs []string, cfg WireConfig, nfault *netfault.Injector, wanInj *wan.Injector, linkPrefix string) *tcpTransport {
	t := &tcpTransport{
		self:   self,
		ln:     ln,
		addrs:  addrs,
		peers:  make([]*tcpPeer, len(addrs)),
		health: make([]*peerHealth, len(addrs)),
		nfault: nfault,
		wan:    wanInj,
		cfg:    cfg,
		stop:   make(chan struct{}),
	}
	for j := range t.peers {
		link := fmt.Sprintf("%s%d->%d", linkPrefix, self, j)
		t.peers[j] = &tcpPeer{
			to:          dist.ProcID(j),
			wake:        make(chan struct{}, 1),
			batchFrames: mWireBatchFrames.With(link),
			batchBytes:  mWireBatchBytes.With(link),
		}
		t.health[j] = &peerHealth{}
	}
	return t
}

// dial (re)establishes the outgoing connection to peer to and sends the
// identifying handshake frame. When the node's endpoint is installed, the
// handshake carries its incarnation epoch and link watermarks, so a redial
// after a crash-restart doubles as the resumption announcement.
func (t *tcpTransport) dial(to dist.ProcID) error {
	conn, err := net.DialTimeout("tcp", t.addrs[to], time.Second)
	if err != nil {
		return err
	}
	if t.nfault != nil {
		// Each mesh connection is simplex (the dialer writes, the acceptor
		// reads), so wrapping the write side here attacks every byte the
		// link carries. The injector keys offsets by link label, not conn,
		// so a redial resumes the fault schedule where the old conn died.
		conn = t.nfault.WrapConn(fmt.Sprintf("%d->%d", t.self, to), conn)
	}
	if t.wan != nil {
		// Outermost on the write path: a write is delayed whole first, then
		// (possibly) corrupted by netfault, so the fault schedule's byte
		// offsets are untouched by shaping.
		conn = t.wan.WrapConn(fmt.Sprintf("%d->%d", t.self, to), conn)
	}
	w := bufio.NewWriter(conn)
	hs := wire.Frame{Type: wire.FrameHandshake, From: t.self}
	if ep := t.ep.Load(); ep != nil {
		hs = ep.HelloFrame(to)
	}
	// The handshake is written synchronously on the still-unpublished conn,
	// so it precedes every batched frame the writer goroutine will emit.
	if err := wire.WriteFrame(w, hs); err == nil {
		err = w.Flush()
	}
	if err != nil {
		_ = conn.Close()
		return err
	}
	p := t.peers[to]
	p.mu.Lock()
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.conn = conn
	p.mu.Unlock()
	return nil
}

// SendFrame hands one frame to the link's writer: the frame is encoded into
// the peer's pending batch and the writer goroutine is nudged; a full batch
// buffer drops the frame (retransmission re-offers it). A link that is down
// kicks off an asynchronous redial with capped backoff and reports the
// error — the caller's retransmission queue owns recovery, so no frame is
// silently dropped.
func (t *tcpTransport) SendFrame(to dist.ProcID, f wire.Frame) error {
	if t.closed.Load() {
		return net.ErrClosed
	}
	if to < 0 || int(to) >= len(t.peers) {
		return fmt.Errorf("runtime: send to unknown node %d", to)
	}
	p := t.peers[to]
	p.mu.Lock()
	if p.conn == nil && !p.dialing {
		p.mu.Unlock()
		t.ensureRedial(to)
		return errLinkDown
	}
	if len(p.pend) >= maxPendBytes {
		p.mu.Unlock()
		return errSendQueueFull
	}
	if p.pend == nil {
		p.pend = wire.GetBuf()
	}
	var err error
	if p.pend, err = wire.AppendFrame(p.pend, f); err != nil {
		p.mu.Unlock()
		return err
	}
	p.nframes++
	p.mu.Unlock()
	select {
	case p.wake <- struct{}{}:
	default: // writer already signalled
	}
	return nil
}

// writeLoop drains one peer's pending batch: it sleeps until a sender nudges
// it, optionally lingers for FlushDeadline so a burst accumulates, then
// flushes whatever is pending in one write. Wakeups cannot be lost: the wake
// channel holds one token, and a sender that finds it full knows the writer
// will observe its frame on the pass the token already guarantees (the batch
// is swapped out under the same lock the sender appended under).
func (t *tcpTransport) writeLoop(p *tcpPeer) {
	defer t.wg.Done()
	for {
		select {
		case <-t.stop:
			return
		case <-p.wake:
		}
		if d := t.cfg.FlushDeadline; d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-t.stop:
				timer.Stop()
				return
			case <-timer.C:
			}
		}
		t.flushPeer(p)
	}
}

// flushPeer swaps the peer's pending batch out and writes it to the live
// connection as one vectored write. When the link is down the batch is
// dropped — the reliable-link layer's retransmission queue re-offers every
// un-acked frame once the redial lands, so dropping here costs latency, not
// delivery.
func (t *tcpTransport) flushPeer(p *tcpPeer) {
	p.mu.Lock()
	if len(p.pend) == 0 {
		p.mu.Unlock()
		return
	}
	raw, nframes := p.pend, p.nframes
	p.pend, p.nframes = nil, 0
	conn := p.conn
	p.mu.Unlock()
	if conn == nil {
		wire.PutBuf(raw)
		if !t.closed.Load() {
			t.ensureRedial(p.to)
		}
		return
	}
	p.batchFrames.Observe(float64(nframes))
	p.batchBytes.Observe(float64(len(raw)))
	bufs := net.Buffers{raw}
	_, err := bufs.WriteTo(conn)
	wire.PutBuf(raw)
	if err == nil {
		return
	}
	// Tear the link down only if it is still the conn we wrote to — a
	// concurrent redial may already have published a fresh one, which this
	// stale failure must not kill.
	p.mu.Lock()
	if p.conn == conn {
		_ = conn.Close()
		p.conn = nil
	}
	p.mu.Unlock()
	if !t.closed.Load() {
		t.linkFaults.Add(1)
		mLinkFaults.Inc()
		t.ensureRedial(p.to)
	}
}

// ensureRedial starts (at most one) background redial loop for the link.
func (t *tcpTransport) ensureRedial(to dist.ProcID) {
	p := t.peers[to]
	p.mu.Lock()
	if p.dialing {
		p.mu.Unlock()
		return
	}
	p.dialing = true
	p.mu.Unlock()
	// Register with the WaitGroup under closeMu: once Close has swapped the
	// closed flag (also under closeMu) it may already be in wg.Wait, and
	// Add-ing then would race the Wait.
	t.closeMu.Lock()
	if t.closed.Load() {
		t.closeMu.Unlock()
		p.mu.Lock()
		p.dialing = false
		p.mu.Unlock()
		return
	}
	t.wg.Add(1)
	t.closeMu.Unlock()
	go func() {
		defer t.wg.Done()
		defer func() {
			p.mu.Lock()
			p.dialing = false
			p.mu.Unlock()
		}()
		backoff := redialInitial
		for !t.closed.Load() {
			if err := t.dial(to); err == nil {
				t.reconnects.Add(1)
				mReconnects.Inc()
				return
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > redialMax {
				backoff = redialMax
			}
		}
	}()
}

// start launches one writer goroutine per outgoing link — writers idle on
// their wake channel, so links that never carry traffic cost one parked
// goroutine each — and the accept loop; each accepted connection must open
// with a handshake frame, after which a reader goroutine decodes frames into
// the node's reliable-link endpoint.
func (t *tcpTransport) start() {
	for j, p := range t.peers {
		if dist.ProcID(j) != t.self {
			t.wg.Add(1)
			go t.writeLoop(p)
		}
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		for {
			conn, err := t.ln.Accept()
			if err != nil {
				return // listener closed
			}
			t.mu.Lock()
			if t.closed.Load() {
				t.mu.Unlock()
				_ = conn.Close()
				return
			}
			t.accepted = append(t.accepted, conn)
			t.mu.Unlock()
			t.wg.Add(1)
			go t.readLoop(conn)
		}
	}()
}

// readLoop consumes one accepted connection: a strict handshake first, then
// data and ack frames through a resynchronizing stream decoder until the
// stream ends. A clean EOF at a frame boundary is an orderly close (peer
// shutdown or replaced connection); a mid-frame cut is a link fault and a
// strike. Corrupt frames inside the stream are classified, counted per link
// and class, charged against the connection's garbage budget, and fed to
// the peer's quarantine state machine — but do not, individually, kill the
// connection: the decoder rescans for the next frame boundary and the
// reliable-link layer retransmits whatever was damaged.
func (t *tcpTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer func() { _ = conn.Close() }()
	r := bufio.NewReader(conn)
	hs, err := wire.ReadFrame(r)
	if err != nil || hs.Type != wire.FrameHandshake {
		// The handshake is read strictly: a corrupted hello leaves the
		// stream unidentified (its From cannot be trusted), so no resume
		// state is touched and no peer is struck — the connection is simply
		// rejected. The dialer redials with a clean handshake carrying the
		// correct seq/ack watermarks.
		if !t.closed.Load() {
			t.linkFaults.Add(1) // garbage before identification
			mLinkFaults.Inc()
		}
		return
	}
	if hs.From < 0 || int(hs.From) >= len(t.health) {
		t.linkFaults.Add(1)
		mLinkFaults.Inc()
		return
	}
	h := t.health[hs.From]
	if !h.admit(t) {
		return // quarantine backoff running: reject the connection
	}
	// The handshake is forwarded to the endpoint too: it carries the peer's
	// incarnation epoch and ack watermark, which drive queue trimming and
	// retransmission rewind after the peer restarts.
	if ep := t.ep.Load(); ep != nil {
		ep.OnFrame(hs)
	}
	link := fmt.Sprintf("%d->%d", hs.From, t.self)
	dec := wire.NewStreamDecoder(r, connGarbageBudget)
	dec.OnFault = func(class string, _ int64) {
		t.corruptFrames.Add(1)
		mWireCorruptFrames.With(link, class).Inc()
		h.strike(t)
	}
	for {
		f, err := dec.Next()
		if err != nil {
			if errors.Is(err, io.EOF) || t.closed.Load() {
				return // orderly close (or our own shutdown races the read)
			}
			t.linkFaults.Add(1)
			mLinkFaults.Inc()
			if errors.Is(err, wire.ErrGarbageBudget) {
				// The connection exhausted its inbound corruption budget:
				// quarantine without waiting for the strike counter.
				h.quarantineNow(t)
			} else {
				// Mid-frame cut (connection reset or truncation): a strike,
				// and the peer's dialer redials.
				h.strike(t)
			}
			return
		}
		if h.quarantined() {
			return // strike budget crossed mid-stream: tear the conn down
		}
		h.goodFrame()
		if ep := t.ep.Load(); ep != nil {
			ep.OnFrame(f)
		}
	}
}

// breakLinks forcibly closes every live connection of this node — outgoing
// and accepted — without shutting the transport down. Used by tests to
// simulate a network element failure; subsequent traffic must trigger
// redials and retransmissions.
func (t *tcpTransport) breakLinks() {
	for _, p := range t.peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
			p.conn = nil
		}
		p.mu.Unlock()
	}
	t.mu.Lock()
	accepted := t.accepted
	t.accepted = nil
	t.mu.Unlock()
	for _, conn := range accepted {
		_ = conn.Close()
	}
}

// Close shuts the listener and all connections down and waits for the
// reader and redial goroutines to exit.
func (t *tcpTransport) Close() error {
	t.closeMu.Lock()
	already := t.closed.Swap(true)
	t.closeMu.Unlock()
	if already {
		return nil
	}
	close(t.stop) // parks every per-peer writer
	_ = t.ln.Close()
	// Accepted connections too: their reader goroutines would otherwise block
	// until the remote side shuts down, deadlocking the wg.Wait below.
	t.breakLinks()
	t.wg.Wait()
	return nil
}
