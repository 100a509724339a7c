package rlink

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/wire"
)

// lossyNet connects endpoints in-process and deterministically drops every
// dropNth frame (data and acks alike), counting across all links.
type lossyNet struct {
	mu      sync.Mutex
	eps     map[dist.ProcID]*Endpoint
	dropNth int
	offered int
	dropped int
}

type lossySender struct{ net *lossyNet }

func (s *lossySender) SendFrame(to dist.ProcID, f wire.Frame) error {
	s.net.mu.Lock()
	s.net.offered++
	drop := s.net.dropNth > 0 && s.net.offered%s.net.dropNth == 0
	if drop {
		s.net.dropped++
	}
	ep := s.net.eps[to]
	s.net.mu.Unlock()
	if drop || ep == nil {
		return nil
	}
	ep.OnFrame(f)
	return nil
}

// collector records delivered messages.
type collector struct {
	mu   sync.Mutex
	msgs []dist.Message
}

func (c *collector) deliver(m dist.Message) error {
	c.mu.Lock()
	c.msgs = append(c.msgs, m)
	c.mu.Unlock()
	return nil
}

func (c *collector) snapshot() []dist.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]dist.Message(nil), c.msgs...)
}

func fastConfig() Config {
	return Config{
		RetransmitInitial: time.Millisecond,
		RetransmitMax:     20 * time.Millisecond,
		Tick:              500 * time.Microsecond,
		Seed:              7,
	}
}

// TestLossyLinkExactlyOnceFIFO pushes a message stream through a link that
// drops every third frame and requires exactly-once, in-order delivery.
func TestLossyLinkExactlyOnceFIFO(t *testing.T) {
	net := &lossyNet{eps: map[dist.ProcID]*Endpoint{}, dropNth: 3}
	var got collector
	a := New(0, 2, &lossySender{net}, func(dist.Message) error { return nil }, fastConfig())
	b := New(1, 2, &lossySender{net}, got.deliver, fastConfig())
	net.mu.Lock()
	net.eps[0], net.eps[1] = a, b
	net.mu.Unlock()
	defer func() { _ = a.Close(); _ = b.Close() }()

	const total = 200
	for i := 0; i < total; i++ {
		if err := a.Send(dist.Message{From: 0, To: 1, Kind: "seq", Round: i}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(got.snapshot()) == total && a.Pending() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	msgs := got.snapshot()
	if len(msgs) != total {
		t.Fatalf("delivered %d messages, want %d", len(msgs), total)
	}
	for i, m := range msgs {
		if m.Round != i {
			t.Fatalf("message %d has round %d: FIFO order violated", i, m.Round)
		}
	}
	if a.Pending() != 0 {
		t.Errorf("sender still has %d unacked frames", a.Pending())
	}
	st := a.Stats()
	if st.Retransmits == 0 {
		t.Error("no retransmits despite a lossy link")
	}
	net.mu.Lock()
	dropped := net.dropped
	net.mu.Unlock()
	if dropped == 0 {
		t.Error("the lossy net dropped nothing; test is vacuous")
	}
	if bs := b.Stats(); bs.DupSuppressed == 0 {
		// Dropped acks force retransmissions of already-delivered frames,
		// which the receiver must suppress.
		t.Errorf("expected duplicate suppression, stats = %+v", bs)
	}
}

// TestReorderBuffer feeds frames out of order straight into an endpoint and
// checks in-order delivery plus the out-of-order counter.
func TestReorderBuffer(t *testing.T) {
	var got collector
	var acks collector
	ackRec := senderFunc(func(to dist.ProcID, f wire.Frame) error {
		if f.Type == wire.FrameAck {
			acks.deliver(dist.Message{To: to, Round: int(f.Seq)})
		}
		return nil
	})
	b := New(1, 2, ackRec, got.deliver, fastConfig())
	defer func() { _ = b.Close() }()

	mk := func(seq uint64) wire.Frame {
		return wire.Frame{Type: wire.FrameData, From: 0, Seq: seq,
			Msg: dist.Message{From: 0, To: 1, Kind: "x", Round: int(seq)}}
	}
	b.OnFrame(mk(2))
	b.OnFrame(mk(1))
	if len(got.snapshot()) != 0 {
		t.Fatalf("delivered %d messages before the gap closed", len(got.snapshot()))
	}
	b.OnFrame(mk(0))
	msgs := got.snapshot()
	if len(msgs) != 3 {
		t.Fatalf("delivered %d, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.Round != i {
			t.Errorf("position %d got seq %d", i, m.Round)
		}
	}
	st := b.Stats()
	if st.OutOfOrder != 2 {
		t.Errorf("OutOfOrder = %d, want 2", st.OutOfOrder)
	}
	// Duplicate of an already-delivered frame: suppressed but re-acked.
	b.OnFrame(mk(1))
	if st := b.Stats(); st.DupSuppressed != 1 {
		t.Errorf("DupSuppressed = %d, want 1", st.DupSuppressed)
	}
	if len(got.snapshot()) != 3 {
		t.Error("duplicate was delivered")
	}
	if len(acks.snapshot()) == 0 {
		t.Error("no acks emitted")
	}
}

type senderFunc func(to dist.ProcID, f wire.Frame) error

func (fn senderFunc) SendFrame(to dist.ProcID, f wire.Frame) error { return fn(to, f) }

// TestDeliverFailureWithholdsAck pins the durability contract of the deliver
// callback: a rejected delivery (the recovery runtime failing to journal)
// stays buffered, the receive cursor and cumulative ack do not advance past
// it, and a later retransmission retries it and drains in order.
func TestDeliverFailureWithholdsAck(t *testing.T) {
	var acks collector
	ackRec := senderFunc(func(to dist.ProcID, f wire.Frame) error {
		if f.Type == wire.FrameAck {
			_ = acks.deliver(dist.Message{To: to, Round: int(f.Seq)})
		}
		return nil
	})
	var got collector
	reject := true
	deliver := func(m dist.Message) error {
		if reject && m.Round == 1 {
			return fmt.Errorf("journal unavailable")
		}
		return got.deliver(m)
	}
	b := New(1, 2, ackRec, deliver, fastConfig())
	defer func() { _ = b.Close() }()

	mk := func(seq uint64) wire.Frame {
		return wire.Frame{Type: wire.FrameData, From: 0, Seq: seq,
			Msg: dist.Message{From: 0, To: 1, Kind: "x", Round: int(seq)}}
	}
	lastAck := func() int {
		a := acks.snapshot()
		if len(a) == 0 {
			return -1
		}
		return a[len(a)-1].Round
	}
	b.OnFrame(mk(0))
	if n := len(got.snapshot()); n != 1 {
		t.Fatalf("delivered %d, want 1", n)
	}
	if lastAck() != 0 {
		t.Fatalf("ack after seq 0 = %d, want 0", lastAck())
	}
	b.OnFrame(mk(1)) // delivery rejected: must stay unacked and undelivered
	b.OnFrame(mk(2)) // blocked behind the rejected message
	if n := len(got.snapshot()); n != 1 {
		t.Fatalf("delivered %d past a rejected delivery, want 1", n)
	}
	if lastAck() != 0 {
		t.Fatalf("ack advanced to %d past a rejected delivery, want 0", lastAck())
	}
	reject = false
	b.OnFrame(mk(1)) // retransmission retries the delivery and drains the gap
	msgs := got.snapshot()
	if len(msgs) != 3 {
		t.Fatalf("delivered %d after retry, want 3", len(msgs))
	}
	for i, m := range msgs {
		if m.Round != i {
			t.Fatalf("position %d got seq %d: FIFO order violated across retry", i, m.Round)
		}
	}
	if lastAck() != 2 {
		t.Errorf("ack after retry = %d, want 2", lastAck())
	}
	if st := b.Stats(); st.DupSuppressed == 0 {
		t.Errorf("retransmission of the buffered message should count as suppressed duplicate, stats = %+v", st)
	}
}

// TestLostTailHeldAcksClaimOnlyDurable pins the output-commit side of the
// receive path. An endpoint that holds acks accepts deliveries (the cursor
// moves, FIFO order is unchanged) but every place it exports that cursor as
// a durability claim — the cumulative ack, the handshake's watermark, the
// re-ack a peer's handshake provokes, a resumed endpoint's first hello —
// stays at the durable watermark, which only AdvanceDurable moves, and only
// up to cursors captured before the owner's fsync began. Were any of them to
// export the cursor itself, a crash that loses the unsynced tail would leave
// the peer having trimmed frames the node never durably received.
func TestLostTailHeldAcksClaimOnlyDurable(t *testing.T) {
	var acks collector
	ackRec := senderFunc(func(to dist.ProcID, f wire.Frame) error {
		if f.Type == wire.FrameAck {
			_ = acks.deliver(dist.Message{To: to, Round: int(f.Seq)})
		}
		return nil
	})
	var got collector
	b := New(1, 2, ackRec, got.deliver, fastConfig())
	b.HoldAcks()
	defer func() { _ = b.Close() }()

	mk := func(seq uint64) wire.Frame {
		return wire.Frame{Type: wire.FrameData, From: 0, Seq: seq,
			Msg: dist.Message{From: 0, To: 1, Kind: "x", Round: int(seq)}}
	}
	ackSeqs := func() []int {
		var out []int
		for _, a := range acks.snapshot() {
			out = append(out, a.Round)
		}
		return out
	}
	expectAcks := func(when string, want ...int) {
		t.Helper()
		if got := ackSeqs(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: acks sent = %v, want %v", when, got, want)
		}
	}

	for seq := uint64(0); seq < 3; seq++ {
		b.OnFrame(mk(seq))
	}
	if n := len(got.snapshot()); n != 3 {
		t.Fatalf("delivered %d, want 3: holding acks must not hold deliveries", n)
	}
	expectAcks("after three undurable deliveries")
	if hs := b.HelloFrame(0); hs.Ack != 0 {
		t.Fatalf("handshake claims %d received with nothing durable", hs.Ack)
	}
	b.OnFrame(wire.Frame{Type: wire.FrameHandshake, From: 0, Epoch: 1})
	expectAcks("after a peer handshake with nothing durable")
	b.OnFrame(mk(1)) // the sender retries: delivered, not durable — still no ack
	expectAcks("after a retransmission of an undurable frame")

	// The owner commits: cursors first, then (while its fsync runs) another
	// delivery arrives, then the advance. The late delivery is not claimed.
	cursors := b.RecvCursors(nil)
	b.OnFrame(mk(3))
	if lagging := b.AdvanceDurable(cursors); !lagging {
		t.Error("AdvanceDurable reported no lag with seq 3 still above the watermark")
	}
	expectAcks("after the commit", 2)
	if hs := b.HelloFrame(0); hs.Ack != 3 {
		t.Fatalf("handshake claims %d received, want the durable 3 (cursor is 4)", hs.Ack)
	}
	b.OnFrame(wire.Frame{Type: wire.FrameHandshake, From: 0, Epoch: 2})
	expectAcks("after a peer handshake", 2, 2)
	b.OnFrame(mk(0)) // a duplicate below the watermark means an ack was lost
	expectAcks("after a duplicate of a durable frame", 2, 2, 2)
	b.OnFrame(mk(3))
	expectAcks("after a duplicate of the undurable frame", 2, 2, 2)
	if lagging := b.AdvanceDurable(b.RecvCursors(nil)); lagging {
		t.Error("AdvanceDurable reported lag with every delivery covered")
	}
	expectAcks("after the second commit", 2, 2, 2, 3)

	// A resumed endpoint's journal is its durable watermark.
	r, err := NewResumed(1, 2, ackRec, got.deliver, fastConfig(), ResumeState{
		Epoch: 1, RecvNext: []uint64{7, 0}, Out: make([][]dist.Message, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.HoldAcks()
	defer func() { _ = r.Close() }()
	r.OnFrame(wire.Frame{Type: wire.FrameData, From: 0, Seq: 7, Msg: dist.Message{From: 0, To: 1, Kind: "x"}})
	if hs := r.HelloFrame(0); hs.Ack != 7 {
		t.Fatalf("resumed handshake claims %d received, want the journaled 7", hs.Ack)
	}
}

// TestSendAfterClose verifies the endpoint refuses new work once closed.
func TestSendAfterClose(t *testing.T) {
	e := New(0, 2, senderFunc(func(dist.ProcID, wire.Frame) error { return nil }),
		func(dist.Message) error { return nil }, Config{})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Send(dist.Message{From: 0, To: 1}); err == nil {
		t.Error("Send after Close should fail")
	}
	// OnFrame after close must be a safe no-op (late frames from readers).
	e.OnFrame(wire.Frame{Type: wire.FrameData, From: 1, Seq: 0})
	if err := e.Close(); err != nil {
		t.Error("double Close should be idempotent")
	}
}

// TestSendUnknownPeer verifies target validation.
func TestSendUnknownPeer(t *testing.T) {
	e := New(0, 2, senderFunc(func(dist.ProcID, wire.Frame) error { return nil }),
		func(dist.Message) error { return nil }, Config{})
	defer func() { _ = e.Close() }()
	if err := e.Send(dist.Message{From: 0, To: 7}); err == nil {
		t.Error("send to unknown peer should fail")
	}
}

// TestManyLinksConcurrent exercises one endpoint fanning out to several
// peers concurrently under loss (run with -race).
func TestManyLinksConcurrent(t *testing.T) {
	const n = 4
	net := &lossyNet{eps: map[dist.ProcID]*Endpoint{}, dropNth: 4}
	cols := make([]collector, n)
	eps := make([]*Endpoint, n)
	for i := 0; i < n; i++ {
		i := i
		eps[i] = New(dist.ProcID(i), n, &lossySender{net}, cols[i].deliver, fastConfig())
	}
	net.mu.Lock()
	for i := 0; i < n; i++ {
		net.eps[dist.ProcID(i)] = eps[i]
	}
	net.mu.Unlock()
	defer func() {
		for _, e := range eps {
			_ = e.Close()
		}
	}()

	const per = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				for j := 0; j < n; j++ {
					if j == i {
						continue
					}
					_ = eps[i].Send(dist.Message{From: dist.ProcID(i), To: dist.ProcID(j),
						Kind: fmt.Sprintf("from%d", i), Round: k})
				}
			}
		}()
	}
	wg.Wait()
	want := per * (n - 1)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := range cols {
			if len(cols[i].snapshot()) != want {
				all = false
				break
			}
		}
		if all {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := range cols {
		msgs := cols[i].snapshot()
		if len(msgs) != want {
			t.Fatalf("node %d delivered %d, want %d", i, len(msgs), want)
		}
		// Per-sender FIFO: rounds from each sender must be non-decreasing.
		last := map[dist.ProcID]int{}
		for _, m := range msgs {
			if prev, ok := last[m.From]; ok && m.Round < prev {
				t.Fatalf("node %d: sender %d went backwards (%d after %d)", i, m.From, m.Round, prev)
			}
			last[m.From] = m.Round
		}
	}
}
