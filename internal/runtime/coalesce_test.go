package runtime

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/netfault"
	"chc/internal/rlink"
	"chc/internal/wire"
)

// memConn is an in-memory net.Conn sink that records everything written to
// it — the "receiver's view" of one simplex link.
type memConn struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *memConn) Read([]byte) (int, error) { return 0, io.EOF }
func (c *memConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}
func (c *memConn) Close() error                     { return nil }
func (c *memConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }
func (c *memConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// coalesceTestFrames builds a realistic multi-KiB frame sequence.
func coalesceTestFrames(t *testing.T) [][]byte {
	t.Helper()
	var frames [][]byte
	for i := 0; i < 64; i++ {
		verts := make([]geom.Point, 4+(i%8))
		for j := range verts {
			verts[j] = geom.NewPoint(float64(i), float64(j), float64(i*j))
		}
		f := wire.Frame{
			Type: wire.FrameData, From: 0, Seq: uint64(i),
			Msg: dist.Message{From: 0, To: 1, Kind: "state", Round: i, Payload: wire.PolytopePayload{Verts: verts}},
		}
		b, err := wire.AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	return frames
}

// TestNetFaultChunkingIndependence pins the property the coalescing writer
// depends on: the injector's mutation fates (flip, garbage, lenmut) target
// absolute byte offsets of the link stream, so the corrupted stream a
// receiver observes is identical whether the writer emits frames one write
// at a time (the old single-frame path) or as one batched vectored write
// (the coalesced path). Same seed, same link, same bytes in — same bytes
// out.
func TestNetFaultChunkingIndependence(t *testing.T) {
	plan := netfault.Plan{
		Seed:        31,
		FlipProb:    0.30,
		GarbageProb: 0.20,
		LenMutProb:  0.10,
		WindowBytes: 32,
	}
	frames := coalesceTestFrames(t)

	// Writer A: one Write call per frame.
	connA := &memConn{}
	injA := netfault.New(plan)
	wA := injA.WrapConn("0->1", connA)
	for _, f := range frames {
		if _, err := wA.Write(f); err != nil {
			t.Fatal(err)
		}
	}

	// Writer B: the whole sequence as a single vectored write, exactly as
	// flushPeer emits a coalesced batch.
	connB := &memConn{}
	injB := netfault.New(plan)
	wB := injB.WrapConn("0->1", connB)
	var batch []byte
	for _, f := range frames {
		batch = append(batch, f...)
	}
	if _, err := (&net.Buffers{batch}).WriteTo(wB); err != nil {
		t.Fatal(err)
	}

	a, b := connA.bytes(), connB.bytes()
	if !bytes.Equal(a, b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Fatalf("corrupted streams diverge at offset %d (lens %d vs %d): fault schedule is chunking-dependent", i, len(a), len(b))
	}
	if injA.Stats().Flips == 0 && injA.Stats().Garbage == 0 && injA.Stats().LenMuts == 0 {
		t.Fatal("plan injected nothing; the equivalence was vacuous")
	}
	if sa, sb := injA.Stats(), injB.Stats(); sa.Flips != sb.Flips || sa.LenMuts != sb.LenMuts {
		t.Errorf("fault counts diverge across chunkings: %+v vs %+v", sa, sb)
	}
}

// TestCoalescedWireComposesWithNetFaults runs the full gather protocol with
// the coalescing writer on a deadline and a corrupting wire below it — the
// layers must compose: faults land on the batched byte stream, CRC rejection
// and retransmission absorb them, and every process still hears everyone.
func TestCoalescedWireComposesWithNetFaults(t *testing.T) {
	const n = 4
	procs, impl := newGatherProcs(n)
	plan := netfault.Flaky()
	plan.Seed = 77
	plan.AfterBytes = 0
	plan.WindowBytes = 64
	plan.FlipProb = 0.05
	c, err := NewTCPCluster(procs, Config{Env: Env{
		NetFaults: &plan,
		Wire:      &WireConfig{FlushDeadline: 200 * time.Microsecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if got := p.heardCount(); got < n {
			t.Errorf("process %d heard %d, want %d", i, got, n)
		}
	}
	st := c.Stats()
	if st.Net.InjectedWire == 0 {
		t.Error("plan injected nothing; coalescing+netfault composition untested")
	}
	if st.Sends != n*(n-1) {
		t.Errorf("protocol sends = %d, want %d", st.Sends, n*(n-1))
	}
}

// TestCoalescedLinkExactlyOnceFIFOBounds drives one directed production link
// — rlink over the coalescing writer — with a deliberately tiny transmission
// window and reorder bound, and checks the reliability contract survives
// batching: every message arrives exactly once, in order, and the window
// bound actually engaged (sends past it were withheld, not lost).
func TestCoalescedLinkExactlyOnceFIFOBounds(t *testing.T) {
	const total = 1000
	var mu sync.Mutex
	var got []int64
	done := make(chan struct{})
	deliver := func(m dist.Message) error {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, m.Payload.(wire.IntPayload).Value)
		if len(got) == total {
			close(done)
		}
		return nil
	}
	pair, err := newLinkBenchPair(
		WireConfig{FlushDeadline: 100 * time.Microsecond},
		rlink.Config{MaxInflight: 8, MaxReorder: 16},
		deliver)
	if err != nil {
		t.Fatal(err)
	}
	defer pair.close()

	for i := 0; i < total; i++ {
		if err := pair.src.Send(dist.Message{From: 0, To: 1, Kind: "seq", Payload: wire.IntPayload{Value: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("link stalled: %d/%d delivered", len(got), total)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != total {
		t.Fatalf("delivered %d, want exactly %d", len(got), total)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("delivery %d carried payload %d: FIFO order broken", i, v)
		}
	}
	if st := pair.src.Stats(); st.WindowWithheld == 0 {
		t.Errorf("MaxInflight=8 never withheld a send out of %d: the bound did not engage", total)
	}
}
