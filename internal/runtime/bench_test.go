package runtime

import (
	"net"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/rlink"
	"chc/internal/wire"
)

const (
	// linkBenchPayloadPoints is the vertex count of the three-dimensional
	// polytope payload each message carries — a realistic round-state size.
	linkBenchPayloadPoints = 8
	// linkBenchWindow caps sender-side in-flight messages (sent minus
	// delivered). It keeps the sender saturating the link without piling the
	// whole of b.N into the retransmission queue and the coalescing buffer at
	// once.
	linkBenchWindow = 1024
)

// BenchmarkSaturatedLink saturates one directed link of a real two-node TCP
// pair on the default write path (coalescing, flush on wakeup, no
// compression).
func BenchmarkSaturatedLink(b *testing.B) { benchSaturatedLink(b, WireConfig{}) }

// BenchmarkSaturatedLinkCompressed negotiates FlagCompress, so batches travel
// as flate FrameBatch envelopes: it tracks the compression tax (CPU per
// message) against the coalesced plain path.
func BenchmarkSaturatedLinkCompressed(b *testing.B) {
	benchSaturatedLink(b, WireConfig{Compress: true})
}

// benchSaturatedLink drives one directed link of a real two-node TCP pair —
// the full production stack: rlink endpoint, coalescing writer, wire codec,
// loopback TCP, stream decoder — at saturation and reports msgs/sec,
// bytes/sec and p99 end-to-end delivery latency. One benchmark op is one
// message delivered exactly-once in FIFO order, so ns/op is the per-message
// cost.
func benchSaturatedLink(b *testing.B, wc WireConfig) {
	verts := make([]geom.Point, linkBenchPayloadPoints)
	for i := range verts {
		verts[i] = geom.Point{float64(i), float64(i) * 0.5, float64(i) * 0.25}
	}
	msg := dist.Message{From: 0, To: 1, Kind: "bench", Payload: wire.PolytopePayload{Verts: verts}}
	frameBytes := wire.FrameSize(wire.Frame{Type: wire.FrameData, From: 0, Msg: msg})

	sendTimes := make([]int64, b.N)
	recvLat := make([]int64, b.N)
	var delivered atomic.Int64
	done := make(chan struct{})
	onDeliver := func(dist.Message) error {
		// Exactly-once FIFO: the i-th delivery is the i-th send.
		i := delivered.Load()
		if int(i) < b.N {
			recvLat[i] = time.Now().UnixNano() - atomic.LoadInt64(&sendTimes[i])
		}
		if delivered.Add(1) == int64(b.N) {
			close(done)
		}
		return nil
	}
	pair, err := newLinkBenchPair(wc, rlink.Config{}, onDeliver)
	if err != nil {
		b.Fatal(err)
	}
	defer pair.close()

	b.ReportAllocs()
	b.SetBytes(int64(frameBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Throttle on the delivery watermark, not acks: it bounds both the
		// retransmission queue and the coalescing buffer.
		for int64(i)-delivered.Load() >= linkBenchWindow {
			time.Sleep(20 * time.Microsecond)
		}
		atomic.StoreInt64(&sendTimes[i], time.Now().UnixNano())
		if err := pair.src.Send(msg); err != nil {
			b.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		b.Fatalf("saturated link stalled: %d/%d delivered", delivered.Load(), b.N)
	}
	b.StopTimer()

	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "msgs/sec")
		b.ReportMetric(float64(b.N)*float64(frameBytes)/elapsed, "bytes/sec")
	}
	sort.Slice(recvLat, func(i, j int) bool { return recvLat[i] < recvLat[j] })
	if b.N > 0 {
		idx := (99*b.N + 99) / 100
		if idx >= b.N {
			idx = b.N - 1
		}
		b.ReportMetric(float64(recvLat[idx]), "p99-latency-ns")
	}
}

// linkBenchPair is a minimal two-node production transport: listeners,
// tcpTransports with the configured write path, and rlink endpoints — the
// same stack NewTCPCluster assembles, without processes or mailboxes.
type linkBenchPair struct {
	src, dst *rlink.Endpoint
	trans    [2]*tcpTransport
}

func newLinkBenchPair(wc WireConfig, rc rlink.Config, deliver func(dist.Message) error) (*linkBenchPair, error) {
	pair := &linkBenchPair{}
	var addrs [2]string
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range pair.trans {
		pair.trans[i] = newTCPTransport(dist.ProcID(i), lns[i], addrs[:], wc, nil, nil, "bench:")
	}
	discard := func(dist.Message) error { return nil }
	pair.src = rlink.New(0, 2, pair.trans[0], discard, rc)
	pair.dst = rlink.New(1, 2, pair.trans[1], deliver, rc)
	pair.trans[0].ep.Store(pair.src)
	pair.trans[1].ep.Store(pair.dst)
	for _, t := range pair.trans {
		t.start()
	}
	for i, t := range pair.trans {
		if err := t.dial(dist.ProcID(1 - i)); err != nil {
			pair.close()
			return nil, err
		}
	}
	return pair, nil
}

func (p *linkBenchPair) close() {
	if p.src != nil {
		_ = p.src.Close()
	}
	if p.dst != nil {
		_ = p.dst.Close()
	}
	for _, t := range p.trans {
		if t != nil {
			_ = t.Close()
		}
	}
}
