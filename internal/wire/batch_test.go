package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

// encodeAll concatenates the encodings of frames, as the coalescing writer
// does.
func encodeAll(t *testing.T, frames []Frame) []byte {
	t.Helper()
	var raw []byte
	for _, f := range frames {
		var err error
		if raw, err = AppendFrame(raw, f); err != nil {
			t.Fatal(err)
		}
	}
	return raw
}

func TestBatchRoundTrip(t *testing.T) {
	want := streamFrames()
	env, err := AppendBatchFrame(nil, encodeAll(t, want))
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(env), 0)
	d.SetCompressed(true)
	d.OnFault = func(class string, n int64) { t.Errorf("fault %q (%d bytes) on a clean batch", class, n) }
	for i, w := range want {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || got.From != w.From || got.Seq != w.Seq {
			t.Errorf("frame %d: got %+v want %+v", i, got, w)
		}
		if w.Type == FrameData && got.Msg.Kind != w.Msg.Kind {
			t.Errorf("frame %d: kind %q want %q", i, got.Msg.Kind, w.Msg.Kind)
		}
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want clean EOF after the batch, got %v", err)
	}
}

// TestBatchNotNegotiatedIsCorruption: a FrameBatch envelope on a connection
// that never announced FlagCompress must be charged as corruption and
// skipped, and the frames behind it must still decode.
func TestBatchNotNegotiatedIsCorruption(t *testing.T) {
	inner := streamFrames()
	env, err := AppendBatchFrame(nil, encodeAll(t, inner[:2]))
	if err != nil {
		t.Fatal(err)
	}
	tail, err := AppendFrame(nil, Frame{Type: FrameAck, From: 3, Seq: 99})
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(append(env, tail...)), 0)
	var faults int
	d.OnFault = func(class string, n int64) {
		faults++
		if class != ClassCorrupt {
			t.Errorf("fault class %q, want %q", class, ClassCorrupt)
		}
		if n != int64(len(env)) {
			t.Errorf("charged %d bytes, want the whole %d-byte envelope", n, len(env))
		}
	}
	got, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != FrameAck || got.Seq != 99 {
		t.Errorf("frame after rejected batch: %+v", got)
	}
	if faults != 1 {
		t.Errorf("faults = %d, want 1", faults)
	}
}

// TestBatchSingleFrameContextRejected: FrameBatch must not decode via the
// strict single-frame entry points (DecodeFrame/ReadFrame), nor nested
// inside another batch.
func TestBatchSingleFrameContextRejected(t *testing.T) {
	env, err := AppendBatchFrame(nil, encodeAll(t, streamFrames()[:1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFrame(env); !errors.Is(err, ErrCorrupt) {
		t.Errorf("DecodeFrame(batch) = %v, want ErrCorrupt", err)
	}
	nested, err := AppendBatchFrame(nil, env) // batch containing a batch
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(nested), 0)
	d.SetCompressed(true)
	var faults int
	d.OnFault = func(string, int64) { faults++ }
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("nested batch: want EOF after skip, got %v", err)
	}
	if faults != 1 {
		t.Errorf("nested batch charged %d faults, want 1", faults)
	}
}

// TestBatchLengthLies: a batch whose rawLen field disagrees with the actual
// inflated size (both directions) is rejected as corruption, whole-frame.
func TestBatchLengthLies(t *testing.T) {
	env, err := AppendBatchFrame(nil, encodeAll(t, streamFrames()))
	if err != nil {
		t.Fatal(err)
	}
	for name, delta := range map[string]int32{"short": -1, "long": 1} {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), env...)
			// rawLen sits right after the type byte of the body.
			off := FrameHeaderLen + 1
			binary.BigEndian.PutUint32(bad[off:], uint32(int32(binary.BigEndian.Uint32(bad[off:]))+delta))
			// Refresh the envelope CRC so only the inner inconsistency remains.
			body := bad[FrameHeaderLen:]
			binary.BigEndian.PutUint32(bad[6:], crc32.Checksum(body, castagnoli))
			d := NewStreamDecoder(bytes.NewReader(bad), 0)
			d.SetCompressed(true)
			var faults int
			d.OnFault = func(string, int64) { faults++ }
			if _, err := d.Next(); !errors.Is(err, io.EOF) {
				t.Errorf("want EOF after skipping the lying batch, got %v", err)
			}
			if faults != 1 {
				t.Errorf("faults = %d, want 1", faults)
			}
		})
	}
}

// TestBatchClaimedSizeBounded: a hostile rawLen above MaxFrameLen must be
// rejected before any allocation-sized-by-it happens.
func TestBatchClaimedSizeBounded(t *testing.T) {
	body := make([]byte, 5)
	body[0] = FrameBatch
	binary.BigEndian.PutUint32(body[1:], MaxFrameLen+1)
	env := make([]byte, FrameHeaderLen+len(body))
	env[0] = FrameMagic
	env[1] = FrameVersion
	binary.BigEndian.PutUint32(env[2:], uint32(len(body)))
	binary.BigEndian.PutUint32(env[6:], crc32.Checksum(body, castagnoli))
	copy(env[FrameHeaderLen:], body)
	d := NewStreamDecoder(bytes.NewReader(env), 0)
	d.SetCompressed(true)
	var cls string
	d.OnFault = func(class string, _ int64) { cls = class }
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want EOF after skipping the bomb, got %v", err)
	}
	if cls != ClassTooLarge {
		t.Errorf("fault class %q, want %q", cls, ClassTooLarge)
	}
}

// TestBatchCorruptionResync: flipping a byte inside the compressed payload
// breaks the envelope CRC; the decoder must resynchronize onto the next
// frame and deliver it.
func TestBatchCorruptionResync(t *testing.T) {
	env, err := AppendBatchFrame(nil, encodeAll(t, streamFrames()))
	if err != nil {
		t.Fatal(err)
	}
	env[len(env)/2] ^= 0x41
	tail, err := AppendFrame(nil, Frame{Type: FrameAck, From: 1, Seq: 7})
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(append(env, tail...)), 0)
	d.SetCompressed(true)
	var faults int
	d.OnFault = func(string, int64) { faults++ }
	got, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != FrameAck || got.Seq != 7 {
		t.Errorf("frame after corrupt batch: %+v", got)
	}
	if faults == 0 {
		t.Error("corrupt batch produced no faults")
	}
}

// bigDataFrame builds a FrameData whose encoded payload is at least 4 KiB —
// the regression size from the issue (the old EncodeFrame guessed 32 bytes
// and regrew the slice for every large payload).
func bigDataFrame() Frame {
	verts := make([]geom.Point, 200) // 200 * (2 + 3*8) = 5200 body bytes
	for i := range verts {
		verts[i] = geom.NewPoint(float64(i), float64(2*i), float64(3*i))
	}
	return Frame{
		Type: FrameData, From: 1, Seq: 42,
		Msg: dist.Message{From: 1, To: 2, Kind: "state", Round: 3, Payload: PolytopePayload{Verts: verts}},
	}
}

// TestAppendFrameZeroAllocs pins the tentpole's encode guarantee: appending a
// >= 4 KiB-payload frame into a reused buffer performs zero allocations in
// steady state.
func TestAppendFrameZeroAllocs(t *testing.T) {
	f := bigDataFrame()
	buf, err := AppendFrame(nil, f) // warm the buffer to capacity
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < 4<<10 {
		t.Fatalf("frame is %d bytes; the regression test wants >= 4 KiB", len(buf))
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendFrame(buf[:0], f)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendFrame into a reused buffer: %.1f allocs/op, want 0", allocs)
	}
}

// TestWriteFrameSteadyStateAllocs pins the pooled write path: WriteFrame's
// per-frame garbage must not scale with payload size (the pool supplies the
// encode buffer; only the Put's slice-header boxing may allocate).
func TestWriteFrameSteadyStateAllocs(t *testing.T) {
	f := bigDataFrame()
	if err := WriteFrame(io.Discard, f); err != nil { // warm the pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("WriteFrame steady state: %.1f allocs/op, want <= 2", allocs)
	}
}

// TestStreamDecoderFillNoChunkAllocs pins the zero-copy read path: decoding a
// long clean stream must not allocate per-read chunks (the old fill()
// allocated 32 KiB per Read call). Per-frame message decoding still
// allocates (the Frame owns its payload); the regression bound is that
// total bytes allocated per frame stay far below the old chunk size.
func TestStreamDecoderFillNoChunkAllocs(t *testing.T) {
	frames := streamFrames()
	var buf bytes.Buffer
	const rounds = 64
	for i := 0; i < rounds; i++ {
		for _, f := range frames {
			if err := WriteFrame(&buf, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := NewStreamDecoder(bytes.NewReader(buf.Bytes()), 0)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	n := 0
	for {
		_, err := d.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	runtime.ReadMemStats(&ms1)
	if n != rounds*len(frames) {
		t.Fatalf("decoded %d frames, want %d", n, rounds*len(frames))
	}
	perFrame := float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
	if perFrame > 4096 {
		t.Errorf("stream decode allocated %.0f bytes/frame; the pre-ring decoder paid ~32 KiB/Read", perFrame)
	}
}

// TestStreamDecoderFramesDoNotAliasRing: a decoded frame must own its
// payload — mutating the decoder's internal buffer after Next returns must
// not change the frame (ring slices are recycled on the following read).
func TestStreamDecoderFramesDoNotAliasRing(t *testing.T) {
	f := bigDataFrame()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(buf.Bytes()), 0)
	got, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.buf {
		d.buf[i] = 0xFF
	}
	verts := got.Msg.Payload.(PolytopePayload).Verts
	want := f.Msg.Payload.(PolytopePayload).Verts
	for i := range want {
		for j := range want[i] {
			if verts[i][j] != want[i][j] {
				t.Fatalf("vertex %d[%d] = %v after ring scribble, want %v (frame aliases the ring)", i, j, verts[i][j], want[i][j])
			}
		}
	}
	if got.Msg.Kind != "state" {
		t.Fatalf("kind %q after ring scribble (string aliases the ring)", got.Msg.Kind)
	}
}
