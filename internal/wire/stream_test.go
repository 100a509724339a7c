package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

// streamFrames returns a few representative valid frames.
func streamFrames() []Frame {
	fs := []Frame{
		{Type: FrameHandshake, From: 1, Seq: 4, Epoch: 2, Ack: 3},
		{Type: FrameAck, From: 0, Seq: 17},
	}
	for i, m := range sampleMessages() {
		fs = append(fs, Frame{Type: FrameData, From: m.From, Seq: uint64(i), Msg: m})
	}
	return fs
}

func TestStreamDecoderCleanStream(t *testing.T) {
	var buf bytes.Buffer
	want := streamFrames()
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	d := NewStreamDecoder(&buf, 0)
	d.OnFault = func(class string, n int64) { t.Errorf("fault %q (%d bytes) on a clean stream", class, n) }
	for i, w := range want {
		got, err := d.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || got.From != w.From || got.Seq != w.Seq {
			t.Errorf("frame %d: got %+v want %+v", i, got, w)
		}
	}
	if _, err := d.Next(); !errors.Is(err, io.EOF) {
		t.Errorf("want clean EOF at stream end, got %v", err)
	}
}

// TestStreamDecoderResync interleaves garbage and corrupted frames between
// valid ones: every valid frame must still come out, each fault classified.
func TestStreamDecoderResync(t *testing.T) {
	want := streamFrames()
	var buf bytes.Buffer
	buf.Write([]byte{0x00, 0x13, 0xc2}) // leading garbage, no magic
	for i, f := range want {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		switch i % 3 {
		case 0: // raw garbage between frames
			buf.Write([]byte{0xde, 0xad, 0xbe, 0xef})
		case 1: // a bit-flipped copy of the frame (valid header, bad CRC)
			mut := append([]byte(nil), b...)
			mut[len(mut)-1] ^= 0x01
			buf.Write(mut)
		}
	}
	faults := map[string]int64{}
	d := NewStreamDecoder(&buf, 0)
	d.OnFault = func(class string, n int64) { faults[class] += n }
	var got []Frame
	for {
		f, err := d.Next()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// A trailing corrupted copy can end mid-resync; both are fine.
			break
		}
		if err != nil {
			t.Fatalf("terminal decode error: %v", err)
		}
		got = append(got, f)
	}
	if len(got) < len(want) {
		t.Fatalf("recovered %d frames, want >= %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Type != w.Type || got[i].From != w.From || got[i].Seq != w.Seq {
			t.Errorf("frame %d: got %+v want %+v", i, got[i], w)
		}
	}
	if len(faults) == 0 {
		t.Error("no faults reported for a corrupted stream")
	}
}

// TestStreamDecoderBudget caps the corrupt bytes one connection may emit.
func TestStreamDecoderBudget(t *testing.T) {
	garbage := make([]byte, 4096)
	for i := range garbage {
		garbage[i] = 0x5a // never FrameMagic
	}
	d := NewStreamDecoder(bytes.NewReader(garbage), 128)
	_, err := d.Next()
	if !errors.Is(err, ErrGarbageBudget) {
		t.Fatalf("err = %v, want ErrGarbageBudget", err)
	}
	if d.Budget() != 0 {
		t.Errorf("budget = %d after exhaustion, want 0", d.Budget())
	}
}

// TestStreamDecoderRandomCorruption is a deterministic mini-torture: a long
// stream of frames with seeded random byte corruption must never panic and
// never deliver a frame that differs from one of the originals.
func TestStreamDecoderRandomCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	valid := map[uint64]Frame{}
	var buf bytes.Buffer
	for i := 0; i < 200; i++ {
		f := Frame{Type: FrameData, From: dist.ProcID(i % 5), Seq: uint64(i), Msg: dist.Message{
			From: dist.ProcID(i % 5), To: dist.ProcID((i + 1) % 5), Kind: "val", Round: i % 7,
			Payload: PointPayload{Value: geom.NewPoint(float64(i), float64(-i))},
		}}
		valid[f.Seq] = f
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	stream := buf.Bytes()
	for i := 0; i < len(stream)/50; i++ {
		stream[rng.Intn(len(stream))] ^= byte(1 + rng.Intn(255))
	}
	d := NewStreamDecoder(bytes.NewReader(stream), 1<<20)
	delivered := 0
	for {
		f, err := d.Next()
		if err != nil {
			break // any terminal error is acceptable; panics are not
		}
		delivered++
		w, ok := valid[f.Seq]
		if !ok {
			continue // a corrupted frame that still CRC'd is ~2^-32; tolerate
		}
		if f.Type == FrameData && w.Msg.Kind != "" && f.Msg.Kind != w.Msg.Kind {
			t.Fatalf("seq %d: delivered corrupted content %+v", f.Seq, f.Msg)
		}
	}
	if delivered == 0 {
		t.Error("random corruption destroyed every frame (decoder failed to resync)")
	}
}

// TestStreamDecoderRetiredBatchType: frame type 4 once carried compressed
// batches and is now unknown. A CRC-valid type-4 frame must be charged whole
// through OnFault, and the data frame behind it must still be delivered.
func TestStreamDecoderRetiredBatchType(t *testing.T) {
	var clean []byte
	for _, f := range streamFrames()[:2] {
		var err error
		if clean, err = AppendFrame(clean, f); err != nil {
			t.Fatal(err)
		}
	}
	retired := reframe(append([]byte{4, 0, 0, 0, 0}, clean...))
	want := streamFrames()[2]
	tail, err := AppendFrame(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	d := NewStreamDecoder(bytes.NewReader(append(retired, tail...)), 0)
	var faults int
	d.OnFault = func(class string, n int64) {
		faults++
		if class != ClassUnknownType {
			t.Errorf("fault class %q, want %q", class, ClassUnknownType)
		}
		if n != int64(len(retired)) {
			t.Errorf("charged %d bytes, want the whole %d-byte frame", n, len(retired))
		}
	}
	got, err := d.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != FrameData || got.Seq != want.Seq || got.Msg.Kind != want.Msg.Kind {
		t.Errorf("frame after the retired type: %+v, want %+v", got, want)
	}
	if faults != 1 {
		t.Errorf("faults = %d, want 1", faults)
	}
}

// bigDataFrame builds a FrameData whose encoded payload is at least 4 KiB —
// the size the encode regression showed at (the old EncodeFrame guessed 32
// bytes and regrew the slice for every large payload).
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

// TestAppendFrameZeroAllocs pins the encode guarantee: appending a >= 4
// KiB-payload frame into a reused buffer performs zero allocations in steady
// state.
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
