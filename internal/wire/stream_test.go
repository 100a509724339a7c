package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
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
