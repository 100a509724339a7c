package wire

import (
	"bytes"
	"reflect"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

// FuzzDecodeMessage throws arbitrary bytes at the frame decoder: it must
// never panic, and any frame it accepts must re-encode to the same bytes
// (a canonical-form round trip).
func FuzzDecodeMessage(f *testing.F) {
	seeds := [][]byte{
		{},
		{0, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF},
	}
	// Valid frames as corpus seeds.
	for _, m := range sampleMessages() {
		if b, err := AppendMessage(nil, m); err == nil {
			seeds = append(seeds, b)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMessage(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			// Round trip through the struct must at least be stable.
			m2, err := DecodeMessage(re)
			if err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("re-encoded frame is not stable: %v", err)
			}
		}
	})
}

// FuzzDecodeFrame throws arbitrary bytes at the link-layer frame decoder —
// data, ack and epoch-handshake frames alike: it must never panic, and any
// frame it accepts must survive an encode/decode round trip.
func FuzzDecodeFrame(f *testing.F) {
	corpus := []Frame{
		{Type: FrameHandshake, From: 0},
		{Type: FrameHandshake, From: 3, Seq: 42, Epoch: 7, Ack: 40},
		{Type: FrameAck, From: 1, Seq: 99},
	}
	for _, m := range sampleMessages() {
		corpus = append(corpus, Frame{Type: FrameData, From: m.From, Seq: 5, Msg: m})
	}
	for _, fr := range corpus {
		if b, err := AppendFrame(nil, fr); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 13, 3, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := DecodeFrame(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		fr2, err := DecodeFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if fr2.Type != fr.Type || fr2.From != fr.From || fr2.Seq != fr.Seq ||
			fr2.Epoch != fr.Epoch || fr2.Ack != fr.Ack {
			t.Fatalf("frame round trip is not stable: %+v vs %+v", fr, fr2)
		}
	})
}

// FuzzStreamDecoder throws arbitrary byte streams at the resynchronizing
// decoder, in both single-frame and compressed-batch mode: it must never
// panic, every frame it yields must survive a strict encode/decode round
// trip, and the garbage budget must bound the total work — Next may not
// iterate forever on a finite hostile stream.
func FuzzStreamDecoder(f *testing.F) {
	var clean []byte
	for _, fr := range streamFrames() {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		clean = append(clean, b...)
	}
	batch, err := AppendBatchFrame(nil, clean)
	if err != nil {
		f.Fatal(err)
	}
	corruptBatch := append([]byte(nil), batch...)
	corruptBatch[len(corruptBatch)/2] ^= 0x20
	f.Add(clean, true)
	f.Add(clean, false)
	f.Add(batch, true)
	f.Add(batch, false) // un-negotiated batch: must fault, not deliver
	f.Add(append(append([]byte{0xC7, 0x01, 0xFF}, batch...), clean...), true)
	f.Add(append(corruptBatch, clean...), true)
	f.Add(bytes.Repeat([]byte{0xC7}, 64), true)
	f.Fuzz(func(t *testing.T, data []byte, compressed bool) {
		d := NewStreamDecoder(bytes.NewReader(data), 4<<10)
		d.SetCompressed(compressed)
		var faulted int64
		d.OnFault = func(class string, n int64) {
			if class == "" || n <= 0 {
				t.Fatalf("fault report class=%q bytes=%d", class, n)
			}
			faulted += n
		}
		// A finite input with a finite budget terminates: every iteration
		// either consumes stream bytes or spends budget. Bound generously.
		for i := 0; i <= len(data)+8<<10; i++ {
			fr, err := d.Next()
			if err != nil {
				return // any terminal error is acceptable; panics are not
			}
			re, err := AppendFrame(nil, fr)
			if err != nil {
				t.Fatalf("stream yielded an unencodable frame: %+v: %v", fr, err)
			}
			if _, err := DecodeFrame(re); err != nil {
				t.Fatalf("stream-decoded frame failed strict decode: %v", err)
			}
			if fr.Type == FrameBatch {
				t.Fatal("stream decoder leaked a raw batch envelope")
			}
		}
		t.Fatalf("decoder did not terminate on %d input bytes (faulted=%d)", len(data), faulted)
	})
}

// sampleMessages returns representative messages for the fuzz corpus.
func sampleMessages() []dist.Message {
	return []dist.Message{
		{From: 0, To: 1, Kind: "input", Payload: PointPayload{Value: geom.NewPoint(1.5, -2)}},
		{From: 2, To: 3, Kind: "report", Round: 0, Payload: EntriesPayload{Entries: []Entry{
			{Proc: 1, Value: geom.NewPoint(0)},
		}}},
		{From: 4, To: 5, Kind: "state", Round: 9, Payload: PolytopePayload{Verts: []geom.Point{
			geom.NewPoint(0, 0), geom.NewPoint(1, 1),
		}}},
		{From: 6, To: 7, Kind: "ctl", Payload: IntPayload{Value: 77}},
		{From: 8, To: 9, Kind: "nil"},
	}
}
