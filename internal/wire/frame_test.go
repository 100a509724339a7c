package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: FrameData, From: 2, Seq: 7, Msg: dist.Message{
			From: 2, To: 1, Kind: "val", Round: 3,
			Payload: PointPayload{Value: geom.NewPoint(1.5, -2.25)},
		}},
		{Type: FrameData, From: 0, Seq: 0, Msg: dist.Message{From: 0, To: 3, Kind: "ctl"}},
		{Type: FrameAck, From: 1, Seq: 41},
		{Type: FrameHandshake, From: 4},
		{Type: FrameHandshake, From: 3, Seq: 17, Epoch: 2, Ack: 9},
	}
	for _, f := range frames {
		b, err := AppendFrame(nil, f)
		if err != nil {
			t.Fatalf("encode %+v: %v", f, err)
		}
		got, err := DecodeFrame(b)
		if err != nil {
			t.Fatalf("decode %+v: %v", f, err)
		}
		if got.Type != f.Type || got.From != f.From || got.Seq != f.Seq {
			t.Errorf("header mismatch: got %+v want %+v", got, f)
		}
		if got.Epoch != f.Epoch || got.Ack != f.Ack {
			t.Errorf("handshake state mismatch: got %+v want %+v", got, f)
		}
		if f.Type == FrameData {
			if got.Msg.Kind != f.Msg.Kind || got.Msg.From != f.Msg.From || got.Msg.To != f.Msg.To {
				t.Errorf("message mismatch: got %+v want %+v", got.Msg, f.Msg)
			}
		}
		if FrameSize(f) != len(b) {
			t.Errorf("FrameSize = %d, want %d", FrameSize(f), len(b))
		}
	}
}

func TestFrameStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := []Frame{
		{Type: FrameHandshake, From: 1},
		{Type: FrameData, From: 1, Seq: 0, Msg: dist.Message{From: 1, To: 0, Kind: "a"}},
		{Type: FrameAck, From: 0, Seq: 0},
	}
	for _, f := range want {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i, w := range want {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != w.Type || got.From != w.From || got.Seq != w.Seq {
			t.Errorf("frame %d: got %+v want %+v", i, got, w)
		}
	}
	if _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Errorf("want clean EOF at stream end, got %v", err)
	}
}

func TestFrameTruncationIsNotEOF(t *testing.T) {
	b, err := AppendFrame(nil, Frame{Type: FrameAck, From: 0, Seq: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Cut the frame mid-body: the reader must distinguish this from a clean
	// close so the transport can count it as a link fault.
	r := bufio.NewReader(bytes.NewReader(b[:len(b)-2]))
	if _, err := ReadFrame(r); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("want ErrUnexpectedEOF for mid-frame cut, got %v", err)
	}
}

// reframe rebuilds a valid header (magic, version, length, CRC) around body,
// so tests can corrupt body content without tripping the envelope checks.
func reframe(body []byte) []byte {
	out := make([]byte, 0, FrameHeaderLen+len(body))
	out = append(out, FrameMagic, FrameVersion)
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
	return append(out, body...)
}

func TestFrameCorruption(t *testing.T) {
	ack, _ := AppendFrame(nil, Frame{Type: FrameAck, From: 0, Seq: 1})
	hs, _ := AppendFrame(nil, Frame{Type: FrameHandshake, From: 2, Seq: 5, Epoch: 1, Ack: 3})
	cases := []struct {
		name  string
		frame []byte
		want  error
		class string
	}{
		{"short header", ack[:FrameHeaderLen-1], ErrTruncated, ClassTruncated},
		{"bad magic", append([]byte{0x00}, ack[1:]...), ErrBadMagic, ClassBadMagic},
		{"bad version", reversion(ack, 99), ErrBadVersion, ClassBadVersion},
		{"unknown type", reframe(append([]byte{99}, ack[FrameHeaderLen+1:]...)), ErrUnknownType, ClassUnknownType},
		{"trailing bytes after ack", reframe(append(append([]byte(nil), ack[FrameHeaderLen:]...), 0xff)), ErrCorrupt, ClassCorrupt},
		{"truncated handshake body", reframe(hs[FrameHeaderLen : len(hs)-8]), ErrCorrupt, ClassCorrupt},
		{"flipped body byte", flipBody(ack), ErrBadCRC, ClassBadCRC},
		{"length beyond bytes", append(append([]byte(nil), ack...), 0xaa), ErrTruncated, ClassTruncated},
	}
	for _, tc := range cases {
		_, err := DecodeFrame(tc.frame)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if got := Classify(err); got != tc.class {
			t.Errorf("%s: Classify = %q, want %q", tc.name, got, tc.class)
		}
	}
}

// reversion returns a copy of frame with the version byte replaced and the
// rest untouched.
func reversion(frame []byte, v byte) []byte {
	out := append([]byte(nil), frame...)
	out[1] = v
	return out
}

// flipBody returns a copy of frame with one body bit flipped (CRC intact).
func flipBody(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	out[FrameHeaderLen] ^= 0x10
	return out
}

// TestHugeLengthPrefixRejectedBeforeAllocation is the regression test for
// the uncapped-allocation bug: a header whose length field is 0xFFFFFFFF
// (or anything above MaxFrameLen) must be rejected with ErrTooLarge before
// any body allocation — both by the strict reader and the decoder.
func TestHugeLengthPrefixRejectedBeforeAllocation(t *testing.T) {
	for _, n := range []uint32{0xFFFFFFFF, MaxFrameLen + 1} {
		hdr := make([]byte, 0, FrameHeaderLen)
		hdr = append(hdr, FrameMagic, FrameVersion)
		hdr = binary.BigEndian.AppendUint32(hdr, n)
		hdr = binary.BigEndian.AppendUint32(hdr, 0) // CRC never reached
		if _, err := DecodeFrame(hdr); !errors.Is(err, ErrTooLarge) {
			t.Errorf("DecodeFrame(len=%#x): err = %v, want ErrTooLarge", n, err)
		}
		if got := Classify(func() error { _, err := DecodeFrame(hdr); return err }()); got != ClassTooLarge {
			t.Errorf("Classify(len=%#x) = %q, want %q", n, got, ClassTooLarge)
		}
		// The streaming reader must reject from the header alone: no body
		// bytes exist to read, so success here proves no allocation+read of
		// the advertised length was attempted.
		r := bufio.NewReader(bytes.NewReader(hdr))
		if _, err := ReadFrame(r); !errors.Is(err, ErrTooLarge) {
			t.Errorf("ReadFrame(len=%#x): err = %v, want ErrTooLarge", n, err)
		}
	}
	// The message reader shares the cap: a 0xFFFFFFFF length prefix is
	// rejected before make([]byte, ...).
	msg := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(msg))); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ReadMessage(len=0xFFFFFFFF): err = %v, want ErrTooLarge", err)
	}
}

// TestFrameCRCDetectsEveryByte flips every single byte of an encoded data
// frame in turn: the decoder must reject all of them (header checks or CRC),
// never silently accept a corrupted frame.
func TestFrameCRCDetectsEveryByte(t *testing.T) {
	f := Frame{Type: FrameData, From: 1, Seq: 3, Msg: dist.Message{
		From: 1, To: 2, Kind: "val", Round: 1,
		Payload: PointPayload{Value: geom.NewPoint(3.5, -1.25)},
	}}
	b, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x40
		if _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("byte %d: corrupted frame decoded without error", i)
		}
	}
}
