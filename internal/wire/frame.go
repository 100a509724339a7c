package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"chc/internal/dist"
)

// Link-layer frame types exchanged by the networked runtime. A Frame is one
// hop-level unit on an (unreliable) link; the reliable-link layer (package
// rlink) speaks frames, while the protocol state machines above it keep
// speaking dist.Message.
const (
	// FrameData carries one protocol message tagged with the sender's
	// per-link sequence number.
	FrameData byte = 1
	// FrameAck acknowledges every data frame on the reverse link with
	// sequence number <= Seq (cumulative ack).
	FrameAck byte = 2
	// FrameHandshake identifies the dialing node on a fresh connection and
	// carries its crash-recovery link state: the sender's incarnation epoch
	// plus the seq/ack watermarks of the directed link. It is the first
	// frame on every connection, so the accepting side can associate the
	// byte stream with a peer, replace stale connections after a reconnect,
	// and resume the link without duplicate or lost delivery after the
	// peer restarts from its write-ahead log.
	FrameHandshake byte = 3
)

// Frame header layout. Every frame opens with a fixed 10-byte header:
//
//	u8 magic (0xC7) | u8 version (1) | u32 bodyLen | u32 crc32c(body)
//
// The magic byte lets a stream decoder hunt for the next plausible frame
// boundary after corruption desynchronizes the byte stream; the version
// byte reserves room for codec evolution; the CRC-32C (Castagnoli, same
// polynomial the write-ahead log uses) detects any body corruption the
// framing itself cannot, so a bit-flipped frame is rejected instead of
// being delivered as a forged message.
const (
	// FrameMagic is the first byte of every frame.
	FrameMagic byte = 0xC7
	// FrameVersion is the codec version this package encodes and accepts.
	FrameVersion byte = 1
	// FrameHeaderLen is the fixed header size preceding every frame body.
	FrameHeaderLen = 10
	// MaxFrameLen is the hard cap on a frame body. It is enforced before
	// any allocation on the read path, so a corrupted or hostile length
	// prefix cannot force a large allocation, and on the encode path, so a
	// sender fails loudly instead of producing a frame its peers reject.
	MaxFrameLen = 8 << 20
)

// castagnoli is the CRC-32C table shared by all frame coding.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Frame is the unit of transmission between runtime nodes once the
// reliable-link layer is active.
type Frame struct {
	Type byte
	From dist.ProcID // link-level sender (not necessarily Msg.From for acks)
	// Seq is the data frame's link sequence number, an ack's cumulative
	// acknowledgement, or — on a handshake — the sender's next outbound
	// sequence number on this link (its send watermark).
	Seq uint64
	// Epoch is the sender's incarnation number, carried by handshakes only.
	// 0 is the first incarnation; each crash-recovery restart increments it.
	Epoch uint64
	// Ack is the sender's receive watermark on a handshake: the next
	// sequence number it expects from the peer (everything below it has
	// been durably delivered and acknowledged).
	Ack uint64
	Msg dist.Message // payload; meaningful for FrameData only
}

// AppendFrame serialises a frame by appending it to dst and returning the
// extended slice, exactly like the append built-in. The layout is:
//
//	u8 magic | u8 version | u32 bodyLen | u32 crc32c(body)
//	u8 type | i32 from | u64 seq
//	  | [u64 epoch | u64 ack | u8 reserved (0), FrameHandshake only]
//	  | [encoded message, FrameData only]
//
// The frame is encoded in place — header reserved up front, body appended
// directly, length and CRC backfilled — so a caller that reuses dst (its own
// buffer or one from GetBuf) encodes with zero allocations in steady state.
// On error dst is returned truncated to its original length, with nothing
// appended.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, FrameMagic, FrameVersion, 0, 0, 0, 0, 0, 0, 0, 0)
	bodyStart := len(dst)
	dst = append(dst, f.Type)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(f.From)))
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	switch f.Type {
	case FrameHandshake:
		dst = binary.BigEndian.AppendUint64(dst, f.Epoch)
		dst = binary.BigEndian.AppendUint64(dst, f.Ack)
		dst = append(dst, 0)
	case FrameData:
		var err error
		dst, err = AppendMessage(dst, f.Msg)
		if err != nil {
			return dst[:start], err
		}
	}
	n := len(dst) - bodyStart
	if n > MaxFrameLen {
		return dst[:start], fmt.Errorf("%w: frame body is %d bytes (cap %d)", ErrTooLarge, n, MaxFrameLen)
	}
	binary.BigEndian.PutUint32(dst[start+2:], uint32(n))
	binary.BigEndian.PutUint32(dst[start+6:], crc32.Checksum(dst[bodyStart:], castagnoli))
	return dst, nil
}

// checkHeader validates the fixed header fields (magic, version, length cap)
// without touching the body. It returns the body length on success.
func checkHeader(hdr []byte) (int, error) {
	if len(hdr) < FrameHeaderLen {
		return 0, fmt.Errorf("%w: %d header bytes", ErrTruncated, len(hdr))
	}
	if hdr[0] != FrameMagic {
		return 0, fmt.Errorf("%w: 0x%02x", ErrBadMagic, hdr[0])
	}
	if hdr[1] != FrameVersion {
		return 0, fmt.Errorf("%w: %d", ErrBadVersion, hdr[1])
	}
	n := binary.BigEndian.Uint32(hdr[2:])
	if n > MaxFrameLen {
		return 0, fmt.Errorf("%w: frame body of %d bytes (cap %d)", ErrTooLarge, n, MaxFrameLen)
	}
	return int(n), nil
}

// decodeBody parses a frame body whose CRC has already been verified.
func decodeBody(body []byte) (Frame, error) {
	var f Frame
	if len(body) < 13 { // type + from + seq
		return f, fmt.Errorf("%w: frame body of %d bytes", ErrTruncated, len(body))
	}
	f.Type = body[0]
	f.From = dist.ProcID(int32(binary.BigEndian.Uint32(body[1:])))
	f.Seq = binary.BigEndian.Uint64(body[5:])
	rest := body[13:]
	switch f.Type {
	case FrameData:
		msg, err := DecodeMessage(rest)
		if err != nil {
			return f, err
		}
		f.Msg = msg
	case FrameHandshake:
		// The 17th byte is reserved: written as 0, ignored on read, and
		// optional (16-byte bodies are accepted too).
		if len(rest) != 16 && len(rest) != 17 {
			return f, fmt.Errorf("%w: handshake body is %d bytes, want 16 or 17", ErrCorrupt, len(rest))
		}
		f.Epoch = binary.BigEndian.Uint64(rest)
		f.Ack = binary.BigEndian.Uint64(rest[8:])
	case FrameAck:
		if len(rest) != 0 {
			return f, fmt.Errorf("%w: %d trailing bytes after control frame", ErrCorrupt, len(rest))
		}
	default:
		return f, fmt.Errorf("%w: %d", ErrUnknownType, f.Type)
	}
	return f, nil
}

// FrameSize returns the encoded size of f in bytes (0 if unencodable).
func FrameSize(f Frame) int {
	b, err := AppendFrame(nil, f)
	if err != nil {
		return 0
	}
	return len(b)
}

// WriteFrame writes one frame to w, encoding through the buffer pool so no
// per-frame garbage is produced.
func WriteFrame(w io.Writer, f Frame) error {
	buf := GetBuf()
	b, err := AppendFrame(buf, f)
	if err == nil {
		_, err = w.Write(b)
		buf = b
	}
	PutBuf(buf)
	return err
}

// ReadFrame reads one frame from r. A clean io.EOF before the first header
// byte is returned verbatim so callers can distinguish an orderly connection
// close from mid-frame truncation (reported as io.ErrUnexpectedEOF or a
// corruption error). The body length is validated against MaxFrameLen
// before the body is read, and the body itself is staged in a pooled
// scratch buffer — decoding copies out everything the returned Frame keeps
// (message kinds, coordinates), so the Frame owns its memory and the
// scratch is recycled with no per-frame allocation. ReadFrame is strict:
// the first corrupt byte fails the read — transports that want to survive
// corruption mid-stream use StreamDecoder, which resynchronizes on the
// frame magic.
func ReadFrame(r *bufio.Reader) (Frame, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF at the boundary, ErrUnexpectedEOF mid-header
	}
	n, err := checkHeader(hdr[:])
	if err != nil {
		return Frame{}, err
	}
	buf := GetBuf()
	defer PutBuf(buf)
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	body := buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	if want := binary.BigEndian.Uint32(hdr[6:]); crc32.Checksum(body, castagnoli) != want {
		return Frame{}, fmt.Errorf("%w: body of %d bytes", ErrBadCRC, n)
	}
	return decodeBody(body)
}
