// Package wire defines the message vocabulary of the consensus protocols —
// the payload types carried by round-0 inputs, stable-vector reports, and
// the polytope exchanges of rounds >= 1 — together with a compact binary
// codec for them. The deterministic simulator uses the codec for byte
// accounting; the TCP runtime uses it as its actual wire format.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"chc/internal/dist"
	"chc/internal/geom"
)

// Payload type tags on the wire.
const (
	tagNil      = 0
	tagPoint    = 1
	tagEntries  = 2
	tagPolytope = 3
	tagInt      = 4
	tagSenders  = 5
	tagRBC      = 6
)

// ErrTooLarge is returned when a frame or message body exceeds MaxFrameLen.
// It is checked before any length-driven allocation, so a corrupted or
// hostile length prefix cannot exhaust memory.
var ErrTooLarge = errors.New("wire: frame too large")

// ErrCorrupt is the umbrella error for structurally invalid frames. The
// classified decode errors below wrap it, so errors.Is(err, ErrCorrupt)
// matches any corruption while the transport can still react per class.
var ErrCorrupt = errors.New("wire: corrupt frame")

// Classified decode failures. Each wraps ErrCorrupt; Classify maps them
// (and any other decode error) onto stable class strings for telemetry
// labels and per-class transport reactions.
var (
	// ErrBadMagic: the first header byte is not FrameMagic — the stream is
	// desynchronized or carries garbage.
	ErrBadMagic = fmt.Errorf("%w: bad frame magic", ErrCorrupt)
	// ErrBadVersion: an unsupported codec version byte.
	ErrBadVersion = fmt.Errorf("%w: unsupported frame version", ErrCorrupt)
	// ErrBadCRC: the body failed its CRC-32C — at least one byte was
	// corrupted in flight.
	ErrBadCRC = fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	// ErrTruncated: fewer bytes than the header or length prefix promised.
	ErrTruncated = fmt.Errorf("%w: frame truncated", ErrCorrupt)
	// ErrUnknownType: a well-framed body with an unknown frame type byte.
	ErrUnknownType = fmt.Errorf("%w: unknown frame type", ErrCorrupt)
)

// Fault classes returned by Classify: stable strings, usable directly as
// telemetry label values.
const (
	ClassNone        = ""
	ClassTooLarge    = "too_large"
	ClassBadMagic    = "bad_magic"
	ClassBadVersion  = "bad_version"
	ClassBadCRC      = "bad_crc"
	ClassTruncated   = "truncated"
	ClassUnknownType = "unknown_type"
	ClassCorrupt     = "corrupt" // structurally invalid in any other way
)

// Classify maps a decode error onto its fault class. Transport errors and
// clean stream ends (nil, io.EOF) classify as ClassNone: they are not
// decoder verdicts about the bytes.
func Classify(err error) string {
	switch {
	case err == nil, errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF):
		return ClassNone
	case errors.Is(err, ErrTooLarge):
		return ClassTooLarge
	case errors.Is(err, ErrBadMagic):
		return ClassBadMagic
	case errors.Is(err, ErrBadVersion):
		return ClassBadVersion
	case errors.Is(err, ErrBadCRC):
		return ClassBadCRC
	case errors.Is(err, ErrTruncated), errors.Is(err, io.ErrUnexpectedEOF):
		return ClassTruncated
	case errors.Is(err, ErrUnknownType):
		return ClassUnknownType
	case errors.Is(err, ErrCorrupt):
		return ClassCorrupt
	default:
		return ClassNone
	}
}

// PointPayload carries a single d-dimensional point (e.g. a round-0 input
// or a vector-consensus state).
type PointPayload struct {
	Value geom.Point
}

// Entry is one (process, input) pair inside a stable-vector report.
type Entry struct {
	Proc  dist.ProcID
	Value geom.Point
}

// EntriesPayload carries a stable-vector report: the sender's current set
// of known (process, input) pairs.
type EntriesPayload struct {
	Entries []Entry
}

// PolytopePayload carries a polytope as its vertex set (the state h_i[t-1]
// broadcast at the start of round t >= 1 of Algorithm CC).
type PolytopePayload struct {
	Verts []geom.Point
}

// IntPayload carries a small integer (control messages).
type IntPayload struct {
	Value int64
}

// SendersPayload carries a process's round-t sender choice in the
// Byzantine-compiled protocol: "my state h[Round] is the combination of the
// states of exactly these processes". Receivers recompute the state
// themselves, which is what reduces Byzantine behaviour to crash faults
// with incorrect inputs.
type SendersPayload struct {
	Round   int32
	Senders []dist.ProcID
}

// RBCPayload wraps an inner payload with reliable-broadcast identity: the
// originating process and its broadcast sequence number. The transport-level
// sender of an echo/ready differs from the origin, hence the explicit field.
type RBCPayload struct {
	Origin dist.ProcID
	Seq    int32
	Inner  any
}

// AppendMessage serialises a message (envelope + payload) by appending it
// to dst and returning the extended slice. The frame layout is:
//
//	u32 frameLen (bytes after this field)
//	i32 from | i32 to | i32 round | i32 instance | u8 kindLen | kind | u8 tag | payload
//
// The instance field is the engine's numeric multiplexing index: it names
// which protocol instance of a batch the message belongs to, so the kind
// string is carried byte-for-byte with no namespacing conventions imposed
// on it.
//
// The message is encoded in place — the length prefix is reserved up front
// and backfilled once the body size is known — so a caller that reuses dst
// encodes with zero allocations in steady state. On error dst is returned
// truncated to its original length.
func AppendMessage(dst []byte, m dist.Message) ([]byte, error) {
	if len(m.Kind) > 255 {
		return dst, fmt.Errorf("wire: kind %q too long", m.Kind)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix, backfilled below
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.From)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.To)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Round)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(m.Instance)))
	dst = append(dst, byte(len(m.Kind)))
	dst = append(dst, m.Kind...)
	var err error
	dst, err = appendPayload(dst, m.Payload)
	if err != nil {
		return dst[:start], err
	}
	n := len(dst) - start - 4
	if n > MaxFrameLen {
		return dst[:start], fmt.Errorf("%w: message body is %d bytes (cap %d)", ErrTooLarge, n, MaxFrameLen)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendPayload(b []byte, payload any) ([]byte, error) {
	switch p := payload.(type) {
	case nil:
		return append(b, tagNil), nil
	case PointPayload:
		b = append(b, tagPoint)
		return appendPoint(b, p.Value), nil
	case EntriesPayload:
		b = append(b, tagEntries)
		b = binary.BigEndian.AppendUint32(b, uint32(len(p.Entries)))
		for _, e := range p.Entries {
			b = binary.BigEndian.AppendUint32(b, uint32(int32(e.Proc)))
			b = appendPoint(b, e.Value)
		}
		return b, nil
	case PolytopePayload:
		b = append(b, tagPolytope)
		b = binary.BigEndian.AppendUint32(b, uint32(len(p.Verts)))
		for _, v := range p.Verts {
			b = appendPoint(b, v)
		}
		return b, nil
	case IntPayload:
		b = append(b, tagInt)
		return binary.BigEndian.AppendUint64(b, uint64(p.Value)), nil
	case SendersPayload:
		b = append(b, tagSenders)
		b = binary.BigEndian.AppendUint32(b, uint32(p.Round))
		b = binary.BigEndian.AppendUint32(b, uint32(len(p.Senders)))
		for _, s := range p.Senders {
			b = binary.BigEndian.AppendUint32(b, uint32(int32(s)))
		}
		return b, nil
	case RBCPayload:
		if _, nested := p.Inner.(RBCPayload); nested {
			return nil, errors.New("wire: nested RBC payloads are not allowed")
		}
		b = append(b, tagRBC)
		b = binary.BigEndian.AppendUint32(b, uint32(int32(p.Origin)))
		b = binary.BigEndian.AppendUint32(b, uint32(p.Seq))
		return appendPayload(b, p.Inner)
	default:
		return nil, fmt.Errorf("wire: unsupported payload type %T", payload)
	}
}

// PayloadKey returns a canonical byte-level identity for a payload, used by
// reliable broadcast to detect equivocation. Unencodable payloads yield an
// error (and are treated as Byzantine garbage by callers).
func PayloadKey(payload any) (string, error) {
	b, err := appendPayload(nil, payload)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func appendPoint(b []byte, p geom.Point) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(p)))
	for _, v := range p {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// DecodeMessage parses a frame produced by AppendMessage.
func DecodeMessage(frame []byte) (dist.Message, error) {
	var m dist.Message
	r := &reader{buf: frame}
	flen, err := r.u32()
	if err != nil {
		return m, err
	}
	if int(flen) != len(frame)-4 {
		return m, fmt.Errorf("%w: frame length %d but %d bytes follow", ErrCorrupt, flen, len(frame)-4)
	}
	from, err := r.u32()
	if err != nil {
		return m, err
	}
	to, err := r.u32()
	if err != nil {
		return m, err
	}
	round, err := r.u32()
	if err != nil {
		return m, err
	}
	instance, err := r.u32()
	if err != nil {
		return m, err
	}
	kind, err := r.str8()
	if err != nil {
		return m, err
	}
	payload, err := r.payload()
	if err != nil {
		return m, err
	}
	if r.pos != len(r.buf) {
		return m, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.buf)-r.pos)
	}
	m.From = dist.ProcID(int32(from))
	m.To = dist.ProcID(int32(to))
	m.Round = int(int32(round))
	m.Instance = int(int32(instance))
	m.Kind = kind
	m.Payload = payload
	return m, nil
}

// MessageSize returns the encoded size of m in bytes (0 if unencodable). It
// is the Sizer of every executor and so runs once per send: the message is
// encoded into a pooled scratch buffer, taken by pointer because PutBuf
// boxes a slice header per call, so nothing is allocated.
func MessageSize(m dist.Message) int {
	bp := bufPool.Get().(*[]byte)
	n := 0
	if b, err := AppendMessage((*bp)[:0], m); err == nil {
		n = len(b)
		if cap(b) <= maxPooledBuf {
			*bp = b[:0] // keep what the encode grew
		}
	}
	bufPool.Put(bp)
	return n
}

// WriteMessage writes one frame to w.
func WriteMessage(w io.Writer, m dist.Message) error {
	b, err := AppendMessage(nil, m)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadMessage reads one frame from r.
func ReadMessage(r *bufio.Reader) (dist.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return dist.Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	// Reject before allocating: a corrupted or hostile length prefix (e.g.
	// 0xFFFFFFFF) must not size a buffer.
	if n > MaxFrameLen {
		return dist.Message{}, fmt.Errorf("%w: message body of %d bytes (cap %d)", ErrTooLarge, n, MaxFrameLen)
	}
	frame := make([]byte, 4+n)
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		return dist.Message{}, err
	}
	return DecodeMessage(frame)
}

// reader is a bounds-checked cursor over a frame.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return fmt.Errorf("%w: at byte %d", ErrTruncated, r.pos)
	}
	return nil
}

func (r *reader) u8() (byte, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.pos:])
	r.pos += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *reader) str8() (string, error) {
	n, err := r.u8()
	if err != nil {
		return "", err
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

func (r *reader) point() (geom.Point, error) {
	d, err := r.u16()
	if err != nil {
		return nil, err
	}
	// The dimension sizes an allocation: bound it by the bytes actually
	// present (8 per coordinate) before making the slice.
	if int(d)*8 > len(r.buf)-r.pos {
		return nil, fmt.Errorf("%w: point dimension %d exceeds remaining bytes", ErrCorrupt, d)
	}
	p := make(geom.Point, d)
	for i := range p {
		bits, err := r.u64()
		if err != nil {
			return nil, err
		}
		p[i] = math.Float64frombits(bits)
	}
	return p, nil
}

func (r *reader) payload() (any, error) {
	tag, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagNil:
		return nil, nil
	case tagPoint:
		p, err := r.point()
		if err != nil {
			return nil, err
		}
		return PointPayload{Value: p}, nil
	case tagEntries:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(r.buf) { // each entry needs >= 1 byte
			return nil, ErrCorrupt
		}
		entries := make([]Entry, n)
		for i := range entries {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			p, err := r.point()
			if err != nil {
				return nil, err
			}
			entries[i] = Entry{Proc: dist.ProcID(int32(id)), Value: p}
		}
		return EntriesPayload{Entries: entries}, nil
	case tagPolytope:
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(r.buf) {
			return nil, ErrCorrupt
		}
		verts := make([]geom.Point, n)
		for i := range verts {
			p, err := r.point()
			if err != nil {
				return nil, err
			}
			verts[i] = p
		}
		return PolytopePayload{Verts: verts}, nil
	case tagInt:
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		return IntPayload{Value: int64(v)}, nil
	case tagSenders:
		round, err := r.u32()
		if err != nil {
			return nil, err
		}
		n, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int(n) > len(r.buf) {
			return nil, ErrCorrupt
		}
		senders := make([]dist.ProcID, n)
		for i := range senders {
			id, err := r.u32()
			if err != nil {
				return nil, err
			}
			senders[i] = dist.ProcID(int32(id))
		}
		return SendersPayload{Round: int32(round), Senders: senders}, nil
	case tagRBC:
		origin, err := r.u32()
		if err != nil {
			return nil, err
		}
		seq, err := r.u32()
		if err != nil {
			return nil, err
		}
		inner, err := r.payload()
		if err != nil {
			return nil, err
		}
		if _, nested := inner.(RBCPayload); nested {
			return nil, fmt.Errorf("%w: nested RBC payloads are not allowed", ErrCorrupt)
		}
		return RBCPayload{Origin: dist.ProcID(int32(origin)), Seq: int32(seq), Inner: inner}, nil
	default:
		return nil, fmt.Errorf("%w: unknown payload tag %d", ErrCorrupt, tag)
	}
}
