package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// ErrGarbageBudget is returned by StreamDecoder.Next when a connection has
// delivered more corrupt bytes than its budget allows. The transport should
// treat it as terminal for the connection: tear it down and let the redial
// path (and the peer-health machinery) decide whether to readmit the peer.
var ErrGarbageBudget = errors.New("wire: connection garbage budget exhausted")

// StreamDecoder reads frames from a byte stream that may be corrupted in
// flight. Unlike the strict ReadFrame, a decode failure is not terminal:
// the decoder classifies the fault, reports it, discards one byte, and
// hunts for the next FrameMagic boundary — so sporadic corruption costs the
// corrupted frames (which retransmission re-offers) instead of the whole
// connection. Two bounds keep a hostile stream from turning that tolerance
// into resource exhaustion: frame bodies are capped at MaxFrameLen before
// any allocation, and the total bytes discarded during resynchronization
// are capped by the per-connection garbage budget.
//
// The decode path is zero-copy: the stream is read directly into the
// decoder's internal ring, frames are parsed from slices of that ring, and
// only the data a Frame actually keeps (message kind, point coordinates) is
// copied out by decodeBody. No per-read chunk and no per-frame body buffer
// are allocated in steady state; the ring's capacity converges on the
// largest frame the connection carries.
type StreamDecoder struct {
	r      io.Reader
	buf    []byte // unconsumed window: buf[pos:] is live, buf[len:cap] is free
	pos    int
	budget int64 // remaining discardable bytes; < 0 = exhausted
	eof    bool  // underlying reader returned EOF

	// OnFault, when non-nil, is invoked once per classified decode fault
	// with the fault class and the number of stream bytes charged to the
	// garbage budget for it. It runs on the reader goroutine.
	OnFault func(class string, bytes int64)
}

// NewStreamDecoder wraps r with a resynchronizing frame decoder. budget is
// the per-connection cap on corrupt bytes (<= 0 selects a default of 256
// KiB): once exceeded, Next returns ErrGarbageBudget.
func NewStreamDecoder(r io.Reader, budget int64) *StreamDecoder {
	if budget <= 0 {
		budget = 256 << 10
	}
	return &StreamDecoder{r: r, budget: budget}
}

// Budget returns the remaining garbage budget.
func (d *StreamDecoder) Budget() int64 {
	if d.budget < 0 {
		return 0
	}
	return d.budget
}

// fault reports one classified fault charging n discarded bytes.
func (d *StreamDecoder) fault(class string, n int64) {
	d.budget -= n
	if d.OnFault != nil {
		d.OnFault(class, n)
	}
}

// fill grows the window to at least want live bytes, reading from the stream
// directly into the ring's free tail — no intermediate chunk buffer. It
// returns io.EOF only when the stream ended exactly at a frame boundary (no
// live bytes at all); a partial tail is reported as io.ErrUnexpectedEOF.
func (d *StreamDecoder) fill(want int) error {
	for len(d.buf)-d.pos < want {
		if d.eof {
			if len(d.buf)-d.pos == 0 {
				return io.EOF
			}
			return io.ErrUnexpectedEOF
		}
		// Compact before growing: discarded prefix bytes are dead, and
		// sliding the live window to the front reopens tail capacity.
		if d.pos > 0 {
			n := copy(d.buf, d.buf[d.pos:])
			d.buf = d.buf[:n]
			d.pos = 0
		}
		if cap(d.buf)-len(d.buf) < 1<<10 || cap(d.buf) < want {
			grown := make([]byte, len(d.buf), max(2*cap(d.buf), max(want, 32<<10)))
			copy(grown, d.buf)
			d.buf = grown
		}
		n, err := d.r.Read(d.buf[len(d.buf):cap(d.buf)])
		d.buf = d.buf[:len(d.buf)+n]
		if err != nil {
			if err == io.EOF {
				d.eof = true
				continue
			}
			return err
		}
	}
	return nil
}

// discard drops n live bytes as garbage.
func (d *StreamDecoder) discard(n int) {
	d.pos += n
}

// Next returns the next valid frame. On corruption it resynchronizes: the
// offending byte (or, for a frame that framed correctly but failed body
// decode, the whole frame) is discarded and charged to the garbage budget,
// and scanning resumes at the next byte. Terminal returns: io.EOF at a clean
// boundary, io.ErrUnexpectedEOF for a stream cut mid-frame, ErrGarbageBudget
// once the connection has produced more corrupt bytes than allowed, and any
// underlying transport error.
func (d *StreamDecoder) Next() (Frame, error) {
	for {
		if d.budget < 0 {
			return Frame{}, ErrGarbageBudget
		}
		if err := d.fill(FrameHeaderLen); err != nil {
			return Frame{}, err
		}
		hdr := d.buf[d.pos:]
		n, err := checkHeader(hdr[:FrameHeaderLen])
		if err != nil {
			d.fault(Classify(err), 1)
			d.discard(1)
			continue
		}
		if err := d.fill(FrameHeaderLen + n); err != nil {
			return Frame{}, err
		}
		body := d.buf[d.pos+FrameHeaderLen : d.pos+FrameHeaderLen+n]
		if want := binary.BigEndian.Uint32(d.buf[d.pos+6:]); crc32.Checksum(body, castagnoli) != want {
			// The length field itself may be corrupt, so the frame boundary
			// is untrustworthy: discard a single byte and rescan for magic
			// rather than skipping what might be half of a valid frame.
			d.fault(ClassBadCRC, 1)
			d.discard(1)
			continue
		}
		f, err := decodeBody(body)
		if err != nil {
			// CRC-valid envelope with undecodable content (unknown type,
			// malformed message): the boundary is trustworthy, so the whole
			// frame is discarded and charged.
			d.fault(Classify(err), int64(FrameHeaderLen+n))
			d.discard(FrameHeaderLen + n)
			continue
		}
		d.discard(FrameHeaderLen + n)
		return f, nil
	}
}

// String renders decoder state for diagnostics.
func (d *StreamDecoder) String() string {
	return fmt.Sprintf("StreamDecoder(buffered=%d, budget=%d)", len(d.buf)-d.pos, d.Budget())
}
