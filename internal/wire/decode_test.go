package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"chc/internal/dist"
)

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

// DecodeFrame parses a frame produced by AppendFrame: header validation,
// CRC check, then body decode. Failures are classified — see Classify.
func DecodeFrame(frame []byte) (Frame, error) {
	n, err := checkHeader(frame)
	if err != nil {
		return Frame{}, err
	}
	if len(frame)-FrameHeaderLen != n {
		return Frame{}, fmt.Errorf("%w: frame length %d but %d bytes follow", ErrTruncated, n, len(frame)-FrameHeaderLen)
	}
	body := frame[FrameHeaderLen:]
	if want := binary.BigEndian.Uint32(frame[6:]); crc32.Checksum(body, castagnoli) != want {
		return Frame{}, fmt.Errorf("%w: body of %d bytes", ErrBadCRC, n)
	}
	return decodeBody(body)
}
