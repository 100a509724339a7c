package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/wire"
)

// Replayed is the reconstructed protocol history of one process: everything
// a deterministic state machine needs to be rebuilt exactly.
type Replayed struct {
	// Epoch is the incarnation number recorded so far: epoch records minus
	// one. The next incarnation should run at Epoch+1.
	Epoch uint64
	// Proc and Input are the journaled identity and protocol input
	// (HasInput reports whether an input record was found).
	Proc     dist.ProcID
	Input    geom.Point
	HasInput bool
	// Delivered is the full delivery sequence, in order. Re-delivering it
	// to a fresh state machine reconstructs the pre-crash protocol state.
	Delivered []dist.Message
	// Decided reports whether a decision record was journaled, and
	// DecidedRound its round.
	Decided      bool
	DecidedRound int
	// Records counts intact records; TornTail is true when the scan ended
	// at a truncated or corrupt record rather than a clean EOF (the
	// expected shape after a crash mid-append), and TornOffset is the file
	// offset of the damage within the source where it was found.
	Records    int
	TornTail   bool
	TornOffset int64
	// Snapshot reports that the base history came from a checkpoint rather
	// than a full log scan; SnapshotFallback that the current checkpoint
	// was torn and the previous one was used instead (with its longer
	// segment tail). Segments counts the rotated segment files replayed
	// after the base.
	Snapshot         bool
	SnapshotFallback bool
	Segments         int
}

// replayState pairs the decoded history with the raw record bodies, which
// seed the in-memory mirror when a log is reopened for a new incarnation.
type replayState struct {
	rep    *Replayed
	epochs int
	bodies [][]byte // non-epoch bodies in order
}

// Replay scans the log at path — checkpoint, rotated segments, then the
// live tail — and reconstructs the journaled history. A torn tail (crash
// mid-append) is tolerated and reported via TornTail; a torn checkpoint
// falls back to the previous checkpoint plus the longer segment tail; an
// unreadable live file is an error.
func Replay(path string) (*Replayed, error) { return ReplayWith(nil, path) }

// ReplayWith is Replay through an explicit filesystem (nil = host).
func ReplayWith(fs FS, path string) (*Replayed, error) {
	st, err := replayFS(fsOrOS(fs), path)
	if err != nil {
		return nil, err
	}
	return st.rep, nil
}

// replayFS is the full recovery scan: base snapshot (with fallback), then
// segments above the snapshot's cover, then the live file. Damage anywhere
// ends the usable history — corruption is never skipped past — and is
// tolerated (reported via TornTail) rather than fatal.
func replayFS(fs FS, path string) (*replayState, error) {
	st := &replayState{rep: &Replayed{}}
	rep := st.rep

	cover := -1
	if snap, fallback, ok := loadBase(fs, path, st); ok {
		cover = snap.cover
		rep.Snapshot = true
		rep.SnapshotFallback = fallback
		if fallback {
			mCheckpointFallbacks.Inc()
		}
	}

	damaged := false
	for _, k := range listSegments(fs, path) {
		if k <= cover || damaged {
			continue
		}
		d, err := replayFile(fs, segmentPath(path, k), st)
		if err != nil {
			return nil, err
		}
		rep.Segments++
		damaged = d
	}
	if !damaged {
		if _, err := replayFile(fs, path, st); err != nil {
			// A missing live file is legal mid-rotation (the crash landed
			// between segment rename and live-file creation); anything else
			// is a real I/O failure.
			if !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
	}

	mReplayRecords.Add(int64(rep.Records))
	if rep.TornTail {
		mReplayTorn.Inc()
	}
	if st.epochs == 0 {
		return st, fmt.Errorf("%w: no epoch record (empty or foreign log)", ErrCorrupt)
	}
	rep.Epoch = uint64(st.epochs - 1)
	return st, nil
}

// loadBase loads the checkpoint history: the current snapshot, or — when it
// is torn, structurally invalid or fails to apply — the previous one. ok is
// false when no usable snapshot exists (including the ordinary
// no-checkpoint single-file layout).
func loadBase(fs FS, path string, st *replayState) (snap *snapshot, fallback, ok bool) {
	for i, p := range []string{path + ckptSuffix, path + ckptPrevSuffix} {
		s, err := readSnapshot(fs, p)
		if err != nil {
			continue
		}
		if applySnapshot(s, st) == nil {
			return s, i == 1, true
		}
		// Applying mutated st; reset it in place before the fallback. The
		// Replayed must be cleared through the existing pointer — replayFS
		// holds an alias to it, and swapping in a fresh struct would strand
		// the Snapshot/Segments/Epoch fields it writes afterwards.
		*st.rep = Replayed{}
		st.epochs = 0
		st.bodies = nil
	}
	return nil, false, false
}

// applySnapshot folds a decoded snapshot into the replay state.
func applySnapshot(s *snapshot, st *replayState) error {
	for _, body := range s.bodies {
		if len(body) == 0 || body[0] == recEpoch {
			return fmt.Errorf("%w: epoch record inside snapshot body", ErrCorrupt)
		}
		if err := st.rep.apply(body); err != nil {
			return err
		}
		st.bodies = append(st.bodies, body)
		st.rep.Records++
	}
	st.epochs = s.epochs
	st.rep.Records += s.epochs
	return nil
}

// replayFile scans one log file into the state. It returns damaged = true
// when the scan ended at a torn or corrupt record (recorded on the
// Replayed); the error return is reserved for I/O failures.
func replayFile(fs FS, path string, st *replayState) (damaged bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return false, err
	}
	defer func() { _ = f.Close() }()
	return scanRecords(bufio.NewReader(f), st), nil
}

// scanRecords folds every intact record from r into the state, stopping at
// damage (torn or corrupt record, or a structurally invalid body behind a
// valid checksum).
func scanRecords(r *bufio.Reader, st *replayState) (damaged bool) {
	rep := st.rep
	var off int64
	for {
		body, n, err := readRecord(r)
		if errors.Is(err, io.EOF) {
			return false
		}
		if err != nil {
			rep.TornTail = true
			rep.TornOffset = off
			return true
		}
		off += n
		if body[0] == recEpoch {
			if len(body) != 1 {
				rep.TornTail = true
				rep.TornOffset = off - n
				return true
			}
			st.epochs++
		} else {
			if err := rep.apply(body); err != nil {
				// Structurally invalid body behind a valid checksum: treat as
				// the end of the usable prefix, like a torn tail.
				rep.TornTail = true
				rep.TornOffset = off - n
				return true
			}
			st.bodies = append(st.bodies, body)
		}
		rep.Records++
	}
}

// apply folds one record body into the replay state.
func (rep *Replayed) apply(body []byte) error {
	switch body[0] {
	case recEpoch:
		if len(body) != 1 {
			return fmt.Errorf("%w: epoch record of %d bytes", ErrCorrupt, len(body))
		}
	case recInput:
		if len(body) < 7 {
			return fmt.Errorf("%w: input record truncated", ErrCorrupt)
		}
		id := dist.ProcID(int32(binary.BigEndian.Uint32(body[1:])))
		d := int(binary.BigEndian.Uint16(body[5:]))
		if len(body) != 7+8*d {
			return fmt.Errorf("%w: input record dimension mismatch", ErrCorrupt)
		}
		p := make(geom.Point, d)
		for i := range p {
			p[i] = math.Float64frombits(binary.BigEndian.Uint64(body[7+8*i:]))
		}
		rep.Proc, rep.Input, rep.HasInput = id, p, true
	case recDelivered:
		msg, err := wire.DecodeMessage(body[1:])
		if err != nil {
			return fmt.Errorf("%w: delivered record: %v", ErrCorrupt, err)
		}
		rep.Delivered = append(rep.Delivered, msg)
	case recDecided:
		if len(body) != 9 {
			return fmt.Errorf("%w: decided record of %d bytes", ErrCorrupt, len(body))
		}
		rep.Decided = true
		rep.DecidedRound = int(int64(binary.BigEndian.Uint64(body[1:])))
	default:
		return fmt.Errorf("%w: unknown record type %d", ErrCorrupt, body[0])
	}
	return nil
}

// DeliveredFrom counts the journaled deliveries whose link-level sender is
// `from` — the receive watermark (next expected sequence number) of that
// directed link after replay.
func (rep *Replayed) DeliveredFrom(from dist.ProcID) uint64 {
	var n uint64
	for _, m := range rep.Delivered {
		if m.From == from {
			n++
		}
	}
	return n
}
