// Package wal implements the durable write-ahead log of the crash-recovery
// runtime. Each process journals its protocol-relevant history — input,
// incarnation epochs, every delivered message, and the decision — as
// CRC-framed records; on restart, package runtime replays the log through a
// fresh state machine and reconstructs byte-identical protocol state
// (Algorithm CC is a deterministic function of its input and delivered
// message sequence, so the log of deliveries IS the state).
//
// Durability contract (output commit, mirroring the paper's stable-vector
// persistence argument): a delivery record must be fsynced before anything
// it could have caused leaves the node — a protocol send, the link-layer ack
// for it, a decision, an admitted instance id. Otherwise a restarted process
// could regenerate a *different* message for an already-transmitted
// (link, seq) pair — equivocation across the restart boundary — or a peer
// could trim a frame the restarted process never durably received. The
// runtime appends inside the reliable-link delivery callback (journal order
// == processing order) and fsyncs at the node's outputs, not per delivery.
//
// Record framing is defensive: u32 length, u32 CRC-32C of the body, then the
// body (u8 record type + payload). Appends are buffered and flushed in
// batches; Sync flushes the buffer and fsyncs once, so consecutive appends
// between syncs share a single write+fsync (group commit). Replay tolerates
// a torn tail — a crash mid-append leaves a truncated or CRC-corrupt final
// record, which is reported, not fatal; corruption is never silently skipped
// past, so a bad record ends the replayed prefix.
//
// All storage I/O goes through the FS/File interfaces (fs.go), so a fault
// plan (package diskfault) can attack exactly the operations the contract
// depends on. With a CheckpointPolicy the log additionally rotates its live
// file into numbered segments and publishes CRC-framed full-history
// snapshots (checkpoint.go), bounding on-disk size: recovery replays
// snapshot + tail instead of the full history, and a torn checkpoint falls
// back to the previous snapshot + a longer tail.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/telemetry"
	"chc/internal/wire"
)

// Record types on disk.
const (
	// recEpoch marks the start of one incarnation; the current epoch of a
	// log is the number of epoch records minus one.
	recEpoch byte = 1
	// recInput journals the process identity and protocol input.
	recInput byte = 2
	// recDelivered journals one message handed to the process, in delivery
	// order (the replay sequence).
	recDelivered byte = 3
	// recDecided marks the decision (termination of the state machine).
	recDecided byte = 4
)

// maxRecordLen bounds a single record body (defensive reader limit).
const maxRecordLen = 64 << 20

// castagnoli is the CRC-32C table used for record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt marks a structurally invalid record during replay.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrCheckpoint marks a Sync that made its records durable (the fsync
// succeeded and the bodies are folded into the mirror) but failed in the
// checkpoint rotation that followed. Callers handling durability failures
// must distinguish it from a plain fsync failure: the records are NOT lost,
// so re-journaling them (e.g. via Rearm pending) would double-count them.
var ErrCheckpoint = errors.New("wal: checkpoint failed after durable sync")

// CheckpointPolicy controls checkpoint/compaction. The zero value disables
// it: the log stays a single append-only file, exactly as before.
type CheckpointPolicy struct {
	// EveryBytes rotates the live file into a numbered segment and publishes
	// a full-history snapshot whenever the live file exceeds this size.
	// Zero disables checkpointing.
	EveryBytes int64
}

// Enabled reports whether the policy triggers checkpoints.
func (p CheckpointPolicy) Enabled() bool { return p.EveryBytes > 0 }

// Options configures a log beyond its path.
type Options struct {
	// FS is the filesystem the log writes through (nil = host filesystem).
	FS FS
	// Checkpoint enables periodic snapshot + segment rotation.
	Checkpoint CheckpointPolicy
	// Mirror keeps the full durable history in memory even without
	// checkpointing — required for degraded-mode re-arm (Rearm), which
	// re-persists the whole history as a fresh snapshot. Checkpointing
	// implies a mirror.
	Mirror bool
}

// WAL is an append-only, CRC-framed log bound to one process. It is safe
// for concurrent use; appends are buffered until Sync (or an explicit
// flush on Close).
type WAL struct {
	mu     sync.Mutex
	fs     FS
	path   string
	f      File
	w      *bufio.Writer
	dirty  int // records appended since the last fsync
	closed bool

	appends     int64
	syncs       int64
	checkpoints int64

	ckpt   CheckpointPolicy
	mirror bool

	liveBytes int64 // framed bytes appended to the live file
	nextSeg   int   // index the next rotated segment will take
	coverCur  int   // highest segment covered by <path>.ckpt (-1 = none)
	coverPrev int   // highest segment covered by <path>.ckpt.prev (-1 = none)

	// Mirror of the durable history (mirror mode): epoch count plus every
	// non-epoch record body in append order. unsynced holds bodies buffered
	// but not yet fsynced; a successful Sync folds them in.
	epochs   int
	history  [][]byte
	unsynced [][]byte
}

// Stats reports the I/O work a log performed.
type Stats struct {
	Appends     int64 // records appended
	Syncs       int64 // fsync batches issued (Sync calls with dirty data)
	Checkpoints int64 // snapshots published (rotations + re-arms)
}

// Add accumulates o into s (totals over several logs or incarnations).
func (s *Stats) Add(o Stats) {
	s.Appends += o.Appends
	s.Syncs += o.Syncs
	s.Checkpoints += o.Checkpoints
}

// Create truncates (or creates) the log at path and starts epoch 0.
func Create(path string) (*WAL, error) { return CreateWith(path, Options{}) }

// CreateWith is Create through explicit options. Stale segments and
// checkpoints left at the path by a previous run are removed first, so the
// new log's replay never sees foreign history.
func CreateWith(path string, o Options) (*WAL, error) {
	fs := fsOrOS(o.FS)
	removeSiblings(fs, path)
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	w := newWAL(fs, path, f, o)
	if err := w.AppendEpoch(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return w, nil
}

// OpenWith opens an existing log for appending a new incarnation. The caller
// is expected to Replay first and then AppendEpoch to fence the restart. In
// mirror/checkpoint mode the full durable history (snapshot + segments + live tail) is replayed into
// the in-memory mirror so later snapshots cover pre-restart records too.
func OpenWith(path string, o Options) (*WAL, error) {
	fs := fsOrOS(o.FS)
	w := newWAL(fs, path, nil, o)
	if w.mirror {
		st, err := replayFS(fs, path)
		if err != nil {
			return nil, err
		}
		w.epochs = st.epochs
		w.history = st.bodies
	}
	// Segment/checkpoint bookkeeping must survive the restart: new rotations
	// take fresh indices and compaction still honours the fallback chain.
	w.nextSeg = maxSegmentIndex(fs, path) + 1
	if snap, err := readSnapshot(fs, path+ckptSuffix); err == nil {
		w.coverCur = snap.cover
	}
	if snap, err := readSnapshot(fs, path+ckptPrevSuffix); err == nil {
		w.coverPrev = snap.cover
	}
	f, err := fs.OpenRW(path)
	if err != nil {
		// A crash between segment rename and live-file creation (mid-rotation
		// or mid-rearm) legally leaves no live file; the segments/checkpoints
		// prove the log exists, so start a fresh live file. A bare missing
		// path with no siblings stays an error — that log never existed.
		if !errors.Is(err, os.ErrNotExist) || (w.nextSeg == 0 && w.coverCur < 0) {
			return nil, err
		}
		if f, err = fs.Create(path); err != nil {
			return nil, err
		}
	}
	// A torn tail from the previous incarnation is dead weight: replay stops
	// at it, and appending after it would hide the new records behind the
	// corruption. Truncate to the last valid record boundary.
	valid, err := validPrefixLen(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.liveBytes = valid
	return w, nil
}

// newWAL builds the struct shared by the constructors.
func newWAL(fs FS, path string, f File, o Options) *WAL {
	w := &WAL{
		fs:        fs,
		path:      path,
		ckpt:      o.Checkpoint,
		mirror:    o.Mirror || o.Checkpoint.Enabled(),
		coverCur:  -1,
		coverPrev: -1,
	}
	if f != nil {
		w.f = f
		w.w = bufio.NewWriter(f)
	}
	return w
}

// removeSiblings deletes segments and checkpoints belonging to path.
func removeSiblings(fs FS, path string) {
	names, err := fs.List(dirOf(path))
	if err != nil {
		return
	}
	base := baseOf(path)
	for _, name := range names {
		if name != base && strings.HasPrefix(name, base+".") {
			_ = fs.Remove(filepath.Join(dirOf(path), name))
		}
	}
}

// append frames and buffers one record. It takes ownership of body: in
// mirror mode the slice itself becomes the mirror entry, so callers hand
// over a freshly built body and do not touch it afterwards.
func (w *WAL) append(body []byte) error {
	if len(body) > maxRecordLen {
		return fmt.Errorf("wal: record of %d bytes exceeds limit", len(body))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendLocked(body)
}

func (w *WAL) appendLocked(body []byte) error {
	if w.closed {
		return ErrClosed
	}
	if w.f == nil {
		return fmt.Errorf("wal: no live file (previous rotation failed)")
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body, castagnoli))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		return err
	}
	w.dirty++
	w.appends++
	w.liveBytes += int64(8 + len(body))
	if w.mirror {
		w.unsynced = append(w.unsynced, body)
	}
	mAppends.Inc()
	return nil
}

// AppendEpoch journals the start of a new incarnation and makes it durable
// immediately (the epoch fence must not be lost behind a batched sync).
func (w *WAL) AppendEpoch() error {
	if err := w.append([]byte{recEpoch}); err != nil {
		return err
	}
	return w.Sync()
}

// AppendInput journals the process identity and its protocol input.
func (w *WAL) AppendInput(id dist.ProcID, input geom.Point) error {
	return w.append(encodeInput(id, input))
}

// encodeInput builds the recInput body.
func encodeInput(id dist.ProcID, input geom.Point) []byte {
	body := make([]byte, 0, 16+8*len(input))
	body = append(body, recInput)
	body = binary.BigEndian.AppendUint32(body, uint32(int32(id)))
	body = binary.BigEndian.AppendUint16(body, uint16(len(input)))
	for _, v := range input {
		body = binary.BigEndian.AppendUint64(body, math.Float64bits(v))
	}
	return body
}

// AppendDelivered journals one delivered message. The record is only
// buffered: a Sync must cover it before the delivery is acknowledged or
// anything it caused leaves the node (see the package comment).
func (w *WAL) AppendDelivered(msg dist.Message) error {
	body, err := encodeDelivered(msg)
	if err != nil {
		return err
	}
	return w.append(body)
}

// encodeDelivered builds the recDelivered body: the record type, then the
// wire encoding of the message appended in place.
func encodeDelivered(msg dist.Message) ([]byte, error) {
	body := make([]byte, 1, 128)
	body[0] = recDelivered
	body, err := wire.AppendMessage(body, msg)
	if err != nil {
		return nil, fmt.Errorf("wal: encode delivered message: %w", err)
	}
	return body, nil
}

// AppendDecided journals termination at the given round.
func (w *WAL) AppendDecided(round int) error {
	return w.append(encodeDecided(round))
}

// encodeDecided builds the recDecided body.
func encodeDecided(round int) []byte {
	body := make([]byte, 9)
	body[0] = recDecided
	binary.BigEndian.PutUint64(body[1:], uint64(int64(round)))
	return body
}

// EncodeDelivered returns the record body AppendDelivered would journal for
// the message. The degraded-mode runtime buffers these bodies while the
// disk is failing and hands them to Rearm to restore durability.
func EncodeDelivered(msg dist.Message) ([]byte, error) { return encodeDelivered(msg) }

// EncodeDecided returns the record body AppendDecided would journal.
func EncodeDecided(round int) []byte { return encodeDecided(round) }

// Sync flushes buffered records and fsyncs them to stable storage. Appends
// since the previous Sync share this one write+fsync (group commit); a Sync
// with nothing buffered is a no-op. When the checkpoint policy's size
// threshold is crossed, the now-durable live file is rotated into a segment
// and a fresh snapshot is published before Sync returns (so a checkpoint
// failure is surfaced as a durability failure, never absorbed silently).
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncLocked()
}

func (w *WAL) syncLocked() error {
	if w.closed {
		return ErrClosed
	}
	if w.dirty == 0 {
		return nil
	}
	var start time.Time
	if timed := telemetry.Enabled() || telemetry.TraceOn(); timed {
		start = time.Now()
	}
	if err := w.flushAndFsync(); err != nil {
		return err
	}
	if !start.IsZero() {
		observeFsync(time.Since(start))
	}
	if w.ckpt.Enabled() && w.liveBytes >= w.ckpt.EveryBytes {
		if err := w.rotateLocked(); err != nil {
			// The records themselves are durable (fsynced and folded above);
			// only the rotation failed. The sentinel lets the durability
			// policy avoid re-journaling what is already in the mirror.
			return fmt.Errorf("%w: %w", ErrCheckpoint, err)
		}
	}
	return nil
}

// flushAndFsync is one group commit (under w.mu): the buffered records reach
// stable storage and, in mirror mode, move into the durable history. With
// nothing buffered it is a no-op.
func (w *WAL) flushAndFsync() error {
	if w.dirty == 0 {
		return nil
	}
	if w.f == nil {
		return fmt.Errorf("wal: no live file (previous rotation failed)")
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	mSyncs.Inc()
	mCommitRecords.Observe(float64(w.dirty))
	w.dirty = 0
	w.syncs++
	if w.mirror {
		w.foldUnsynced()
	}
	return nil
}

// foldUnsynced moves now-durable bodies into the mirror.
func (w *WAL) foldUnsynced() {
	for _, body := range w.unsynced {
		if body[0] == recEpoch {
			w.epochs++
		} else {
			w.history = append(w.history, body)
		}
	}
	w.unsynced = nil
}

// TakeUnsynced removes and returns the bodies appended since the last
// successful Sync (mirror mode; nil otherwise), in append order. The
// degraded-mode runtime calls it after a journaling failure: the uncommitted
// tail becomes the caller's pending non-durable deliveries until a Rearm
// re-persists them, so keeping them in the mirror too would double-count
// them. After a checkpoint failure (ErrCheckpoint) the tail is empty — the
// records were fsynced and folded before the rotation failed.
func (w *WAL) TakeUnsynced() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	tail := w.unsynced
	w.unsynced = nil
	w.w = bufio.NewWriter(w.f) // abandon any partially buffered frame
	w.dirty = 0
	return tail
}

// Stats returns a snapshot of the log's I/O counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return Stats{Appends: w.appends, Syncs: w.syncs, Checkpoints: w.checkpoints}
}

// Abandon closes the log the way a crash does: the file handle is released
// but nothing buffered since the last Sync is flushed, so the unsynced tail
// is lost exactly as if the process had died. The runtime kills nodes with
// it; an orderly shutdown uses Close.
func (w *WAL) Abandon() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	w.closed = true
	if w.f != nil {
		_ = w.f.Close() // the handle of a dead node: no error can matter
	}
}

// Close flushes, fsyncs and closes the log file.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if w.f == nil {
		return nil
	}
	err := w.w.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// validPrefixLen scans f from the start and returns the byte length of the
// longest prefix of intact records.
func validPrefixLen(f File) (int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(f)
	var off int64
	for {
		body, n, err := readRecord(r)
		if err != nil {
			return off, nil // torn or corrupt tail: keep the prefix
		}
		_ = body
		off += n
	}
}

// readRecord reads one framed record, returning its body and total on-disk
// length. io.EOF at a record boundary is returned as-is; any truncation or
// checksum mismatch is ErrCorrupt.
func readRecord(r *bufio.Reader) ([]byte, int64, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, 0, io.EOF
		}
		return nil, 0, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > maxRecordLen {
		return nil, 0, fmt.Errorf("%w: record length %d", ErrCorrupt, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated body", ErrCorrupt)
	}
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(hdr[4:]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return body, int64(8 + n), nil
}
