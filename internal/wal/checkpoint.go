package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// On-disk layout with checkpointing enabled, for base path P:
//
//	P              the live log (appends go here)
//	P.seg-0000000  rotated segments, monotone indices
//	P.ckpt         the current snapshot (atomically renamed into place)
//	P.ckpt.prev    the previous snapshot (fallback for a torn P.ckpt)
//	P.ckpt.tmp     in-flight snapshot (never read)
//
// A snapshot is the full durable history up to and including segment
// `cover`: recovery replays snapshot + segments > cover + live tail, which
// reconstructs exactly the record sequence of the unsegmented log.
// Compaction deletes only segments covered by the *previous* snapshot, so a
// torn current snapshot can always fall back to P.ckpt.prev plus the longer
// tail of still-present segments.
const (
	ckptSuffix     = ".ckpt"
	ckptPrevSuffix = ".ckpt.prev"
	ckptTmpSuffix  = ".ckpt.tmp"
	segSuffix      = ".seg-"
)

// snapMagic brands a checkpoint file; a file without it is torn or foreign.
var snapMagic = []byte("CHCKPT01")

// segmentPath names rotated segment k of base path. The fixed width keeps
// lexical directory order equal to numeric order.
func segmentPath(path string, k int) string {
	return fmt.Sprintf("%s%s%07d", path, segSuffix, k)
}

// segmentIndex parses a directory entry name into its segment index
// (relative to base name), or -1.
func segmentIndex(base, name string) int {
	prefix := base + segSuffix
	if !strings.HasPrefix(name, prefix) {
		return -1
	}
	k, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
	if err != nil || k < 0 {
		return -1
	}
	return k
}

// listSegments returns the sorted segment indices present for path.
func listSegments(fs FS, path string) []int {
	names, err := fs.List(dirOf(path))
	if err != nil {
		return nil
	}
	base := baseOf(path)
	var ks []int
	for _, name := range names {
		if k := segmentIndex(base, name); k >= 0 {
			ks = append(ks, k)
		}
	}
	sort.Ints(ks)
	return ks
}

// maxSegmentIndex returns the highest segment index on disk, or -1.
func maxSegmentIndex(fs FS, path string) int {
	ks := listSegments(fs, path)
	if len(ks) == 0 {
		return -1
	}
	return ks[len(ks)-1]
}

// snapshot is the decoded form of a checkpoint: the segment cover plus the
// mirrored history (epoch count and ordered non-epoch record bodies).
type snapshot struct {
	cover  int
	epochs int
	bodies [][]byte
}

// encodeSnapshot frames the snapshot: magic, then one CRC-framed record
// whose body is cover, epochs, and the length-prefixed record bodies. The
// framing reuses the log's record reader, so torn-tail detection is
// identical to ordinary replay.
func encodeSnapshot(s *snapshot) []byte {
	var body bytes.Buffer
	var u [8]byte
	binary.BigEndian.PutUint64(u[:], uint64(int64(s.cover)))
	body.Write(u[:])
	binary.BigEndian.PutUint64(u[:], uint64(int64(s.epochs)))
	body.Write(u[:])
	binary.BigEndian.PutUint32(u[:4], uint32(len(s.bodies)))
	body.Write(u[:4])
	for _, b := range s.bodies {
		binary.BigEndian.PutUint32(u[:4], uint32(len(b)))
		body.Write(u[:4])
		body.Write(b)
	}

	var out bytes.Buffer
	out.Write(snapMagic)
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(body.Len()))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(body.Bytes(), castagnoli))
	out.Write(hdr[:])
	out.Write(body.Bytes())
	return out.Bytes()
}

// decodeSnapshot parses an encoded snapshot (magic + framed body). Any
// truncation, checksum mismatch or structural damage is an error — the
// caller falls back to the previous snapshot.
func decodeSnapshot(data []byte) (*snapshot, error) {
	if len(data) < len(snapMagic) || !bytes.Equal(data[:len(snapMagic)], snapMagic) {
		return nil, fmt.Errorf("%w: checkpoint magic missing", ErrCorrupt)
	}
	r := bufio.NewReader(bytes.NewReader(data[len(snapMagic):]))
	body, _, err := readRecord(r)
	if err != nil {
		return nil, fmt.Errorf("%w: checkpoint frame: %v", ErrCorrupt, err)
	}
	if _, err := r.ReadByte(); err == nil {
		return nil, fmt.Errorf("%w: trailing data after checkpoint frame", ErrCorrupt)
	}
	if len(body) < 20 {
		return nil, fmt.Errorf("%w: checkpoint body of %d bytes", ErrCorrupt, len(body))
	}
	s := &snapshot{
		cover:  int(int64(binary.BigEndian.Uint64(body[0:]))),
		epochs: int(int64(binary.BigEndian.Uint64(body[8:]))),
	}
	count := int(binary.BigEndian.Uint32(body[16:]))
	if s.epochs <= 0 || s.cover < 0 || count < 0 {
		return nil, fmt.Errorf("%w: checkpoint header (cover=%d epochs=%d count=%d)",
			ErrCorrupt, s.cover, s.epochs, count)
	}
	off := 20
	for i := 0; i < count; i++ {
		if off+4 > len(body) {
			return nil, fmt.Errorf("%w: checkpoint record %d truncated", ErrCorrupt, i)
		}
		n := int(binary.BigEndian.Uint32(body[off:]))
		off += 4
		if n <= 0 || n > maxRecordLen || off+n > len(body) {
			return nil, fmt.Errorf("%w: checkpoint record %d length %d", ErrCorrupt, i, n)
		}
		s.bodies = append(s.bodies, body[off:off+n])
		off += n
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes in checkpoint body", ErrCorrupt, len(body)-off)
	}
	return s, nil
}

// readSnapshot loads and decodes the checkpoint at path.
func readSnapshot(fs FS, path string) (*snapshot, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	return decodeSnapshot(buf.Bytes())
}

// writeSnapshot publishes the snapshot atomically: write to <path>.ckpt.tmp,
// fsync, demote the current checkpoint to .prev, then rename the tmp into
// place. On any failure the previous checkpoint chain is untouched.
func (w *WAL) writeSnapshot(s *snapshot) error {
	tmp := w.path + ckptTmpSuffix
	f, err := w.fs.Create(tmp)
	if err != nil {
		return err
	}
	enc := encodeSnapshot(s)
	if _, err := f.Write(enc); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if w.coverCur >= 0 {
		if err := w.fs.Rename(w.path+ckptSuffix, w.path+ckptPrevSuffix); err != nil {
			return err
		}
	}
	if err := w.fs.Rename(tmp, w.path+ckptSuffix); err != nil {
		return err
	}
	w.coverPrev = w.coverCur
	w.coverCur = s.cover
	w.checkpoints++
	mCheckpoints.Inc()
	return nil
}

// rotateLocked performs one checkpoint cycle under w.mu: the (durable) live
// file becomes segment nextSeg, a snapshot of the full mirror is published
// covering it, segments the *previous* snapshot already covers are deleted,
// and a fresh live file is created. Any failure wedges the live handle
// (w.f = nil) so later appends fail loudly instead of writing to a file
// that replay would double-count.
func (w *WAL) rotateLocked() error {
	if err := w.f.Close(); err != nil {
		w.f = nil
		return err
	}
	w.f = nil
	k := w.nextSeg
	if err := w.fs.Rename(w.path, segmentPath(w.path, k)); err != nil {
		return err
	}
	w.nextSeg++
	if err := w.writeSnapshot(&snapshot{cover: k, epochs: w.epochs, bodies: w.history}); err != nil {
		return err
	}
	w.compactLocked()
	f, err := w.fs.Create(w.path)
	if err != nil {
		return err
	}
	w.f = f
	w.w = bufio.NewWriter(f)
	w.liveBytes = 0
	return nil
}

// compactLocked deletes segments covered by the previous snapshot. Segments
// in (coverPrev, coverCur] must stay: they are the fallback tail when the
// current checkpoint turns out torn on recovery.
func (w *WAL) compactLocked() {
	if w.coverPrev < 0 {
		return
	}
	for _, k := range listSegments(w.fs, w.path) {
		if k <= w.coverPrev {
			if w.fs.Remove(segmentPath(w.path, k)) == nil {
				mSegmentsDeleted.Inc()
			}
		}
	}
}

// Checkpoint forces a snapshot cycle regardless of the size threshold.
// Requires mirror mode (checkpointing or Options.Mirror).
func (w *WAL) Checkpoint() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if !w.mirror {
		return errors.New("wal: Checkpoint requires mirror mode")
	}
	// No threshold check: the rotation below is unconditional.
	if err := w.flushAndFsync(); err != nil {
		return err
	}
	if err := w.rotateLocked(); err != nil {
		// As in syncLocked: everything appended so far is durable, only the
		// snapshot cycle failed.
		return fmt.Errorf("%w: %w", ErrCheckpoint, err)
	}
	return nil
}

// Rearm restores durability after a degraded (non-durable) window: the
// pending record bodies — deliveries the process consumed while the disk
// was failing — are merged into the mirror, the whole history is published
// as a fresh snapshot, and a new live file is created. On success the log
// is fully durable again, *including* the degraded-window deliveries; on
// failure the log stays degraded and the caller retries with backoff.
//
// The old live file (possibly torn mid-record by the original failure) is
// rotated into a segment first: its durable prefix is a subset of the
// mirror, and the snapshot that supersedes it covers that segment, so
// recovery never replays it unless the new snapshot itself is torn — in
// which case the fallback chain ends at the segment's tear, exactly the
// durable prefix the failed disk managed to keep.
func (w *WAL) Rearm(pending [][]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if !w.mirror {
		return errors.New("wal: Rearm requires mirror mode")
	}
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
	if err := w.fs.Rename(w.path, segmentPath(w.path, w.nextSeg)); err == nil {
		w.nextSeg++
	}
	// Stage the merged history and commit it to the mirror only after the
	// snapshot is published: the caller clears its pending list only on a
	// nil return, so a failed attempt must not fold the bodies early (the
	// retry would double-count them).
	merged := make([][]byte, 0, len(w.history)+len(pending))
	merged = append(merged, w.history...)
	epochs := w.epochs
	for _, body := range pending {
		if len(body) == 0 {
			continue
		}
		if body[0] == recEpoch {
			epochs++
		} else {
			merged = append(merged, body)
		}
	}
	cover := w.nextSeg - 1
	if cover < 0 {
		cover = 0
	}
	if err := w.writeSnapshot(&snapshot{cover: cover, epochs: epochs, bodies: merged}); err != nil {
		return err
	}
	w.compactLocked()
	f, err := w.fs.Create(w.path)
	if err != nil {
		// The snapshot published but the fresh live file did not: the attempt
		// failed, so the caller keeps pending. The mirror must stay unmerged —
		// committing it here would make the retry fold pending a second time.
		// Re-publishing the same merged set on retry is harmless (idempotent).
		return err
	}
	w.history = merged
	w.epochs = epochs
	w.unsynced = nil
	w.f = f
	w.w = bufio.NewWriter(f)
	w.liveBytes = 0
	w.dirty = 0
	return nil
}

// LiveSize returns the current live-file length in framed bytes (for tests
// and experiments asserting compaction bounds).
func (w *WAL) LiveSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveBytes
}

// DiskUsage sums the on-disk footprint of the log: live file, segments and
// checkpoints. Experiments use it to assert compaction keeps steady-state
// size bounded.
func DiskUsage(fs FS, path string) int64 {
	fs = fsOrOS(fs)
	var total int64
	if n, err := fs.Size(path); err == nil {
		total += n
	}
	for _, k := range listSegments(fs, path) {
		if n, err := fs.Size(segmentPath(path, k)); err == nil {
			total += n
		}
	}
	for _, suffix := range []string{ckptSuffix, ckptPrevSuffix} {
		if n, err := fs.Size(path + suffix); err == nil {
			total += n
		}
	}
	return total
}

// SegmentCount returns the number of rotated segments on disk.
func SegmentCount(fs FS, path string) int {
	return len(listSegments(fsOrOS(fs), path))
}

// baseOf is filepath.Base, factored beside dirOf.
func baseOf(path string) string { return filepath.Base(path) }
