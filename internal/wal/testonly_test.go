package wal

import (
	"bufio"
	"fmt"
)

// Helpers only the tests and fuzz targets of this package use.

// Open opens an existing log for appending a new incarnation with default
// options. The caller is expected to Replay first and then AppendEpoch to
// fence the restart.
func Open(path string) (*WAL, error) { return OpenWith(path, Options{}) }

// replayReader decodes a single-file log from a reader (the pre-checkpoint
// layout).
func replayReader(r *bufio.Reader) (*Replayed, error) {
	st := &replayState{rep: &Replayed{}}
	scanRecords(r, st)
	mReplayRecords.Add(int64(st.rep.Records))
	if st.rep.TornTail {
		mReplayTorn.Inc()
	}
	if st.epochs == 0 {
		return st.rep, fmt.Errorf("%w: no epoch record (empty or foreign log)", ErrCorrupt)
	}
	st.rep.Epoch = uint64(st.epochs - 1)
	return st.rep, nil
}

// DiskUsage sums the on-disk footprint of the log: live file, segments and
// checkpoints, so a test can assert that compaction keeps the steady-state
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
