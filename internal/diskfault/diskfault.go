// Package diskfault injects seeded, deterministic storage faults underneath
// the write-ahead log. It implements wal.FS/wal.File around any base
// filesystem and attacks exactly the operations the durability contract
// depends on: write errors (EIO), out-of-space failures (ENOSPC), torn
// (short) writes that persist only a prefix of the record, fsync failures,
// fsync latency spikes, and a power-cut that truncates the file at a chosen
// byte and kills the device.
//
// Determinism mirrors package chaos: the fate of the k-th operation of a
// given kind on a given file is a pure function of (seed, path, kind, k),
// independent of goroutine scheduling. Two runs with the same seed and the
// same per-file operation sequences therefore inject identical fault
// schedules, so a failing storage-fault run can be replayed. Fault plans
// compose freely with chaos plans and crash/restart schedules: chaos
// attacks the links, restarts attack the processes, this package attacks
// the disk.
package diskfault

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/wal"
)

// Injected fault errors. They intentionally mimic the shape of the OS
// errors they model; callers detect durability failure generically (any
// error from the WAL write path), not by unwrapping these.
var (
	// ErrInjectedWrite models EIO: the write failed, nothing was persisted.
	ErrInjectedWrite = errors.New("diskfault: injected write error (EIO)")
	// ErrNoSpace models ENOSPC: the device is full.
	ErrNoSpace = errors.New("diskfault: injected no-space error (ENOSPC)")
	// ErrTornWrite models a short write: a prefix of the buffer was
	// persisted before the failure.
	ErrTornWrite = errors.New("diskfault: injected torn write")
	// ErrInjectedSync models a failed fsync: buffered data may or may not
	// have reached the platter.
	ErrInjectedSync = errors.New("diskfault: injected fsync error")
	// ErrPowerCut models the device dying at the configured byte: the
	// current write keeps only the budgeted prefix and every later
	// operation on matching files fails.
	ErrPowerCut = errors.New("diskfault: power cut")
)

// FS wraps a base filesystem with a fault plan. It is safe for concurrent
// use; per-file operation counters are independent, so concurrency across
// files does not perturb the per-file fault schedule.
type FS struct {
	base wal.FS
	plan Plan

	mu    sync.Mutex
	files map[string]*fileState // per-path op counters, shared across opens

	cutBudget atomic.Int64 // remaining bytes before the power cut (plan.CutAtBytes > 0)
	cut       atomic.Bool  // the power cut has fired

	stats Stats
}

// fileState carries the deterministic per-path fault schedule position.
type fileState struct {
	writes int64 // write ops issued on this path
	syncs  int64 // sync ops issued on this path
	ops    int64 // all counted ops (AfterOps grace)
}

// Stats counts injected faults (atomic; read with Stats()).
type Stats struct {
	Writes     int64 // write calls on matching files
	Syncs      int64 // sync calls on matching files
	WriteErrs  int64 // injected EIO
	NoSpace    int64 // injected ENOSPC
	TornWrites int64 // injected short writes
	SyncErrs   int64 // injected fsync failures
	SyncDelays int64 // injected fsync latency spikes
	PowerCut   bool  // the power cut has fired
	DelayTotal time.Duration
}

// New wraps base (nil = the host filesystem) with the plan.
func New(base wal.FS, plan Plan) *FS {
	if base == nil {
		base = wal.OSFS()
	}
	f := &FS{base: base, plan: plan, files: make(map[string]*fileState)}
	if plan.CutAtBytes > 0 {
		f.cutBudget.Store(plan.CutAtBytes)
	}
	return f
}

var _ wal.FS = (*FS)(nil)

// Plan returns the fault plan the filesystem runs.
func (f *FS) Plan() Plan { return f.plan }

// Stats returns a copy of the injection counters.
func (f *FS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.PowerCut = f.cut.Load()
	return st
}

// matches reports whether the plan attacks this path.
func (f *FS) matches(path string) bool {
	return f.plan.Enabled() && f.plan.matches(path)
}

// state returns the shared per-path counters.
func (f *FS) state(path string) *fileState {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.files[path]
	if st == nil {
		st = &fileState{}
		f.files[path] = st
	}
	return st
}

// deadDevice reports whether the power cut already fired for this path.
func (f *FS) deadDevice(path string) bool {
	return f.cut.Load() && f.matches(path)
}

func (f *FS) Create(path string) (wal.File, error) {
	if f.deadDevice(path) {
		return nil, ErrPowerCut
	}
	file, err := f.base.Create(path)
	if err != nil {
		return nil, err
	}
	if !f.matches(path) {
		return file, nil
	}
	return &faultFile{fs: f, path: path, st: f.state(path), f: file}, nil
}

func (f *FS) OpenRW(path string) (wal.File, error) {
	if f.deadDevice(path) {
		return nil, ErrPowerCut
	}
	file, err := f.base.OpenRW(path)
	if err != nil {
		return nil, err
	}
	if !f.matches(path) {
		return file, nil
	}
	return &faultFile{fs: f, path: path, st: f.state(path), f: file}, nil
}

func (f *FS) Open(path string) (wal.File, error) {
	// Reads are never faulted: the replay path is exercised against the
	// bytes the faulty writes actually persisted.
	return f.base.Open(path)
}

func (f *FS) Rename(oldpath, newpath string) error {
	if f.deadDevice(oldpath) || f.deadDevice(newpath) {
		return ErrPowerCut
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FS) Remove(path string) error {
	if f.deadDevice(path) {
		return ErrPowerCut
	}
	return f.base.Remove(path)
}

func (f *FS) List(dir string) ([]string, error) { return f.base.List(dir) }

func (f *FS) Size(path string) (int64, error) { return f.base.Size(path) }

// faultFile interposes the plan on one file handle.
type faultFile struct {
	fs   *FS
	path string
	st   *fileState
	f    wal.File
}

var _ wal.File = (*faultFile)(nil)

func (ff *faultFile) Read(p []byte) (int, error)                { return ff.f.Read(p) }
func (ff *faultFile) Seek(off int64, whence int) (int64, error) { return ff.f.Seek(off, whence) }

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	if fs.cut.Load() {
		return 0, ErrPowerCut
	}
	fs.mu.Lock()
	ff.st.writes++
	ff.st.ops++
	k := ff.st.writes
	graced := ff.st.ops <= fs.plan.AfterOps
	fs.stats.Writes++
	fs.mu.Unlock()

	// The power cut consumes its byte budget regardless of the grace
	// window: it models the device dying at an absolute offset.
	if fs.plan.CutAtBytes > 0 {
		rem := fs.cutBudget.Add(-int64(len(p)))
		if rem < 0 {
			keep := len(p) + int(rem)
			if keep < 0 {
				keep = 0
			}
			if keep > 0 {
				_, _ = ff.f.Write(p[:keep])
				_ = ff.f.Sync()
			}
			fs.cut.Store(true)
			mPowerCuts.Inc()
			return keep, ErrPowerCut
		}
	}
	if graced {
		return ff.f.Write(p)
	}

	switch fate, frac := fs.plan.writeFate(ff.path, k); fate {
	case fateWriteErr:
		fs.count(&fs.stats.WriteErrs)
		mWriteErrs.Inc()
		return 0, ErrInjectedWrite
	case fateNoSpace:
		fs.count(&fs.stats.NoSpace)
		mNoSpace.Inc()
		return 0, ErrNoSpace
	case fateTorn:
		keep := int(frac * float64(len(p)))
		if keep >= len(p) {
			keep = len(p) - 1
		}
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			_, _ = ff.f.Write(p[:keep])
		}
		fs.count(&fs.stats.TornWrites)
		mTornWrites.Inc()
		return keep, ErrTornWrite
	default:
		return ff.f.Write(p)
	}
}

func (ff *faultFile) Sync() error {
	fs := ff.fs
	if fs.cut.Load() {
		return ErrPowerCut
	}
	fs.mu.Lock()
	ff.st.syncs++
	ff.st.ops++
	k := ff.st.syncs
	graced := ff.st.ops <= fs.plan.AfterOps
	fs.stats.Syncs++
	fs.mu.Unlock()
	if graced {
		return ff.f.Sync()
	}
	switch fate, d := fs.plan.syncFate(ff.path, k); fate {
	case fateSyncErr:
		fs.count(&fs.stats.SyncErrs)
		mSyncErrs.Inc()
		return ErrInjectedSync
	case fateSyncDelay:
		fs.count(&fs.stats.SyncDelays)
		fs.mu.Lock()
		fs.stats.DelayTotal += d
		fs.mu.Unlock()
		mSyncDelays.Inc()
		time.Sleep(d)
		return ff.f.Sync()
	default:
		return ff.f.Sync()
	}
}

func (ff *faultFile) Truncate(size int64) error {
	if ff.fs.cut.Load() {
		return ErrPowerCut
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// count bumps one stats field under the mutex.
func (f *FS) count(field *int64) {
	f.mu.Lock()
	*field++
	f.mu.Unlock()
}

// String describes the filesystem for diagnostics.
func (f *FS) String() string {
	return fmt.Sprintf("diskfault.FS(%s)", f.plan.String())
}
