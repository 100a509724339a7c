package diskfault

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"chc/internal/wal"
)

// MemFS is an in-memory wal.FS with a volatile write cache: a write is
// visible to readers at once but survives only once a Sync on its handle has
// covered it. It models the crash the host filesystem cannot — killing a
// process leaves what the operating system holds, a power cut does not:
//
//   - closing a writable handle discards every byte written since the last
//     Sync (a writer that dies — wal.(*WAL).Abandon — loses its tail; an
//     orderly Close syncs first and loses nothing);
//   - CrashImage returns the filesystem a power cut at this instant would
//     leave behind, so a test can ask "is this already durable?" at the
//     moment an output leaves a node.
//
// Namespace operations (create, truncate, rename, remove) take effect
// durably at once: the journal's crash model is about data written after the
// last sync, not about directory entries. Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string]*memNode
}

// memNode is one file: the bytes readers see and the prefix-or-equal copy a
// crash would keep.
type memNode struct {
	data   []byte // current contents, unsynced writes included
	synced []byte // contents as of the last Sync
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string]*memNode)} }

var _ wal.FS = (*MemFS)(nil)

// CrashImage returns an independent filesystem holding, for every file, only
// what its last Sync covered.
func (m *MemFS) CrashImage() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMemFS()
	for path, n := range m.files {
		img.files[path] = &memNode{
			data:   append([]byte(nil), n.synced...),
			synced: append([]byte(nil), n.synced...),
		}
	}
	return img
}

func (m *MemFS) Create(path string) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := &memNode{}
	m.files[path] = n
	return &memFile{fs: m, n: n, writable: true}, nil
}

func (m *MemFS) OpenRW(path string) (wal.File, error) { return m.open(path, true) }

func (m *MemFS) Open(path string) (wal.File, error) { return m.open(path, false) }

func (m *MemFS) open(path string, writable bool) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return &memFile{fs: m, n: n, writable: writable}, nil
}

func (m *MemFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[oldpath]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = n
	return nil
}

func (m *MemFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}

func (m *MemFS) List(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for path := range m.files {
		if filepath.Dir(path) == filepath.Clean(dir) {
			names = append(names, filepath.Base(path))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *MemFS) Size(path string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.files[path]
	if !ok {
		return 0, &os.PathError{Op: "stat", Path: path, Err: os.ErrNotExist}
	}
	return int64(len(n.data)), nil
}

// memFile is one open handle with its own offset.
type memFile struct {
	fs       *MemFS
	n        *memNode
	off      int64
	writable bool
	closed   bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, os.ErrClosed
	}
	if f.off >= int64(len(f.n.data)) {
		return 0, io.EOF
	}
	k := copy(p, f.n.data[f.off:])
	f.off += int64(k)
	return k, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed || !f.writable {
		return 0, os.ErrClosed
	}
	if end := f.off + int64(len(p)); end > int64(len(f.n.data)) {
		f.n.data = append(f.n.data, make([]byte, end-int64(len(f.n.data)))...)
	}
	copy(f.n.data[f.off:], p)
	f.off += int64(len(p))
	return len(p), nil
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		off += f.off
	case io.SeekEnd:
		off += int64(len(f.n.data))
	}
	if off < 0 {
		return 0, os.ErrInvalid
	}
	f.off = off
	return off, nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.n.synced = append(f.n.synced[:0], f.n.data...)
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed || !f.writable || size < 0 || size > int64(len(f.n.data)) {
		return os.ErrInvalid
	}
	f.n.data = f.n.data[:size]
	if int64(len(f.n.synced)) > size {
		f.n.synced = f.n.synced[:size]
	}
	return nil
}

// Close releases the handle. A writable handle takes its unsynced bytes with
// it: the file falls back to what the last Sync covered.
func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return os.ErrClosed
	}
	f.closed = true
	if f.writable {
		f.n.data = append(f.n.data[:0], f.n.synced...)
	}
	return nil
}
