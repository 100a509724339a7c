package diskfault

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"chc/internal/wal"
)

// opLog replays a fixed operation sequence against a fresh FS and records
// every outcome, so two runs can be compared decision-for-decision.
func opLog(t *testing.T, dir string, plan Plan) []string {
	t.Helper()
	fs := New(wal.OSFS(), plan)
	var log []string
	for _, name := range []string{"node-000.wal", "node-001.wal"} {
		f, err := fs.Create(filepath.Join(dir, name))
		if err != nil {
			log = append(log, "create:"+err.Error())
			continue
		}
		for i := 0; i < 200; i++ {
			n, err := f.Write(make([]byte, 64))
			log = append(log, fmt.Sprintf("w:%d:%v", n, err))
			if i%4 == 3 {
				log = append(log, fmt.Sprintf("s:%v", f.Sync()))
			}
		}
		_ = f.Close()
	}
	return log
}

// TestDeterministicSchedule checks the acceptance property: identical seeds
// produce identical injection schedules, a different seed a different one.
func TestDeterministicSchedule(t *testing.T) {
	plan := Sick()
	plan.Seed = 42
	plan.SyncDelayProb = 0 // keep the test fast; delays don't change fates
	a := opLog(t, t.TempDir(), plan)
	b := opLog(t, t.TempDir(), plan)
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d: %q vs %q", i, a[i], b[i])
		}
	}
	plan.Seed = 43
	c := opLog(t, t.TempDir(), plan)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestFaultKindsInjected checks every probabilistic fault kind fires under a
// hot plan and that the per-kind counters track them.
func TestFaultKindsInjected(t *testing.T) {
	plan := Plan{Seed: 7, WriteErrProb: 0.2, NoSpaceProb: 0.2, TornProb: 0.2,
		SyncErrProb: 0.3, SyncDelayProb: 0.3, SyncDelayMax: time.Microsecond}
	fs := New(wal.OSFS(), plan)
	f, err := fs.Create(filepath.Join(t.TempDir(), "x.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		_, _ = f.Write(make([]byte, 32))
		_ = f.Sync()
	}
	st := fs.Stats()
	if st.WriteErrs == 0 || st.NoSpace == 0 || st.TornWrites == 0 {
		t.Fatalf("write faults not all injected: %+v", st)
	}
	if st.SyncErrs == 0 || st.SyncDelays == 0 {
		t.Fatalf("sync faults not all injected: %+v", st)
	}
	if st.PowerCut {
		t.Fatal("power cut fired without a cut budget")
	}
}

// TestTornWritePersistsPrefix checks a torn write leaves a strict prefix on
// disk: the short count it reports matches the bytes actually persisted.
func TestTornWritePersistsPrefix(t *testing.T) {
	plan := Plan{Seed: 1, TornProb: 0.5}
	fs := New(wal.OSFS(), plan)
	path := filepath.Join(t.TempDir(), "x.wal")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var wrote int64
	for i := 0; i < 50; i++ {
		n, err := f.Write(make([]byte, 100))
		wrote += int64(n)
		if err != nil && !errors.Is(err, ErrTornWrite) {
			t.Fatalf("unexpected error: %v", err)
		}
		if errors.Is(err, ErrTornWrite) && n >= 100 {
			t.Fatalf("torn write reported full count %d", n)
		}
	}
	_ = f.Sync()
	_ = f.Close()
	size, err := fs.Size(path)
	if err != nil {
		t.Fatal(err)
	}
	if size != wrote {
		t.Fatalf("on-disk size %d != reported bytes %d", size, wrote)
	}
	if fs.Stats().TornWrites == 0 {
		t.Fatal("no torn writes at prob 0.5 over 50 ops")
	}
}

// TestPowerCut checks the device dies at the configured byte: the crossing
// write keeps only the budgeted prefix, and everything after fails.
func TestPowerCut(t *testing.T) {
	fs := New(wal.OSFS(), Plan{Seed: 3, CutAtBytes: 250})
	path := filepath.Join(t.TempDir(), "x.wal")
	f, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var cut bool
	for i := 0; i < 10; i++ {
		n, err := f.Write(make([]byte, 100))
		total += int64(n)
		if errors.Is(err, ErrPowerCut) {
			cut = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if !cut {
		t.Fatal("power cut never fired")
	}
	if total != 250 {
		t.Fatalf("persisted %d bytes, want exactly the 250-byte budget", total)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("write after cut: %v, want ErrPowerCut", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("sync after cut: %v, want ErrPowerCut", err)
	}
	if _, err := fs.Create(path + "2"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("create after cut: %v, want ErrPowerCut", err)
	}
	if err := fs.Rename(path, path+".seg"); !errors.Is(err, ErrPowerCut) {
		t.Fatalf("rename after cut: %v, want ErrPowerCut", err)
	}
	if size, _ := fs.Size(path); size != 250 {
		t.Fatalf("on-disk size %d after cut, want 250", size)
	}
	if !fs.Stats().PowerCut {
		t.Fatal("stats do not report the power cut")
	}
}

// TestPathSubstrConfinesFaults checks targeting: only matching paths fault.
func TestPathSubstrConfinesFaults(t *testing.T) {
	plan := Plan{Seed: 9, WriteErrProb: 0.9, PathSubstr: "node-001"}
	fs := New(wal.OSFS(), plan)
	dir := t.TempDir()
	clean, err := fs.Create(filepath.Join(dir, "node-000.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := clean.Write([]byte("ok")); err != nil {
			t.Fatalf("fault on non-matching path: %v", err)
		}
	}
	dirty, err := fs.Create(filepath.Join(dir, "node-001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	faults := 0
	for i := 0; i < 50; i++ {
		if _, err := dirty.Write([]byte("ok")); err != nil {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults on matching path at prob 0.9")
	}
}

// TestAfterOpsGrace checks the grace window: the first AfterOps operations
// on each file never fault.
func TestAfterOpsGrace(t *testing.T) {
	plan := Plan{Seed: 5, WriteErrProb: 0.9, SyncErrProb: 0.9, AfterOps: 20}
	fs := New(wal.OSFS(), plan)
	f, err := fs.Create(filepath.Join(t.TempDir(), "x.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("fault inside grace window (write %d): %v", i, err)
		}
		if err := f.Sync(); err != nil {
			t.Fatalf("fault inside grace window (sync %d): %v", i, err)
		}
	}
	faults := 0
	for i := 0; i < 30; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("no faults after grace window at prob 0.9")
	}
}

// TestParsePlanRoundTrip checks spec parsing, presets, refinement, String.
func TestParsePlanRoundTrip(t *testing.T) {
	for _, spec := range []string{"", "off", "none"} {
		p, err := ParsePlan(spec)
		if err != nil || p.Enabled() {
			t.Fatalf("ParsePlan(%q) = %+v, %v", spec, p, err)
		}
	}
	p, err := ParsePlan("flaky")
	if err != nil || p != Flaky() {
		t.Fatalf("ParsePlan(flaky) = %+v, %v", p, err)
	}
	p, err = ParsePlan("sick,syncerr=0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := Sick()
	want.SyncErrProb = 0.5
	if p != want {
		t.Fatalf("refined preset = %+v, want %+v", p, want)
	}
	p, err = ParsePlan("werr=0.1,nospc=0.05,torn=0.02,syncerr=0.3,slow=0.2:1ms-5ms,cut=4096,path=node-002,after=8")
	if err != nil {
		t.Fatal(err)
	}
	if p.WriteErrProb != 0.1 || p.NoSpaceProb != 0.05 || p.TornProb != 0.02 ||
		p.SyncErrProb != 0.3 || p.SyncDelayProb != 0.2 ||
		p.SyncDelayMin != time.Millisecond || p.SyncDelayMax != 5*time.Millisecond ||
		p.CutAtBytes != 4096 || p.PathSubstr != "node-002" || p.AfterOps != 8 {
		t.Fatalf("custom plan = %+v", p)
	}
	// String must round-trip back to an equal plan.
	back, err := ParsePlan(p.String())
	if err != nil || back != p {
		t.Fatalf("round-trip %q = %+v, %v", p.String(), back, err)
	}
	for _, bad := range []string{"werr=2", "slow=x", "cut=-1", "bogus=1", "off,werr=0.1"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted", bad)
		}
	}
}

// TestMemFSKeepsOnlyWhatWasSynced pins the crash model of the in-memory
// filesystem: a write is visible at once, a crash image holds only what a
// Sync covered, and a writer that closes without syncing takes its tail
// along.
func TestMemFSKeepsOnlyWhatWasSynced(t *testing.T) {
	m := NewMemFS()
	read := func(fs *MemFS, path string) string {
		t.Helper()
		f, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = f.Close() }()
		b, err := io.ReadAll(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	f, err := m.Create("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("durable.")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if got := read(m, "/d/log"); got != "durable.tail" {
		t.Errorf("live view = %q", got)
	}
	img := m.CrashImage()
	if got := read(img, "/d/log"); got != "durable." {
		t.Errorf("crash image = %q, want only the synced prefix", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read(m, "/d/log"); got != "durable." {
		t.Errorf("after an unsynced close = %q, want the tail gone", got)
	}
	if names, _ := m.List("/d"); len(names) != 1 || names[0] != "log" {
		t.Errorf("List = %v", names)
	}
	if _, err := m.Open("/d/none"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("open of a missing file = %v", err)
	}
	// The image is independent of the filesystem it was taken from.
	g, err := m.OpenRW("/d/log")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := read(img, "/d/log"); got != "durable." {
		t.Errorf("crash image changed under a later write: %q", got)
	}
}
