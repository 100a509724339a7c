package chaos

import (
	"sync"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/wire"
)

// recorder captures the sequence of frames that survive injection.
type recorder struct {
	mu   sync.Mutex
	seqs []uint64
}

func (r *recorder) SendFrame(to dist.ProcID, f wire.Frame) error {
	r.mu.Lock()
	r.seqs = append(r.seqs, f.Seq)
	r.mu.Unlock()
	return nil
}

func (r *recorder) snapshot() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.seqs...)
}

// TestDeterministicFaultPlan runs the same frame sequence through two
// injectors built from the same seed and requires identical decisions —
// this is what makes a chaos run replayable.
func TestDeterministicFaultPlan(t *testing.T) {
	profile := Profile{Drop: 0.3, Dup: 0.2} // no delay: keep ordering exact
	run := func() []uint64 {
		rec := &recorder{}
		inj := New(0, 3, profile, 42, rec)
		for s := uint64(0); s < 200; s++ {
			_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, From: 0, Seq: s})
		}
		return rec.snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at frame %d: %d vs %d", i, a[i], b[i])
		}
	}
	if len(a) == 200 {
		t.Error("no faults injected at drop=0.3, dup=0.2 over 200 frames")
	}
}

// TestLinksAreDecorrelated checks different links get different fault
// streams from the same seed.
func TestLinksAreDecorrelated(t *testing.T) {
	profile := Profile{Drop: 0.5}
	decisions := func(self, to dist.ProcID) []uint64 {
		rec := &recorder{}
		inj := New(self, 4, profile, 7, rec)
		for s := uint64(0); s < 100; s++ {
			_ = inj.SendFrame(to, wire.Frame{Type: wire.FrameData, From: self, Seq: s})
		}
		return rec.snapshot()
	}
	a := decisions(0, 1)
	b := decisions(0, 2)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("links 0->1 and 0->2 received identical fault streams")
	}
}

// TestCounters verifies each fault class is counted.
func TestCounters(t *testing.T) {
	rec := &recorder{}
	inj := New(0, 2, Profile{Drop: 0.5, Dup: 0.3}, 3, rec)
	for s := uint64(0); s < 300; s++ {
		_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, From: 0, Seq: s})
	}
	st := inj.Stats()
	if st.Drops == 0 || st.Dups == 0 {
		t.Errorf("expected drops and dups, got %+v", st)
	}
	forwarded := int64(len(rec.snapshot()))
	if forwarded != 300-st.Drops+st.Dups {
		t.Errorf("forwarded %d frames, want %d", forwarded, 300-st.Drops+st.Dups)
	}
}

// TestDelayDelivers verifies delayed frames still arrive (asynchronously)
// and are counted.
func TestDelayDelivers(t *testing.T) {
	rec := &recorder{}
	inj := New(0, 2, Profile{DelayMin: time.Millisecond, DelayMax: 2 * time.Millisecond}, 5, rec)
	for s := uint64(0); s < 10; s++ {
		_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, From: 0, Seq: s})
	}
	if got := len(rec.snapshot()); got != 0 {
		t.Fatalf("%d frames arrived synchronously despite the delay floor", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && len(rec.snapshot()) < 10 {
		time.Sleep(time.Millisecond)
	}
	if got := len(rec.snapshot()); got != 10 {
		t.Fatalf("delivered %d delayed frames, want 10", got)
	}
	if st := inj.Stats(); st.Delays != 10 {
		t.Errorf("Delays = %d, want 10", st.Delays)
	}
}

// TestPartition verifies the isolation set semantics: only links crossing
// the cut are dropped, and only inside the window.
func TestPartition(t *testing.T) {
	profile := Profile{Partitions: []Partition{
		{Start: 0, End: time.Hour, Isolated: []dist.ProcID{0}},
	}}
	rec := &recorder{}
	cut := New(0, 3, profile, 1, rec) // 0 -> 1 crosses the cut
	_ = cut.SendFrame(1, wire.Frame{Type: wire.FrameData})
	if len(rec.snapshot()) != 0 {
		t.Error("frame crossed an active partition")
	}
	if st := cut.Stats(); st.PartitionDrops != 1 {
		t.Errorf("PartitionDrops = %d, want 1", st.PartitionDrops)
	}

	rec2 := &recorder{}
	inside := New(1, 3, profile, 1, rec2) // 1 -> 2 stays on one side
	_ = inside.SendFrame(2, wire.Frame{Type: wire.FrameData})
	if len(rec2.snapshot()) != 1 {
		t.Error("same-side frame was dropped by the partition")
	}

	// Expired window: everything passes.
	done := Profile{Partitions: []Partition{
		{Start: 0, End: time.Nanosecond, Isolated: []dist.ProcID{0}},
	}}
	rec3 := &recorder{}
	healed := New(0, 3, done, 1, rec3)
	time.Sleep(time.Millisecond)
	_ = healed.SendFrame(1, wire.Frame{Type: wire.FrameData})
	if len(rec3.snapshot()) != 1 {
		t.Error("frame dropped after the partition healed")
	}
}

// TestFramePartition verifies frame-counted windows: the cut covers exactly
// frames [StartFrame, EndFrame) of each affected link, independent of time.
func TestFramePartition(t *testing.T) {
	profile := Profile{Partitions: []Partition{
		{StartFrame: 2, EndFrame: 5, Isolated: []dist.ProcID{0}},
	}}
	rec := &recorder{}
	inj := New(0, 3, profile, 1, rec)
	for s := uint64(0); s < 8; s++ {
		_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, Seq: s})
	}
	got := rec.snapshot()
	want := []uint64{0, 1, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("forwarded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forwarded %v, want %v", got, want)
		}
	}
	if st := inj.Stats(); st.PartitionDrops != 3 {
		t.Errorf("PartitionDrops = %d, want 3", st.PartitionDrops)
	}
	// The window is per-link: a different link has its own frame counter and
	// its frames 0..1 pass even though link 0->1 is past frame 5.
	rec2 := &recorder{}
	inj2 := New(0, 3, profile, 1, rec2)
	_ = inj2.SendFrame(1, wire.Frame{Type: wire.FrameData})
	_ = inj2.SendFrame(2, wire.Frame{Type: wire.FrameData})
	if len(rec2.snapshot()) != 2 {
		t.Error("pre-window frames dropped")
	}
}

// TestFramePartitionDeterminism: with a frame-counted partition in the
// profile, the *entire* fault plan — partitions included — replays exactly
// from the seed. This is the property the wall-clock form cannot give.
func TestFramePartitionDeterminism(t *testing.T) {
	profile := Profile{Drop: 0.2, Dup: 0.1, Partitions: []Partition{
		{StartFrame: 10, EndFrame: 40, Isolated: []dist.ProcID{0}},
	}}
	run := func() []uint64 {
		rec := &recorder{}
		inj := New(0, 3, profile, 99, rec)
		for s := uint64(0); s < 150; s++ {
			_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, Seq: s})
		}
		return rec.snapshot()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at frame %d", i)
		}
	}
}

// TestInjectableClock drives a wall-clock partition window from a fake
// clock, with no sleeping.
func TestInjectableClock(t *testing.T) {
	profile := Profile{Partitions: []Partition{
		{Start: 10 * time.Millisecond, End: 20 * time.Millisecond, Isolated: []dist.ProcID{0}},
	}}
	now := time.Duration(0)
	rec := &recorder{}
	inj := NewWithClock(0, 2, profile, 1, rec, func() time.Duration { return now })
	_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, Seq: 0})
	now = 15 * time.Millisecond
	_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, Seq: 1})
	now = 25 * time.Millisecond
	_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData, Seq: 2})
	got := rec.snapshot()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("forwarded %v, want [0 2]", got)
	}
}

// TestClosedInjectorPassesThrough: after Close, chaos is disarmed so
// shutdown traffic flows unharmed.
func TestClosedInjectorPassesThrough(t *testing.T) {
	rec := &recorder{}
	inj := New(0, 2, Profile{Drop: 1.0}, 1, rec)
	_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData})
	if len(rec.snapshot()) != 0 {
		t.Fatal("drop=1.0 should drop everything")
	}
	_ = inj.Close()
	_ = inj.SendFrame(1, wire.Frame{Type: wire.FrameData})
	if len(rec.snapshot()) != 1 {
		t.Error("closed injector should pass frames through")
	}
}

func TestParseProfile(t *testing.T) {
	cases := []struct {
		spec string
		ok   bool
	}{
		{"off", true},
		{"", true},
		{"light", true},
		{"heavy", true},
		{"drop=0.2,dup=0.1", true},
		{"delay=100us-2ms", true},
		{"delay=2ms", true},
		{"part=5ms-25ms:0+1", true},
		{"part=5f-60f:0+1", true},
		{"part=60f:2", true}, // single frame count = window [0, 60)
		{"part=5f-2f:0", false},
		{"part=5f-2ms:0", false}, // mixed frame/duration bounds
		{"part=xf-9f:0", false},
		{"drop=0.2,dup=0.05,delay=0.1ms-1ms,part=1ms-9ms:2", true},
		{"drop=1.5", false},
		{"drop=x", false},
		{"nope=1", false},
		{"part=5ms:0", true}, // single duration = window [0, 5ms)
		{"part=9ms-5ms:0", false},
		{"delay", false},
		{"heavy,drop=0.3", true}, // presets refine like the other plan grammars
		{"off,drop=0.3", false},
	}
	for _, c := range cases {
		p, err := ParseProfile(c.spec)
		if c.ok && err != nil {
			t.Errorf("ParseProfile(%q): unexpected error %v", c.spec, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseProfile(%q): expected an error, got %+v", c.spec, p)
		}
	}
	p, err := ParseProfile("drop=0.25,delay=1ms-3ms,part=5ms-25ms:0+2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.25 || p.DelayMin != time.Millisecond || p.DelayMax != 3*time.Millisecond {
		t.Errorf("parsed profile mismatch: %+v", p)
	}
	if len(p.Partitions) != 1 || len(p.Partitions[0].Isolated) != 2 {
		t.Errorf("parsed partitions mismatch: %+v", p.Partitions)
	}
	fp, err := ParseProfile("part=5f-60f:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Partitions) != 1 || fp.Partitions[0].StartFrame != 5 || fp.Partitions[0].EndFrame != 60 {
		t.Errorf("parsed frame partition mismatch: %+v", fp.Partitions)
	}
	if s := fp.String(); s != "part=5f-60f:0" {
		t.Errorf("String() = %q, want part=5f-60f:0", s)
	}
	// Round-trip through String for the enabled fields.
	if s := p.String(); s == "" || s == "off" {
		t.Errorf("String() = %q for an enabled profile", s)
	}
	if Light().Enabled() != true || (Profile{}).Enabled() != false {
		t.Error("Enabled() misclassifies profiles")
	}
	refined, err := ParseProfile("heavy,drop=0.3")
	if want := Heavy(); err != nil || refined.Drop != 0.3 || refined.Dup != want.Dup || len(refined.Partitions) != len(want.Partitions) {
		t.Errorf("heavy,drop=0.3 = %+v, %v; want Heavy with Drop 0.3", refined, err)
	}
}
