package wan

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"chc/internal/dist"
	"chc/internal/telemetry"
	"chc/internal/wire"
)

func TestParsePlanRoundTrip(t *testing.T) {
	specs := []string{
		"off",
		"3-regions",
		"us-eu-ap",
		"star,regions=5",
		"clos,delay=0.01,jitter=0.5,tail=0.02,tailx=4,bw=32mb,msg=256",
		"3-regions,jitter=0",
		"us-eu-ap,cut=us->eu@100ms-300ms,cut=3->4@1s-2s",
		"3-regions,link=0->1:5ms,link=1->0:5ms/1mb",
	}
	for _, spec := range specs {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		back, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(String(%q)=%q): %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, back) {
			t.Errorf("round trip %q -> %q: %+v != %+v", spec, p.String(), p, back)
		}
	}
	if p, _ := ParsePlan("off"); p.Enabled() {
		t.Errorf("off parsed as enabled")
	}
	if p, _ := ParsePlan("delay=0.5"); p.Topology != "3-regions" {
		t.Errorf("bare keys defaulted topology to %q, want 3-regions", p.Topology)
	}
}

func TestParsePlanErrors(t *testing.T) {
	bad := []string{
		"nope",                     // unknown leading token, not key=value
		"topo=nope",                // unknown topology
		"off,delay=0.5",            // off cannot be refined
		"3-regions,regions=1",      // regions < 2
		"3-regions,delay=-1",       // negative scale
		"3-regions,jitter=2",       // fraction out of range
		"3-regions,tailx=0.5",      // multiplier < 1
		"3-regions,bw=fast",        // bad rate
		"3-regions,cut=a-b",        // bad cut grammar
		"3-regions,cut=a->b@5s-1s", // window end before start
		"3-regions,link=0-1:5ms",   // bad link grammar
		"3-regions,wat=1",          // unknown key
	}
	for _, spec := range bad {
		if _, err := ParsePlan(spec); err == nil {
			t.Errorf("ParsePlan(%q) accepted, want error", spec)
		}
	}
}

func TestModelResolution(t *testing.T) {
	plan, err := ParsePlan("us-eu-ap,link=0->5:3ms/1mb")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plan, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Contiguous assignment: 6 processes over 3 regions => 2 per region.
	want := []int{0, 0, 1, 1, 2, 2}
	for i, r := range want {
		if got := m.RegionOf(dist.ProcID(i)); got != r {
			t.Errorf("RegionOf(%d) = %d, want %d", i, got, r)
		}
	}
	if got := m.PathLabel(0, 5); got != "us->ap" {
		t.Errorf("PathLabel(0,5) = %q, want us->ap", got)
	}
	if got := m.BaseDelay(0, 2); got != 40*time.Millisecond {
		t.Errorf("BaseDelay(us,eu) = %v, want 40ms", got)
	}
	if got := m.BaseDelay(0, 1); got != time.Millisecond {
		t.Errorf("BaseDelay(intra us) = %v, want 1ms", got)
	}
	// The link override wins over the matrix, in its direction only.
	if got := m.BaseDelay(0, 5); got != 3*time.Millisecond {
		t.Errorf("BaseDelay(override 0->5) = %v, want 3ms", got)
	}
	if got := m.Bandwidth(0, 5); got != 1<<20 {
		t.Errorf("Bandwidth(override 0->5) = %v, want 1MiB/s", got)
	}
	if got := m.BaseDelay(5, 0); got != 75*time.Millisecond {
		t.Errorf("BaseDelay(5->0) = %v, want matrix 75ms", got)
	}

	// us-eu-ap is pinned at 3 regions.
	if _, err := NewModel(Plan{Topology: "us-eu-ap", Regions: 4}, 8, 1); err == nil {
		t.Errorf("us-eu-ap with regions=4 accepted, want error")
	}
	// More regions than processes clamps.
	m2, err := NewModel(Plan{Topology: "star", Regions: 8}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Regions() != 3 {
		t.Errorf("regions = %d, want clamp to n=3", m2.Regions())
	}
}

func TestDelayDeterministicAndScaled(t *testing.T) {
	plan, _ := ParsePlan("3-regions,delay=0.1,tail=0.05")
	a, err := NewModel(plan, 6, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewModel(plan, 6, 42)
	c, _ := NewModel(plan, 6, 43)
	var differs bool
	for seq := int64(0); seq < 200; seq++ {
		da, db := a.Delay(0, 3, seq), b.Delay(0, 3, seq)
		if da != db {
			t.Fatalf("seq %d: same seed delays differ: %v != %v", seq, da, db)
		}
		if da < a.BaseDelay(0, 3) || da > 10*a.BaseDelay(0, 3) {
			t.Fatalf("seq %d: delay %v outside [base, 10*base] of %v", seq, da, a.BaseDelay(0, 3))
		}
		if da != c.Delay(0, 3, seq) {
			differs = true
		}
	}
	if !differs {
		t.Errorf("200 draws identical across different seeds")
	}
	if base := a.BaseDelay(0, 3); base != 2500*time.Microsecond {
		t.Errorf("scaled inter-region base = %v, want 2.5ms", base)
	}
}

func TestCutReleaseAsymmetric(t *testing.T) {
	plan, err := ParsePlan("3-regions,regions=2,cut=r0->r1@10ms-50ms,cut=r0->r1@50ms-80ms")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(plan, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the window: held to the end — and the back-to-back second
	// window chains, so release lands at 80ms.
	at, held := m.CutRelease(0, 1, 20*time.Millisecond)
	if !held || at != 80*time.Millisecond {
		t.Errorf("CutRelease(0->1 @20ms) = %v held=%v, want 80ms true", at, held)
	}
	// The reverse direction never matches: asymmetry is the point.
	at, held = m.CutRelease(1, 0, 20*time.Millisecond)
	if held || at != 20*time.Millisecond {
		t.Errorf("CutRelease(1->0 @20ms) = %v held=%v, want untouched", at, held)
	}
	// Outside the window: untouched.
	if at, held = m.CutRelease(0, 1, 90*time.Millisecond); held || at != 90*time.Millisecond {
		t.Errorf("CutRelease(0->1 @90ms) = %v held=%v, want untouched", at, held)
	}
}

// drainMesh drives a scheduler over a synthetic static mesh until empty and
// returns the pick trace.
func drainMesh(s dist.Scheduler, pending map[[2]dist.ProcID]int) []string {
	var trace []string
	for {
		var chans []dist.ChannelState
		var keys [][2]dist.ProcID
		for i := 0; i < 64; i++ {
			for j := 0; j < 64; j++ {
				k := [2]dist.ProcID{dist.ProcID(i), dist.ProcID(j)}
				if pending[k] > 0 {
					chans = append(chans, dist.ChannelState{From: k[0], To: k[1], Pending: pending[k]})
					keys = append(keys, k)
				}
			}
		}
		if len(chans) == 0 {
			return trace
		}
		idx := s.Pick(chans, nil)
		pending[keys[idx]]--
		trace = append(trace, fmt.Sprintf("%d->%d", keys[idx][0], keys[idx][1]))
	}
}

func mesh(n, depth int) map[[2]dist.ProcID]int {
	p := make(map[[2]dist.ProcID]int)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				p[[2]dist.ProcID{dist.ProcID(i), dist.ProcID(j)}] = 1 + (i+j)%depth
			}
		}
	}
	return p
}

func TestSimSchedulerDeterministic(t *testing.T) {
	plan, _ := ParsePlan("us-eu-ap,tail=0.1")
	mk := func(seed int64) []string {
		s, err := NewSimScheduler(plan, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		return drainMesh(s, mesh(6, 3))
	}
	a, b, c := mk(7), mk(7), mk(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different delivery schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced identical schedules (%d deliveries)", len(a))
	}
}

func TestSimSchedulerCutAsymmetry(t *testing.T) {
	plan, err := ParsePlan("3-regions,regions=2,jitter=0,cut=r0->r1@0ms-50ms")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSimScheduler(plan, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	chans := []dist.ChannelState{
		{From: 0, To: 1, Pending: 1},
		{From: 1, To: 0, Pending: 1},
	}
	// 1->0 flows at the base inter-region delay; 0->1 is held past 50ms.
	if got := s.Pick(chans, nil); got != 1 {
		t.Fatalf("first pick = channel %d, want the uncut 1->0", got)
	}
	if s.Elapsed() >= 50*time.Millisecond {
		t.Errorf("uncut delivery at %v, want before the 50ms window end", s.Elapsed())
	}
	chans[1].Pending = 0
	if got := s.Pick(chans[:1], nil); got != 0 {
		t.Fatalf("second pick = %d, want 0", got)
	}
	if s.Elapsed() < 50*time.Millisecond {
		t.Errorf("cut delivery at %v, want at/after the 50ms window end", s.Elapsed())
	}
	if s.Held() != 1 {
		t.Errorf("held = %d, want 1", s.Held())
	}
	if s.Delivered() != 2 {
		t.Errorf("delivered = %d, want 2", s.Delivered())
	}
}

// A 1000-process ring schedules through the model in (virtual) no time at
// all — the point of simulating the WAN instead of sleeping through it.
func TestSimSchedulerThousandProcesses(t *testing.T) {
	plan, _ := ParsePlan("3-regions,tail=0.01")
	s, err := NewSimScheduler(plan, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const rounds = 4
	for r := 0; r < rounds; r++ {
		chans := make([]dist.ChannelState, 1000)
		for i := range chans {
			chans[i] = dist.ChannelState{From: dist.ProcID(i), To: dist.ProcID((i + 1 + r) % 1000), Pending: 1}
		}
		remaining := len(chans)
		for remaining > 0 {
			live := chans[:0:0]
			for _, ch := range chans {
				if ch.Pending > 0 {
					live = append(live, ch)
				}
			}
			idx := s.Pick(live, nil)
			for k := range chans {
				if chans[k].From == live[idx].From && chans[k].To == live[idx].To {
					chans[k].Pending--
					break
				}
			}
			remaining--
		}
	}
	if s.Delivered() != rounds*1000 {
		t.Fatalf("delivered = %d, want %d", s.Delivered(), rounds*1000)
	}
	if s.Elapsed() <= 0 {
		t.Fatalf("virtual clock did not advance")
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("1000-process schedule took %v of wall time", wall)
	}
}

// recordingSender captures released frames in order.
type recordingSender struct {
	mu     sync.Mutex
	frames []wire.Frame
}

func (r *recordingSender) SendFrame(to dist.ProcID, f wire.Frame) error {
	r.mu.Lock()
	r.frames = append(r.frames, f)
	r.mu.Unlock()
	return nil
}

func (r *recordingSender) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.frames)
}

func TestShaperFIFOPerLink(t *testing.T) {
	// Heavy jitter and tails try hard to reorder; the per-link release clamp
	// must keep FIFO order regardless.
	plan, _ := ParsePlan("3-regions,delay=0.0002,jitter=1,tail=0.3,tailx=8")
	m, err := NewModel(plan, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSender{}
	sh := NewShaper(0, m, rec)
	defer sh.Close()
	const frames = 60
	for i := 0; i < frames; i++ {
		if err := sh.SendFrame(3, wire.Frame{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for rec.count() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("released %d/%d frames before timeout", rec.count(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	for i, f := range rec.frames {
		if f.Seq != uint64(i) {
			t.Fatalf("frame %d released with seq %d: FIFO order broken", i, f.Seq)
		}
	}
	if sh.Delayed() == 0 {
		t.Errorf("no frames recorded as delayed under a shaping plan")
	}
}

func TestConnShaperPreservesBytes(t *testing.T) {
	plan, _ := ParsePlan("3-regions,delay=0.0002,jitter=1,tail=0.2")
	m, err := NewModel(plan, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(m)
	a, b := net.Pipe()
	defer b.Close()
	wrapped := inj.WrapConn("0->1", a)

	var got []byte
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 64)
		for len(got) < 22 {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				return
			}
		}
	}()
	for _, chunk := range []string{"the bytes ", "arrive ", "whole"} {
		if _, err := wrapped.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("reader timed out with %q", got)
	}
	if string(got) != "the bytes arrive whole" {
		t.Fatalf("peer read %q", got)
	}
	if inj.Delayed() == 0 {
		t.Errorf("no writes recorded as delayed under a shaping plan")
	}
	if err := wrapped.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped.Write([]byte("x")); err == nil {
		t.Errorf("write after close succeeded")
	}
}

func TestConnShaperDisarmFlushes(t *testing.T) {
	// A long base delay would park the queue for seconds; Disarm must flush
	// it immediately (teardown must not wait out the WAN).
	plan, _ := ParsePlan("3-regions,jitter=0")
	m, err := NewModel(plan, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(m)
	a, b := net.Pipe()
	defer b.Close()
	wrapped := inj.WrapConn("0->1", a)
	var got [5]byte
	done := make(chan error, 1)
	go func() {
		_, err := b.Read(got[:])
		done <- err
	}()
	if _, err := wrapped.Write([]byte("flush")); err != nil {
		t.Fatal(err)
	}
	inj.Disarm()
	select {
	case err := <-done:
		if err != nil || string(got[:]) != "flush" {
			t.Fatalf("read %q, %v", got, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("disarm did not flush the queued write")
	}
	// Disarmed injectors wrap to a pass-through.
	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	if inj.WrapConn("0->1", c) != c {
		t.Errorf("disarmed WrapConn did not pass through")
	}
}

// A 1000-link mesh must overflow the per-link byte family into the "other"
// series instead of materialising a thousand series.
func TestLinkMetricOverflow(t *testing.T) {
	prevOn := telemetry.Enable(true)
	defer telemetry.Enable(prevOn)
	plan, _ := ParsePlan("3-regions,jitter=0,delay=0.000001,bw=inf")
	m, err := NewModel(plan, 1001, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingSender{}
	sh := NewShaper(0, m, rec)
	defer sh.Close()
	for to := 1; to <= 1000; to++ {
		if err := sh.SendFrame(dist.ProcID(to), wire.Frame{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := telemetry.Default().Snapshot()
	for _, f := range snap.Metrics {
		if f.Name != "chc_wan_link_bytes_total" {
			continue
		}
		if len(f.Samples) > 257 {
			t.Fatalf("link family has %d series, want cap 256 + overflow", len(f.Samples))
		}
		var overflow, total float64
		for _, s := range f.Samples {
			total += s.Value
			if s.Labels["link"] == "other" {
				overflow = s.Value
			}
		}
		if overflow == 0 {
			t.Fatalf("no overflow series after 1000 links")
		}
		if want := float64(1000 * m.MsgBytes()); total < want {
			t.Fatalf("total bytes %v, want >= %v (no update lost in overflow)", total, want)
		}
		return
	}
	t.Fatalf("chc_wan_link_bytes_total missing from snapshot")
}

// goldenProc is the golden-schedule protocol (the twin of dist's roundEcho):
// a round-0 broadcast, then five rounds that each wait for n-f-1 peers, with
// one self-addressed tick per round. Every delivery is folded into h.
type goldenProc struct {
	n, f  int
	cur   int
	heard [6]int
	h     hash.Hash64
}

func hashInts(h hash.Hash64, vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

func (p *goldenProc) Init(ctx dist.Context) { ctx.Broadcast("sv.report", 0, nil) }

func (p *goldenProc) Deliver(ctx dist.Context, msg dist.Message) {
	hashInts(p.h, int(msg.From), int(msg.To), msg.Round)
	p.h.Write([]byte(msg.Kind))
	p.h.Write([]byte{0})
	if msg.Kind == "tick" || msg.Round >= len(p.heard) {
		return
	}
	p.heard[msg.Round]++
	for p.cur < 5 && p.heard[p.cur] >= p.n-p.f-1 {
		p.cur++
		ctx.Send(ctx.ID(), "tick", p.cur, nil)
		ctx.Broadcast("round", p.cur, nil)
	}
}

func (p *goldenProc) Done() bool { return p.cur >= 5 }

// goldenSimSchedules maps n/crash-shape to an FNV-64a over the delivered
// (from, to, kind, round) sequence, the recorded picks and the send/delivery
// counts of goldenProc under SimScheduler("3-regions"), WAN seeds 1..3.
var goldenSimSchedules = map[string]uint64{
	"n4/none":    0x0c4179dcba0a70db,
	"n4/after0":  0x038cf28c85c204a9,
	"n4/mid":     0x86cdcd2895a02b2a,
	"n7/none":    0x34aab75993f77fcd,
	"n7/after0":  0xe0cf2a9d3570109f,
	"n7/mid":     0xc807c0ed59b09b57,
	"n16/none":   0xf3ce181d603997bb,
	"n16/after0": 0x54f83d8997ddb666,
	"n16/mid":    0x135b84c9c55413dc,
}

// TestSimSchedulerGoldenSchedules pins SimScheduler's virtual-time schedule
// on the simulator bit for bit: the hashes were generated at the commit
// before the simulator's channel index became incremental and before this
// scheduler's links were indexed densely.
func TestSimSchedulerGoldenSchedules(t *testing.T) {
	plan, err := ParsePlan("3-regions")
	if err != nil {
		t.Fatal(err)
	}
	crashes := []struct {
		name string
		plan func(n int) []dist.CrashPlan
	}{
		{"none", func(int) []dist.CrashPlan { return nil }},
		{"after0", func(int) []dist.CrashPlan { return []dist.CrashPlan{{Proc: 0, AfterSends: 0}} }},
		{"mid", func(n int) []dist.CrashPlan { return []dist.CrashPlan{{Proc: 1, AfterSends: n - 1 + n/2}} }},
	}
	for _, n := range []int{4, 7, 16} {
		f := 1
		if n >= 7 {
			f = 2
		}
		for _, cr := range crashes {
			h := fnv.New64a()
			for seed := int64(1); seed <= 3; seed++ {
				sched, err := NewSimScheduler(plan, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				procs := make([]dist.Process, n)
				for i := range procs {
					procs[i] = &goldenProc{n: n, f: f, h: h}
				}
				rec := dist.NewRecordingScheduler(sched)
				sim, err := dist.NewSim(dist.Config{N: n, Seed: seed, Scheduler: rec, Crashes: cr.plan(n)}, procs)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := sim.Run()
				if err != nil {
					t.Fatalf("n=%d %s seed=%d: %v", n, cr.name, seed, err)
				}
				hashInts(h, rec.Picks...)
				hashInts(h, stats.Sends, stats.Deliveries, stats.DroppedCrash, int(sched.Elapsed()))
			}
			name := fmt.Sprintf("n%d/%s", n, cr.name)
			if got, want := h.Sum64(), goldenSimSchedules[name]; got != want {
				t.Errorf("%q: %#016x, // want %#016x", name, got, want)
			}
		}
	}
}
