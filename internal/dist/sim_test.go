package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// collectProc is a tiny test protocol: broadcast your ID, finish after
// hearing from `quorum` distinct processes (counting yourself).
type collectProc struct {
	quorum int
	heard  map[ProcID]bool
	order  []ProcID // delivery order, for FIFO tests
}

func newCollectProc(quorum int) *collectProc {
	return &collectProc{quorum: quorum, heard: make(map[ProcID]bool)}
}

func (p *collectProc) Init(ctx Context) {
	p.heard[ctx.ID()] = true
	ctx.Broadcast("id", 0, int(ctx.ID()))
}

func (p *collectProc) Deliver(_ Context, msg Message) {
	if p.Done() {
		// Record only the deliveries that happened before the process
		// decided, so tests can assert what information the decision used.
		return
	}
	p.heard[msg.From] = true
	p.order = append(p.order, msg.From)
}

func (p *collectProc) Done() bool { return len(p.heard) >= p.quorum }

func runCollect(t *testing.T, cfg Config, quorum int) ([]*collectProc, *Stats, error) {
	t.Helper()
	procs := make([]Process, cfg.N)
	impl := make([]*collectProc, cfg.N)
	for i := range procs {
		impl[i] = newCollectProc(quorum)
		procs[i] = impl[i]
	}
	sim, err := NewSim(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run()
	return impl, stats, err
}

// TestAllDeliver runs to each of Run's three exits — done, deadlock and
// livelock — and checks the error, the send count and Stats.KindCounts, which
// must hold exactly the per-kind sends whichever way Run returns.
func TestAllDeliver(t *testing.T) {
	collect := func(n int) []Process {
		ps := make([]Process, n)
		for i := range ps {
			ps[i] = newCollectProc(n)
		}
		return ps
	}
	echo := func(n, f int) []Process {
		log := newScheduleHash()
		ps := make([]Process, n)
		for i := range ps {
			ps[i] = &roundEcho{n: n, f: f, rounds: 3, heard: make([]int, 4), log: log}
		}
		return ps
	}
	cases := []struct {
		name    string
		cfg     Config
		procs   []Process
		wantErr error
		want    map[string]int
	}{
		{"done", Config{N: 5, Seed: 1}, collect(5), nil, map[string]int{"id": 20}},
		{"done/kinds", Config{N: 4, Seed: 1, Crashes: []CrashPlan{{Proc: 1, AfterSends: 5}}}, echo(4, 1), nil,
			map[string]int{"sv.report": 12, "round": 28, "tick": 10}},
		{"deadlock", Config{N: 5, Seed: 4, Crashes: []CrashPlan{{Proc: 0, AfterSends: 0}}}, collect(5), ErrDeadlock,
			map[string]int{"id": 16}},
		{"livelock", Config{N: 2, Seed: 1, MaxDeliveries: 100}, []Process{&pingPong{}, &pingPong{}}, ErrLivelock,
			map[string]int{"ping": 102}},
	}
	for _, c := range cases {
		sim, err := NewSim(c.cfg, c.procs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run()
		if !errors.Is(err, c.wantErr) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
		if !reflect.DeepEqual(stats.KindCounts, c.want) {
			t.Errorf("%s: KindCounts = %v, want %v", c.name, stats.KindCounts, c.want)
		}
		sends := 0
		for _, k := range c.want {
			sends += k
		}
		if stats.Sends != sends {
			t.Errorf("%s: Sends = %d, want %d", c.name, stats.Sends, sends)
		}
		if c.wantErr == nil {
			for i, p := range c.procs {
				if !sim.Crashed(ProcID(i)) && !p.Done() {
					t.Errorf("%s: process %d not done", c.name, i)
				}
			}
		}
	}
}

func TestCrashBeforeAnySend(t *testing.T) {
	// Process 0 crashes before sending; the rest need quorum 4 of 5.
	impl, _, err := runCollect(t, Config{
		N: 5, Seed: 2,
		Crashes: []CrashPlan{{Proc: 0, AfterSends: 0}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if !impl[i].Done() {
			t.Errorf("process %d not done", i)
		}
		if impl[i].heard[0] {
			t.Errorf("process %d heard from crashed process 0", i)
		}
	}
}

func TestCrashMidBroadcast(t *testing.T) {
	// Process 0 sends exactly 2 of its 4 broadcast messages (to IDs 1, 2).
	impl, _, err := runCollect(t, Config{
		N: 5, Seed: 3,
		Crashes: []CrashPlan{{Proc: 0, AfterSends: 2}},
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !impl[1].heard[0] || !impl[2].heard[0] {
		t.Error("prefix recipients should have heard from 0")
	}
	if impl[3].heard[0] || impl[4].heard[0] {
		t.Error("suffix recipients should not have heard from 0")
	}
}

func TestDeadlockDetected(t *testing.T) {
	// Quorum of 5 but one process crashed: the rest can never finish.
	_, _, err := runCollect(t, Config{
		N: 5, Seed: 4,
		Crashes: []CrashPlan{{Proc: 0, AfterSends: 0}},
	}, 5)
	if !errors.Is(err, ErrDeadlock) {
		t.Errorf("err = %v, want ErrDeadlock", err)
	}
}

// fifoProc sends a numbered sequence to its peer; the peer checks order.
type fifoProc struct {
	id      ProcID
	sendN   int
	got     []int
	done    bool
	passive bool
}

func (p *fifoProc) Init(ctx Context) {
	if p.passive {
		return
	}
	for i := 0; i < p.sendN; i++ {
		ctx.Send(1, "seq", 0, i)
	}
	p.done = true
}

func (p *fifoProc) Deliver(_ Context, msg Message) {
	v, ok := msg.Payload.(int)
	if !ok {
		return
	}
	p.got = append(p.got, v)
	if len(p.got) >= p.sendN {
		p.done = true
	}
}

func (p *fifoProc) Done() bool { return p.done }

func TestFIFOOrder(t *testing.T) {
	const k = 50
	sender := &fifoProc{id: 0, sendN: k}
	receiver := &fifoProc{id: 1, sendN: k, passive: true}
	sim, err := NewSim(Config{N: 2, Seed: 5}, []Process{sender, receiver})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range receiver.got {
		if v != i {
			t.Fatalf("FIFO violated at position %d: got %d", i, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]ProcID, *Stats) {
		impl, stats, err := runCollect(t, Config{N: 6, Seed: 42}, 6)
		if err != nil {
			t.Fatal(err)
		}
		return impl[3].order, stats
	}
	o1, s1 := run()
	o2, s2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Errorf("delivery order differs between identical runs:\n%v\n%v", o1, o2)
	}
	if s1.Deliveries != s2.Deliveries || s1.Sends != s2.Sends {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	impl1, _, err := runCollect(t, Config{N: 6, Seed: 1}, 6)
	if err != nil {
		t.Fatal(err)
	}
	impl2, _, err := runCollect(t, Config{N: 6, Seed: 99}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(impl1[3].order, impl2[3].order) {
		t.Log("schedules coincide for different seeds (possible but unlikely)")
	}
}

func TestConfigValidation(t *testing.T) {
	mk := func(n int) []Process {
		ps := make([]Process, n)
		for i := range ps {
			ps[i] = newCollectProc(n)
		}
		return ps
	}
	if _, err := NewSim(Config{N: 0}, nil); err == nil {
		t.Error("N=0 should error")
	}
	if _, err := NewSim(Config{N: 3}, mk(2)); err == nil {
		t.Error("process count mismatch should error")
	}
	if _, err := NewSim(Config{N: 3, Crashes: []CrashPlan{{Proc: 9}}}, mk(3)); err == nil {
		t.Error("crash plan for unknown process should error")
	}
	if _, err := NewSim(Config{N: 3, Crashes: []CrashPlan{{Proc: 1}, {Proc: 1}}}, mk(3)); err == nil {
		t.Error("duplicate crash plan should error")
	}
	if _, err := NewSim(Config{N: 3, Crashes: []CrashPlan{{Proc: 1, AfterSends: -1}}}, mk(3)); err == nil {
		t.Error("negative AfterSends should error")
	}
}

func TestLivelockGuard(t *testing.T) {
	// A ping-pong pair that never finishes trips the delivery limit.
	a := &pingPong{}
	b := &pingPong{}
	sim, err := NewSim(Config{N: 2, Seed: 1, MaxDeliveries: 100}, []Process{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); !errors.Is(err, ErrLivelock) {
		t.Errorf("err = %v, want ErrLivelock", err)
	}
}

type pingPong struct{}

func (p *pingPong) Init(ctx Context) { ctx.Broadcast("ping", 0, nil) }
func (p *pingPong) Deliver(ctx Context, msg Message) {
	ctx.Send(msg.From, "ping", 0, nil)
}
func (p *pingPong) Done() bool { return false }

func TestSizer(t *testing.T) {
	_, stats, err := runCollect(t, Config{
		N: 3, Seed: 1,
		Sizer: func(Message) int { return 10 },
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != stats.Sends*10 {
		t.Errorf("Bytes = %d, want %d", stats.Bytes, stats.Sends*10)
	}
}

func TestDelaySchedulerStarvesSlow(t *testing.T) {
	// With process 4 slow and quorum 4, everyone else finishes without 4's
	// messages ever being needed; 4 itself still finishes (its channel
	// drains once nothing else is pending).
	impl, _, err := runCollect(t, Config{
		N: 5, Seed: 7, Scheduler: NewDelayScheduler(4),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if impl[i].heard[4] {
			t.Errorf("process %d heard from the starved process before finishing", i)
		}
	}
}

func TestSplitScheduler(t *testing.T) {
	// Two halves with quorum 3: each half of 3 finishes on intra-group
	// traffic alone.
	impl, _, err := runCollect(t, Config{
		N: 6, Seed: 8, Scheduler: NewSplitScheduler(0, 1, 2),
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 3; j < 6; j++ {
			if impl[i].heard[ProcID(j)] {
				t.Errorf("group A process %d heard cross-group process %d before finishing", i, j)
			}
			if impl[j].heard[ProcID(i)] {
				t.Errorf("group B process %d heard cross-group process %d before finishing", j, i)
			}
		}
	}
}

func TestRoundRobinScheduler(t *testing.T) {
	impl, _, err := runCollect(t, Config{N: 4, Seed: 9, Scheduler: NewRoundRobinScheduler()}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if !p.Done() {
			t.Errorf("process %d not done", i)
		}
	}
}

// Property: for any n in [2,8], any seed, and any single crash after k
// sends, all fault-free processes finish with quorum n-1 and never hear
// more than n-1 distinct IDs.
func TestQuorumAlwaysReached(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := 2 + int(nRaw)%7
		k := int(kRaw) % n
		procs := make([]Process, n)
		impl := make([]*collectProc, n)
		for i := range procs {
			impl[i] = newCollectProc(n - 1)
			procs[i] = impl[i]
		}
		sim, err := NewSim(Config{
			N: n, Seed: seed,
			Crashes: []CrashPlan{{Proc: 0, AfterSends: k}},
		}, procs)
		if err != nil {
			return false
		}
		if _, err := sim.Run(); err != nil {
			return false
		}
		for i := 1; i < n; i++ {
			if !impl[i].Done() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestStatsString(t *testing.T) {
	_, stats, err := runCollect(t, Config{N: 3, Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := fmt.Sprintf("%+v", stats); s == "" {
		t.Error("stats should be printable")
	}
}

func TestRecordReplayScheduler(t *testing.T) {
	// Record a random execution, then replay it with a DIFFERENT seed: the
	// delivery order (and hence every observable) must be identical.
	rec := NewRecordingScheduler(nil)
	impl1, stats1, err := runCollect(t, Config{N: 6, Seed: 123, Scheduler: rec}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Picks) == 0 {
		t.Fatal("recording captured no picks")
	}
	impl2, stats2, err := runCollect(t, Config{
		N: 6, Seed: 999, // different seed: must not matter
		Scheduler: NewReplayScheduler(rec.Picks),
	}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range impl1 {
		if !reflect.DeepEqual(impl1[i].order, impl2[i].order) {
			t.Fatalf("process %d delivery order differs under replay:\n%v\n%v",
				i, impl1[i].order, impl2[i].order)
		}
	}
	if stats1.Deliveries != stats2.Deliveries || stats1.Sends != stats2.Sends {
		t.Errorf("stats differ under replay: %+v vs %+v", stats1, stats2)
	}
}

func TestReplaySchedulerFallback(t *testing.T) {
	// An exhausted or out-of-range recording falls back to FIFO and the
	// protocol still completes.
	impl, _, err := runCollect(t, Config{
		N: 4, Seed: 1, Scheduler: NewReplayScheduler([]int{99, -1}),
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range impl {
		if !p.Done() {
			t.Errorf("process %d not done under fallback replay", i)
		}
	}
}

// wildSender sends one message to a bogus target, then broadcasts. Used to
// pin down the budget/validation ordering in Sim.send.
type wildSender struct{ done bool }

func (p *wildSender) Init(ctx Context) {
	ctx.Send(99, "bogus", 0, nil) // invalid target: must be a free no-op
	ctx.Broadcast("real", 0, nil)
	p.done = true
}
func (p *wildSender) Deliver(_ Context, _ Message) {}
func (p *wildSender) Done() bool                   { return p.done }

type sink struct{}

func (sink) Init(Context)                 {}
func (sink) Deliver(_ Context, _ Message) {}
func (sink) Done() bool                   { return true }

// TestInvalidTargetConsumesNoBudget: a send to a nonexistent process must
// neither burn the sender's crash budget nor count in Stats.Sends, so a
// crash plan of AfterSends=2 still permits two real sends.
func TestInvalidTargetConsumesNoBudget(t *testing.T) {
	procs := []Process{&wildSender{}, sink{}, sink{}, sink{}}
	cfg := Config{
		N:       4,
		Seed:    1,
		Crashes: []CrashPlan{{Proc: 0, AfterSends: 2}},
	}
	sim, err := NewSim(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Budget 2: the invalid send is free, the first two broadcast legs
	// consume the budget, the third leg trips the crash.
	if stats.Sends != 2 {
		t.Errorf("Sends = %d, want 2 (invalid target must not count or consume budget)", stats.Sends)
	}
	if !sim.Crashed(0) {
		t.Error("process 0 should have crashed on its third real send")
	}
	if got := stats.KindCounts["bogus"]; got != 0 {
		t.Errorf("bogus sends counted: %d", got)
	}
	if got := stats.KindCounts["real"]; got != 2 {
		t.Errorf("real sends = %d, want 2", got)
	}
}

// roundEcho is the golden-schedule protocol: a round-0 broadcast under the
// stable-vector kind (so SplitRound0Scheduler has something to split), then
// `rounds` averaging-style rounds that each wait for n-f-1 peers, plus one
// self-addressed tick per round so the (i, i) diagonal of the channel table
// sees traffic. Every delivery is folded into the shared hash.
type roundEcho struct {
	n, f, rounds int
	cur          int
	heard        []int // per round: peers heard from
	log          *scheduleHash
}

func (p *roundEcho) Init(ctx Context) { ctx.Broadcast("sv.report", 0, nil) }

func (p *roundEcho) Deliver(ctx Context, msg Message) {
	p.log.delivery(msg)
	if msg.Kind == "tick" || msg.Round >= len(p.heard) {
		return
	}
	p.heard[msg.Round]++
	for p.cur < p.rounds && p.heard[p.cur] >= p.n-p.f-1 {
		p.cur++
		ctx.Send(ctx.ID(), "tick", p.cur, nil)
		ctx.Broadcast("round", p.cur, nil)
	}
}

func (p *roundEcho) Done() bool { return p.cur >= p.rounds }

// scheduleHash is an FNV-64a over everything that identifies a schedule:
// the delivered (from, to, kind, round) sequence and the scheduler's picks.
type scheduleHash struct{ h hash.Hash64 }

func newScheduleHash() *scheduleHash { return &scheduleHash{h: fnv.New64a()} }

func (s *scheduleHash) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		s.h.Write(b[:])
	}
}

func (s *scheduleHash) delivery(m Message) {
	s.ints(int(m.From), int(m.To), m.Round)
	s.h.Write([]byte(m.Kind))
	s.h.Write([]byte{0})
}

// goldenCrashes are the three crash shapes of the golden grid, as functions
// of n: none, one process that never sends, one process cut in the middle of
// its second broadcast.
var goldenCrashes = []struct {
	name string
	plan func(n int) []CrashPlan
}{
	{"none", func(int) []CrashPlan { return nil }},
	{"after0", func(int) []CrashPlan { return []CrashPlan{{Proc: 0, AfterSends: 0}} }},
	{"mid", func(n int) []CrashPlan { return []CrashPlan{{Proc: 1, AfterSends: n - 1 + n/2}} }},
}

// goldenRun drives roundEcho under sched (wrapped in a RecordingScheduler)
// for seeds 1..3 and returns one hash over all three runs.
func goldenRun(t *testing.T, n int, crashes []CrashPlan, sched func() Scheduler) uint64 {
	t.Helper()
	f := 1
	if n >= 7 {
		f = 2
	}
	log := newScheduleHash()
	for seed := int64(1); seed <= 3; seed++ {
		procs := make([]Process, n)
		for i := range procs {
			procs[i] = &roundEcho{n: n, f: f, rounds: 5, heard: make([]int, 6), log: log}
		}
		rec := NewRecordingScheduler(sched())
		sim, err := NewSim(Config{N: n, Seed: seed, Scheduler: rec, Crashes: crashes}, procs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run()
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", n, seed, err)
		}
		log.ints(rec.Picks...)
		log.ints(stats.Sends, stats.Deliveries, stats.DroppedCrash)
	}
	return log.h.Sum64()
}

func firstHalf(n int) []ProcID {
	ids := make([]ProcID, n/2)
	for i := range ids {
		ids[i] = ProcID(i)
	}
	return ids
}

// goldenSchedules maps scheduler/n/crash-shape to goldenRun's hash.
var goldenSchedules = map[string]uint64{
	"random/n4/none":         0xf9f445f24e18790e,
	"random/n4/after0":       0x8f9f4261b06186e2,
	"random/n4/mid":          0x7158f3ada9d34fec,
	"random/n7/none":         0x2f569e680e2e43ae,
	"random/n7/after0":       0x5b2f60bf3cba6268,
	"random/n7/mid":          0xe4e7d534f0b94f23,
	"random/n9/none":         0x26f54b04995d46ef,
	"random/n9/after0":       0x8f67efa0a52c9cdb,
	"random/n9/mid":          0x65cd4eee498b296a,
	"random/n16/none":        0x923c6ef6755ed98d,
	"random/n16/after0":      0xd3c5eff20e7e55f3,
	"random/n16/mid":         0xdbc80bc53cc54f11,
	"random/n33/none":        0xfef9edab9ec10a90,
	"random/n33/after0":      0x874b0f04f548f3e8,
	"random/n33/mid":         0x50f4648f5075b02c,
	"roundrobin/n4/none":     0x35fd32edcb498763,
	"roundrobin/n4/after0":   0x2acb304fa9dc9fc3,
	"roundrobin/n4/mid":      0x5a635bfcf4036cf5,
	"roundrobin/n7/none":     0xfab6d42798fbc894,
	"roundrobin/n7/after0":   0x8359f7885ee1ce22,
	"roundrobin/n7/mid":      0xc219de7ebb806ce1,
	"roundrobin/n9/none":     0x5c24f849240aa940,
	"roundrobin/n9/after0":   0xe4d83f71dcec3430,
	"roundrobin/n9/mid":      0xc67e9a239b18b3df,
	"roundrobin/n16/none":    0x5dcdbd0be80a1c36,
	"roundrobin/n16/after0":  0x2484e67f37620c8d,
	"roundrobin/n16/mid":     0x539e742eeda4d0d1,
	"roundrobin/n33/none":    0xcabdb1738bed2395,
	"roundrobin/n33/after0":  0x21b6d0d50f058571,
	"roundrobin/n33/mid":     0xf7e3202cfb19c6f4,
	"delay/n4/none":          0x1a045e63a73ffced,
	"delay/n4/after0":        0xb93cd64dcc96b217,
	"delay/n4/mid":           0xa2812da03901a17b,
	"delay/n7/none":          0xf1e3cde806f57061,
	"delay/n7/after0":        0xb65a9a8b3551ffc7,
	"delay/n7/mid":           0x7c041ebfa4c7e4da,
	"delay/n9/none":          0xfcf956b2710ffd00,
	"delay/n9/after0":        0xf035d9fa19ebedc4,
	"delay/n9/mid":           0xe6b17c4ce890d706,
	"delay/n16/none":         0x76874b4e31c0da67,
	"delay/n16/after0":       0xe88647d740317a04,
	"delay/n16/mid":          0x1c9fb9b51194d298,
	"delay/n33/none":         0x5beeacf31c47c6a0,
	"delay/n33/after0":       0x8002a07ac873c2b5,
	"delay/n33/mid":          0x2a251b5932d3a070,
	"split/n4/none":          0x0f7425ee8702453e,
	"split/n4/after0":        0x5a96989fd6240075,
	"split/n4/mid":           0xd2eae9d1217a3b98,
	"split/n7/none":          0x9a727c7e515475f8,
	"split/n7/after0":        0x0a3047cfe9a7707d,
	"split/n7/mid":           0xca8dca9491184c6d,
	"split/n9/none":          0x2f319512f251540a,
	"split/n9/after0":        0xfcdd17028c2241e3,
	"split/n9/mid":           0xaa8e201a4620a50c,
	"split/n16/none":         0xa656af743d0f16b1,
	"split/n16/after0":       0x09b4aabe7d895342,
	"split/n16/mid":          0x238f74c964d81969,
	"split/n33/none":         0x7a6df77e1f9b9409,
	"split/n33/after0":       0x52b9ec7344f6e1e8,
	"split/n33/mid":          0xd8a9dfbaca845742,
	"splitround0/n4/none":    0xb364406008f66974,
	"splitround0/n4/after0":  0x1459103b13648e76,
	"splitround0/n4/mid":     0xa124e032839e68a9,
	"splitround0/n7/none":    0x1edd455ca3e55698,
	"splitround0/n7/after0":  0xea62de86e940a606,
	"splitround0/n7/mid":     0xf993f79d29c3d5f4,
	"splitround0/n9/none":    0x2997e66f970db06f,
	"splitround0/n9/after0":  0xa4b8dc4ad43565f2,
	"splitround0/n9/mid":     0x5f4b43e620c6e5d6,
	"splitround0/n16/none":   0xe0d7ddc6b99f0b11,
	"splitround0/n16/after0": 0x20826226e819015f,
	"splitround0/n16/mid":    0xb3965a8f828db4f9,
	"splitround0/n33/none":   0xcb9eb0e3df9599c2,
	"splitround0/n33/after0": 0x604ec8d29694dc7f,
	"splitround0/n33/mid":    0xd97890e0f6c77a1c,
}

// TestGoldenSchedules pins the delivery schedule of every built-in
// scheduler bit for bit. The n=4, 7 and 16 rows were generated at the
// commit before the simulator's channel index became incremental; the n=9
// and n=33 rows, whose n² channels end part-way into a 64-bit word of the
// non-empty-channel bitset, at commit f6a4867, before that bitset replaced
// the sorted channel slice. A refactor of the event loop that reorders even
// one delivery — or shows a scheduler different channels — changes them.
func TestGoldenSchedules(t *testing.T) {
	for _, sc := range builtinSchedulers {
		for _, n := range []int{4, 7, 9, 16, 33} {
			for _, cr := range goldenCrashes {
				name := fmt.Sprintf("%s/n%d/%s", sc.name, n, cr.name)
				got := goldenRun(t, n, cr.plan(n), func() Scheduler { return sc.mk(n) })
				if want, ok := goldenSchedules[name]; !ok || got != want {
					t.Errorf("%q: %#016x, // want %#016x", name, got, want)
				}
			}
		}
	}
}

// TestGoldenSchedulesConcurrent runs the golden grid in four parallel
// subtests: runs going on at once each take their own generator and channel
// table from the pools and give them back, so none may see another's state.
func TestGoldenSchedulesConcurrent(t *testing.T) {
	for w := 0; w < 4; w++ {
		t.Run(fmt.Sprint(w), func(t *testing.T) {
			t.Parallel()
			for _, sc := range builtinSchedulers {
				for _, n := range []int{4, 9, 16} {
					for _, cr := range goldenCrashes {
						name := fmt.Sprintf("%s/n%d/%s", sc.name, n, cr.name)
						if got := goldenRun(t, n, cr.plan(n), func() Scheduler { return sc.mk(n) }); got != goldenSchedules[name] {
							t.Errorf("%q: %#016x, want %#016x", name, got, goldenSchedules[name])
						}
					}
				}
			}
		})
	}
}

// builtinSchedulers are the five built-in schedulers of the golden grid and
// the allocation table, as functions of n.
var builtinSchedulers = []struct {
	name string
	mk   func(n int) Scheduler
}{
	{"random", func(int) Scheduler { return NewRandomScheduler() }},
	{"roundrobin", func(int) Scheduler { return NewRoundRobinScheduler() }},
	{"delay", func(n int) Scheduler { return NewDelayScheduler(ProcID(n - 1)) }},
	{"split", func(n int) Scheduler { return NewSplitScheduler(firstHalf(n)...) }},
	{"splitround0", func(n int) Scheduler { return NewSplitRound0Scheduler("sv.report", firstHalf(n)...) }},
}

// roundMesh broadcasts once in Init and again after every n-1 deliveries,
// so each process sends what it receives and a mesh of them never drains.
type roundMesh struct{ heard int }

func (p *roundMesh) Init(ctx Context) { ctx.Broadcast("round", 0, nil) }
func (p *roundMesh) Deliver(ctx Context, msg Message) {
	if p.heard++; p.heard%(ctx.N()-1) == 0 {
		ctx.Broadcast("round", msg.Round+1, nil)
	}
}
func (p *roundMesh) Done() bool { return false }

// meshes are the two never-draining protocols the allocation test and the
// delivery benchmark drive: pingPong answers every delivery with one send,
// roundMesh every n-1 deliveries with one broadcast.
var meshes = []struct {
	name string
	mk   func() Process
}{
	{"pingpong", func() Process { return &pingPong{} }},
	{"broadcast", func() Process { return &roundMesh{} }},
}

// mesh builds an n-process simulation of the processes mk makes under
// sched, runs every Init and then warmup deliveries, so every backing array
// (queues, post slab, free list) has grown to its working size. The mesh
// never drains, and channels keep flipping between empty and non-empty.
func mesh(tb testing.TB, n int, sched Scheduler, warmup int, mk func() Process) *Sim {
	tb.Helper()
	procs := make([]Process, n)
	for i := range procs {
		procs[i] = mk()
	}
	sim, err := NewSim(Config{N: n, Seed: 1, Scheduler: sched}, procs)
	if err != nil {
		tb.Fatal(err)
	}
	for i, p := range procs {
		p.Init(&sim.ctxs[i])
	}
	for i := 0; i < warmup; i++ {
		sim.deliverNext()
	}
	return sim
}

// TestDeliveryDoesNotAllocate: once the queues, the post slab, the channel
// set and the scheduler's scratch have reached their working size, picking
// a channel, popping it and enqueueing the reply allocate nothing, under
// every built-in scheduler, on a 16-process pingPong mesh and on a
// 16-process broadcast mesh.
func TestDeliveryDoesNotAllocate(t *testing.T) {
	const n = 16
	for _, m := range meshes {
		for _, sc := range builtinSchedulers {
			sim := mesh(t, n, sc.mk(n), 20_000, m.mk)
			allocs := testing.AllocsPerRun(5_000, func() {
				if !sim.deliverNext() {
					t.Fatal("mesh drained")
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: steady-state delivery allocates %v objects/op, want 0", m.name, sc.name, allocs)
			}
		}
	}
}

// BenchmarkSimDelivery times one steady-state delivery of each mesh under
// the random scheduler: the pick, the pop, the reply's send or broadcast
// and the channel-set updates on all of them. Rows n16 and n64 are the
// pingpong mesh, broadcast/n16 and broadcast/n64 the broadcast mesh.
func BenchmarkSimDelivery(b *testing.B) {
	for _, m := range meshes {
		for _, n := range []int{16, 64} {
			name := fmt.Sprintf("n%d", n)
			if m.name != "pingpong" {
				name = m.name + "/" + name
			}
			b.Run(name, func(b *testing.B) {
				sim := mesh(b, n, NewRandomScheduler(), 20_000, m.mk)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !sim.deliverNext() {
						b.Fatal("mesh drained")
					}
				}
			})
		}
	}
}

// queued lists every message waiting in the simulator, channel by channel
// in table order, each channel's in FIFO order.
func queued(s *Sim) [][]Message {
	out := make([][]Message, len(s.chans.fifos))
	for c := range s.chans.fifos {
		q := &s.chans.fifos[c]
		for _, i := range q.buf[q.head:] {
			p := s.chans.posts[i]
			out[c] = append(out[c], Message{From: p.from, To: ProcID(c % s.cfg.N), Kind: p.kind, Round: p.round, Instance: p.instance, Payload: p.payload})
		}
	}
	return out
}

// TestBroadcastMatchesSends: for every crash budget from 0 to n, two
// broadcasts through the post path — a plain one and one stamped with an
// instance — leave the same queued messages, Stats (Sends, Bytes,
// KindCounts), crash flag and remaining budget as the n-1 single sends
// each stands for, and delivering everything frees every post.
func TestBroadcastMatchesSends(t *testing.T) {
	sizer := func(m Message) int { return 3*len(m.Kind) + m.Round + 7*m.Instance }
	for _, n := range []int{2, 5, 16} {
		for budget := 0; budget <= n; budget++ {
			for _, from := range []ProcID{0, ProcID(n / 2), ProcID(n - 1)} {
				where := fmt.Sprintf("n=%d budget=%d from=%d", n, budget, from)
				sims := make([]*Sim, 2)
				for k := range sims {
					procs := make([]Process, n)
					for i := range procs {
						procs[i] = sink{}
					}
					sim, err := NewSim(Config{N: n, Seed: 1, Scheduler: NewRoundRobinScheduler(), Sizer: sizer,
						Crashes: []CrashPlan{{Proc: from, AfterSends: budget}}}, procs)
					if err != nil {
						t.Fatal(err)
					}
					sims[k] = sim
				}
				post, sends := sims[0], sims[1]
				post.ctxs[from].Broadcast("a", 1, "x")
				post.ctxs[from].BroadcastInstance(3, "bb", 2, "y")
				for _, b := range []struct {
					kind            string
					round, instance int
					payload         any
				}{{"a", 1, 0, "x"}, {"bb", 2, 3, "y"}} {
					for to := ProcID(0); int(to) < n; to++ {
						if to != from {
							sends.send(from, to, b.kind, b.round, b.instance, b.payload)
						}
					}
				}
				if got, want := queued(post), queued(sends); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: queued %v, want %v", where, got, want)
				}
				gotStats, _ := post.result(nil)
				wantStats, _ := sends.result(nil)
				if gotStats.Sends != wantStats.Sends || gotStats.Bytes != wantStats.Bytes ||
					!reflect.DeepEqual(gotStats.KindCounts, wantStats.KindCounts) {
					t.Errorf("%s: stats %+v, want %+v", where, *gotStats, *wantStats)
				}
				if post.crashed[from] != sends.crashed[from] || post.sendBudget[from] != sends.sendBudget[from] {
					t.Errorf("%s: crashed %v with budget %d left, want %v with %d", where,
						post.crashed[from], post.sendBudget[from], sends.crashed[from], sends.sendBudget[from])
				}
				for post.deliverNext() {
				}
				if len(post.chans.free) != len(post.chans.posts) || len(post.chans.posts) > 2 {
					t.Errorf("%s: %d of %d post slots free after draining", where, len(post.chans.free), len(post.chans.posts))
				}
				for _, p := range post.chans.posts {
					if p.payload != nil {
						t.Errorf("%s: a freed post keeps its payload %v", where, p.payload)
					}
				}
			}
		}
	}
}

// scanChannels is the brute-force reference for the simulator's Channels
// view: every FIFO of the table, in table order, that holds a message.
func scanChannels(s *Sim) []ChannelState {
	var list []ChannelState
	for c := range s.chans.fifos {
		if q := &s.chans.fifos[c]; q.len() > 0 {
			head := s.chans.posts[q.buf[q.head]]
			list = append(list, ChannelState{
				From: ProcID(c / s.cfg.N), To: ProcID(c % s.cfg.N),
				Pending: q.len(), Kind: head.kind, Round: head.round,
			})
		}
	}
	return list
}

// TestChannelsMatchFIFOScan drives random sends, deliveries and crashes at
// n ∈ {1, 2, 9, 16, 33} and, after every step, checks the simulator's
// Channels view against a list rebuilt by scanning every FIFO: Len, an
// ascending scan, random access, and random access followed by an ascending
// scan, in a random order — so the view's cursor is exercised both across
// a change of the set and across a jump. Each delivery must pop the channel
// the scheduler picked.
func TestChannelsMatchFIFOScan(t *testing.T) {
	kinds := []string{"sv.report", "round", "tick"}
	for _, n := range []int{1, 2, 9, 16, 33} {
		for trial := int64(0); trial < 4; trial++ {
			rng := rand.New(rand.NewSource(int64(n)*100 + trial))
			procs := make([]Process, n)
			for i := range procs {
				procs[i] = sink{}
			}
			rec := NewRecordingScheduler(nil)
			sim, err := NewSim(Config{N: n, Seed: trial, Scheduler: rec}, procs)
			if err != nil {
				t.Fatal(err)
			}
			pSend := 0.35 + 0.1*float64(trial) // from draining to filling
			for step := 0; step < 1500; step++ {
				switch r := rng.Float64(); {
				case r < 0.002:
					sim.crashed[rng.Intn(n)] = true
				case r < pSend:
					sim.send(ProcID(rng.Intn(n)), ProcID(rng.Intn(n)), kinds[rng.Intn(len(kinds))], rng.Intn(4), 0, nil)
				default:
					before := scanChannels(sim)
					if !sim.deliverNext() {
						if len(before) != 0 {
							t.Fatalf("n=%d step %d: nothing delivered from %d channels", n, step, len(before))
						}
						break
					}
					want := before[rec.Picks[len(rec.Picks)-1]]
					want.Pending--
					var got ChannelState
					for _, c := range scanChannels(sim) {
						if c.From == want.From && c.To == want.To {
							got = c
						}
					}
					if got.Pending != want.Pending {
						t.Fatalf("n=%d step %d: picked %d->%d, left %d pending there, want %d",
							n, step, want.From, want.To, got.Pending, want.Pending)
					}
				}
				checkChannels(t, fmt.Sprintf("n=%d trial %d step %d", n, trial, step), sim.chans, scanChannels(sim), rng)
			}
		}
	}
}

func checkChannels(t *testing.T, where string, view Channels, want []ChannelState, rng *rand.Rand) {
	t.Helper()
	if view.Len() != len(want) {
		t.Fatalf("%s: Len() = %d, want %d", where, view.Len(), len(want))
	}
	if len(want) == 0 {
		return
	}
	at := func(mode string, i int) {
		if got := view.At(i); got != want[i] {
			t.Fatalf("%s: %s At(%d) = %+v, want %+v", where, mode, i, got, want[i])
		}
	}
	for _, mode := range rng.Perm(3) {
		switch mode {
		case 0:
			for i := range want {
				at("ascending", i)
			}
		case 1:
			for range 8 {
				at("random", rng.Intn(len(want)))
			}
		case 2:
			at("jump", rng.Intn(len(want)))
			for i := rng.Intn(len(want)); i < len(want); i++ {
				at("scan after jump", i)
			}
		}
	}
}
