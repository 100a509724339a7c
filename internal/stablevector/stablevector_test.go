package stablevector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/wire"
)

// host wraps an SV as a dist.Process for testing.
type host struct {
	sv *SV
}

func (h *host) Init(ctx dist.Context) { h.sv.Start(ctx) }

func (h *host) Deliver(ctx dist.Context, msg dist.Message) {
	if msg.Kind == KindReport {
		h.sv.Handle(ctx, msg)
	}
}

func (h *host) Done() bool { return h.sv.Done() }

func runSV(t *testing.T, n, f int, cfg dist.Config) []*SV {
	t.Helper()
	svs := make([]*SV, n)
	procs := make([]dist.Process, n)
	for i := 0; i < n; i++ {
		sv, err := New(dist.ProcID(i), n, f, geom.NewPoint(float64(i), float64(i*i)))
		if err != nil {
			t.Fatal(err)
		}
		svs[i] = sv
		procs[i] = &host{sv: sv}
	}
	cfg.N = n
	sim, err := dist.NewSim(cfg, procs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return svs
}

func entrySet(entries []wire.Entry) map[dist.ProcID]bool {
	m := make(map[dist.ProcID]bool, len(entries))
	for _, e := range entries {
		m[e.Proc] = true
	}
	return m
}

func isSubset(a, b map[dist.ProcID]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// checkProperties asserts Liveness and Containment over the returned sets.
func checkProperties(t *testing.T, svs []*SV, n, f int, crashed map[int]bool) {
	t.Helper()
	var results [][]wire.Entry
	for i, sv := range svs {
		if crashed[i] {
			continue
		}
		res, ok := sv.Result()
		if !ok {
			t.Fatalf("process %d did not return", i)
		}
		if len(res) < n-f {
			t.Errorf("process %d: |R| = %d < n-f = %d (liveness)", i, len(res), n-f)
		}
		results = append(results, res)
	}
	for i := range results {
		for j := i + 1; j < len(results); j++ {
			a, b := entrySet(results[i]), entrySet(results[j])
			if !isSubset(a, b) && !isSubset(b, a) {
				t.Errorf("containment violated between results %d and %d: %v vs %v",
					i, j, a, b)
			}
		}
	}
}

func TestNoFaults(t *testing.T) {
	n, f := 5, 1
	svs := runSV(t, n, f, dist.Config{Seed: 1})
	checkProperties(t, svs, n, f, nil)
}

func TestWithCrash(t *testing.T) {
	n, f := 5, 1
	svs := runSV(t, n, f, dist.Config{
		Seed:    2,
		Crashes: []dist.CrashPlan{{Proc: 3, AfterSends: 2}},
	})
	checkProperties(t, svs, n, f, map[int]bool{3: true})
}

func TestCrashBeforeSend(t *testing.T) {
	n, f := 7, 2
	svs := runSV(t, n, f, dist.Config{
		Seed: 3,
		Crashes: []dist.CrashPlan{
			{Proc: 0, AfterSends: 0},
			{Proc: 6, AfterSends: 1},
		},
	})
	checkProperties(t, svs, n, f, map[int]bool{0: true, 6: true})
	// The silent process's value must not appear anywhere.
	for i := 1; i < 6; i++ {
		res, _ := svs[i].Result()
		for _, e := range res {
			if e.Proc == 0 {
				t.Errorf("value of silent process 0 leaked into R_%d", i)
			}
		}
	}
}

func TestAdversarialSchedulers(t *testing.T) {
	n, f := 7, 2
	schedulers := map[string]dist.Scheduler{
		"delay": dist.NewDelayScheduler(1, 2),
		"split": dist.NewSplitScheduler(0, 1, 2),
		"rr":    dist.NewRoundRobinScheduler(),
	}
	for name, sched := range schedulers {
		t.Run(name, func(t *testing.T) {
			svs := runSV(t, n, f, dist.Config{
				Seed:      4,
				Scheduler: sched,
				Crashes:   []dist.CrashPlan{{Proc: 5, AfterSends: 3}},
			})
			checkProperties(t, svs, n, f, map[int]bool{5: true})
		})
	}
}

func TestResultValuesMatchInputs(t *testing.T) {
	n, f := 5, 1
	svs := runSV(t, n, f, dist.Config{Seed: 5})
	for i, sv := range svs {
		res, ok := sv.Result()
		if !ok {
			t.Fatalf("process %d did not return", i)
		}
		for _, e := range res {
			want := geom.NewPoint(float64(e.Proc), float64(e.Proc*e.Proc))
			if !geom.Equal(e.Value, want, 0) {
				t.Errorf("process %d: entry for %d has value %v, want %v", i, e.Proc, e.Value, want)
			}
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, 1, geom.NewPoint(0)); err == nil {
		t.Error("n < 2f+1 should error")
	}
	if _, err := New(0, 3, -1, geom.NewPoint(0)); err == nil {
		t.Error("negative f should error")
	}
}

func TestResultBeforeDone(t *testing.T) {
	sv, err := New(0, 3, 1, geom.NewPoint(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sv.Result(); ok {
		t.Error("Result should not be available before completion")
	}
}

func TestHandleIgnoresMalformedPayload(t *testing.T) {
	sv, err := New(0, 3, 1, geom.NewPoint(1))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver a message with the wrong payload type; must not panic or
	// complete.
	done := sv.Handle(nopCtx{}, dist.Message{From: 1, Kind: KindReport, Payload: 42})
	if done || sv.Done() {
		t.Error("malformed payload must not complete the primitive")
	}
}

type nopCtx struct{}

func (nopCtx) ID() dist.ProcID                    { return 0 }
func (nopCtx) N() int                             { return 3 }
func (nopCtx) Send(dist.ProcID, string, int, any) {}
func (nopCtx) Broadcast(string, int, any)         {}

// TestMessageComplexityBound checks the gossip's termination argument: each
// process's known-set W grows at most n times, and a broadcast (n-1 sends)
// happens only on growth plus once initially, so total report sends are at
// most n * (n+1) * (n-1).
func TestMessageComplexityBound(t *testing.T) {
	for _, n := range []int{3, 5, 8} {
		f := (n - 1) / 2
		procs := make([]dist.Process, n)
		for i := 0; i < n; i++ {
			sv, err := New(dist.ProcID(i), n, f, geom.NewPoint(float64(i)))
			if err != nil {
				t.Fatal(err)
			}
			procs[i] = &host{sv: sv}
		}
		sim, err := dist.NewSim(dist.Config{N: n, Seed: int64(n)}, procs)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		bound := n * (n + 1) * (n - 1)
		if got := stats.KindCounts[KindReport]; got > bound {
			t.Errorf("n=%d: %d report sends exceed the bound %d", n, got, bound)
		}
	}
}

// Property: liveness + containment hold for random n, f, crash plans and
// schedules.
func TestPropertiesUnderRandomFaults(t *testing.T) {
	f := func(seed int64, nRaw, fRaw, c1Raw, c2Raw, k1Raw, k2Raw uint8) bool {
		fCount := int(fRaw)%2 + 1       // 1..2
		n := 2*fCount + 1 + int(nRaw)%5 // n in [2f+1, 2f+5]
		c1 := int(c1Raw) % n
		c2 := int(c2Raw) % n
		crashes := []dist.CrashPlan{{Proc: dist.ProcID(c1), AfterSends: int(k1Raw) % (2 * n)}}
		crashed := map[int]bool{c1: true}
		if fCount == 2 && c2 != c1 {
			crashes = append(crashes, dist.CrashPlan{Proc: dist.ProcID(c2), AfterSends: int(k2Raw) % (2 * n)})
			crashed[c2] = true
		}
		svs := make([]*SV, n)
		procs := make([]dist.Process, n)
		for i := 0; i < n; i++ {
			sv, err := New(dist.ProcID(i), n, fCount, geom.NewPoint(float64(i), float64(2*i)))
			if err != nil {
				return false
			}
			svs[i] = sv
			procs[i] = &host{sv: sv}
		}
		sim, err := dist.NewSim(dist.Config{N: n, Seed: seed, Crashes: crashes}, procs)
		if err != nil {
			return false
		}
		if _, err := sim.Run(); err != nil {
			return false
		}
		var results []map[dist.ProcID]bool
		for i, sv := range svs {
			if crashed[i] {
				continue
			}
			res, ok := sv.Result()
			if !ok || len(res) < n-fCount {
				return false
			}
			results = append(results, entrySet(res))
		}
		for i := range results {
			for j := i + 1; j < len(results); j++ {
				if !isSubset(results[i], results[j]) && !isSubset(results[j], results[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

// membershipKey returns the membership key of an entry list over n processes.
func membershipKey(n int, entries []wire.Entry) string {
	b := newBitset(n)
	for _, e := range entries {
		b.set(int(e.Proc))
	}
	return string(b)
}

// scanHost drives an SV and, after every step taken while the primitive was
// still undecided, compares its verdict with a full scan. The scan keeps its
// own record of every report the process has seen — the sender's on
// delivery, its own on broadcast — apart from the SV's bookkeeping.
type scanHost struct {
	t         *testing.T
	sv        *SV
	reporters map[string]map[dist.ProcID]bool // by membership key
	sizes     map[string]int
}

func newScanHost(t *testing.T, sv *SV) *scanHost {
	return &scanHost{t: t, sv: sv, reporters: map[string]map[dist.ProcID]bool{}, sizes: map[string]int{}}
}

func (h *scanHost) note(from dist.ProcID, entries []wire.Entry) {
	key := membershipKey(h.sv.n, entries)
	if h.reporters[key] == nil {
		h.reporters[key] = map[dist.ProcID]bool{}
	}
	h.reporters[key][from] = true
	h.sizes[key] = len(entries)
}

// fullScan is the reference for checkStable: it looks at every set ever
// reported, not only those the last delivery touched, and picks the largest
// stable one, the smallest membership key among equals. It returns the
// membership key of the stable set.
func (h *scanHost) fullScan() (string, bool) {
	quorum := h.sv.n - h.sv.f
	bestKey, bestLen := "", -1
	for key, reps := range h.reporters {
		size := h.sizes[key]
		if len(reps) < quorum || size < quorum {
			continue
		}
		if size > bestLen || (size == bestLen && key < bestKey) {
			bestKey, bestLen = key, size
		}
	}
	return bestKey, bestLen >= 0
}

// scanCtx notes the host's own reports as they are broadcast.
type scanCtx struct {
	dist.Context
	h *scanHost
}

func (c scanCtx) Broadcast(kind string, round int, payload any) {
	if p, ok := payload.(wire.EntriesPayload); ok {
		c.h.note(c.h.sv.id, p.Entries)
	}
	c.Context.Broadcast(kind, round, payload)
}

func (h *scanHost) step(do func()) {
	wasDone := h.sv.Done()
	do()
	if wasDone {
		return
	}
	key, stable := h.fullScan()
	if stable != h.sv.Done() {
		h.t.Fatalf("process %d: incremental check done=%v, full scan stable=%v", h.sv.id, h.sv.Done(), stable)
	}
	if stable && membershipKey(h.sv.n, h.sv.result) != key {
		h.t.Fatalf("process %d: incremental check and full scan chose different sets", h.sv.id)
	}
}

func (h *scanHost) Init(ctx dist.Context) { h.step(func() { h.sv.Start(scanCtx{ctx, h}) }) }

func (h *scanHost) Deliver(ctx dist.Context, msg dist.Message) {
	if p, ok := msg.Payload.(wire.EntriesPayload); ok {
		h.note(msg.From, p.Entries)
	}
	h.step(func() { h.sv.Handle(scanCtx{ctx, h}, msg) })
}

func (h *scanHost) Done() bool { return h.sv.Done() }

// TestIncrementalCheckMatchesFullScan: testing only the sets a delivery
// touched finds the same stable set, at the same delivery, as scanning all
// of them — under benign, starving and round-0-splitting schedules, with
// and without a crash.
func TestIncrementalCheckMatchesFullScan(t *testing.T) {
	for _, n := range []int{5, 9, 16} {
		f := (n - 1) / 3
		groupA := make([]dist.ProcID, n-f)
		for i := range groupA {
			groupA[i] = dist.ProcID(i)
		}
		scheds := map[string]func() dist.Scheduler{
			"random":      func() dist.Scheduler { return dist.NewRandomScheduler() },
			"delay":       func() dist.Scheduler { return dist.NewDelayScheduler(dist.ProcID(n - 1)) },
			"splitround0": func() dist.Scheduler { return dist.NewSplitRound0Scheduler(KindReport, groupA...) },
		}
		for name, mk := range scheds {
			for seed := int64(1); seed <= 4; seed++ {
				var crashes []dist.CrashPlan
				if seed%2 == 0 {
					crashes = []dist.CrashPlan{{Proc: 1, AfterSends: n + int(seed)}}
				}
				procs := make([]dist.Process, n)
				for i := range procs {
					sv, err := New(dist.ProcID(i), n, f, geom.NewPoint(float64(i), float64(i*i)))
					if err != nil {
						t.Fatal(err)
					}
					procs[i] = newScanHost(t, sv)
				}
				sim, err := dist.NewSim(dist.Config{N: n, Seed: seed, Scheduler: mk(), Crashes: crashes}, procs)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					t.Fatalf("n=%d %s seed=%d: %v", n, name, seed, err)
				}
			}
		}
	}
}

// countCtx counts the broadcasts made through it.
type countCtx struct {
	nopCtx
	broadcasts int
}

func (c *countCtx) Broadcast(string, int, any) { c.broadcasts++ }

func reportMsg(from dist.ProcID, entries ...wire.Entry) dist.Message {
	return dist.Message{From: from, Kind: KindReport, Payload: wire.EntriesPayload{Entries: entries}}
}

// TestMalformedReportsIgnored: a report that carries a value for a known
// process differing bitwise from the known one, or that names a process
// outside [0, n) or twice, earns its sender no reporter credit, merges
// nothing, triggers no echo and cannot make a set stable — even when n - f
// processes send it. The well-formed report of the same shape does.
func TestMalformedReportsIgnored(t *testing.T) {
	const n, f = 4, 1
	x := geom.NewPoint(0, 2)
	y := geom.NewPoint(3, 4)
	e := func(p dist.ProcID, v geom.Point) wire.Entry { return wire.Entry{Proc: p, Value: v} }
	for _, tc := range []struct {
		name    string
		entries []wire.Entry
	}{
		{"conflicting value", []wire.Entry{e(0, geom.NewPoint(0, 2.5)), e(1, y), e(2, y)}},
		{"negative zero", []wire.Entry{e(0, geom.NewPoint(math.Copysign(0, -1), 2)), e(1, y), e(2, y)}},
		{"process beyond n", []wire.Entry{e(0, x), e(1, y), e(n, y)}},
		{"negative process", []wire.Entry{e(-1, y), e(0, x), e(1, y)}},
		{"process named twice", []wire.Entry{e(0, x), e(1, y), e(1, y)}},
	} {
		sv, err := New(0, n, f, x)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &countCtx{}
		sv.Start(ctx)
		before := len(sv.reports)
		for from := dist.ProcID(1); from < n; from++ {
			if sv.Handle(ctx, reportMsg(from, tc.entries...)) || sv.Done() {
				t.Errorf("%s: malformed reports made a set stable", tc.name)
			}
		}
		if ctx.broadcasts != 1 {
			t.Errorf("%s: %d broadcasts, want the initial one only", tc.name, ctx.broadcasts)
		}
		if len(sv.reports) != before || sv.nKnown != 1 {
			t.Errorf("%s: %d sets and %d known values after malformed reports, want %d and 1",
				tc.name, len(sv.reports), sv.nKnown, before)
		}
	}

	// Control: the well-formed set {0, 1, 2} from n - f = 3 reporters (the
	// own snapshot after the first merge, then two senders) is stable.
	sv, err := New(0, n, f, x)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countCtx{}
	sv.Start(ctx)
	good := []wire.Entry{e(0, x), e(1, y), e(2, y)}
	sv.Handle(ctx, reportMsg(1, good...))
	if ctx.broadcasts != 2 || sv.Done() {
		t.Fatalf("control: %d broadcasts, done=%v after one report; want 2, false", ctx.broadcasts, sv.Done())
	}
	if !sv.Handle(ctx, reportMsg(2, good...)) {
		t.Fatal("control: the well-formed set did not become stable")
	}
	if res, _ := sv.Result(); membershipKey(n, res) != membershipKey(n, good) {
		t.Errorf("control: R = %v, want %v", res, good)
	}
}

// TestRepeatedReportAllocs: a report of an already-recorded set from an
// already-counted reporter costs no allocation, and earns no second credit.
func TestRepeatedReportAllocs(t *testing.T) {
	const n, f = 16, 2
	sv, err := New(0, n, f, geom.NewPoint(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := &countCtx{}
	sv.Start(ctx)
	entries := make([]wire.Entry, n-f)
	for i := range entries {
		entries[i] = wire.Entry{Proc: dist.ProcID(i), Value: geom.NewPoint(float64(i), 0)}
	}
	msg := reportMsg(1, entries...)
	sv.Handle(ctx, msg)
	if allocs := testing.AllocsPerRun(200, func() { sv.Handle(ctx, msg) }); allocs != 0 {
		t.Errorf("repeated report: %v allocs/op, want 0", allocs)
	}
	if r := sv.reports[membershipKey(n, entries)]; r == nil || r.count != 2 || sv.Done() {
		t.Errorf("repeated report: set %+v, done=%v; want two reporters (the sender and the own echo)", r, sv.Done())
	}
}
