package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledInstrumentsDropUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	h := r.Histogram("h_seconds", "a histogram", nil)
	c.Inc()
	g.Set(3)
	h.Observe(0.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled instruments recorded: c=%d g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
	r.SetEnabled(true)
	c.Add(2)
	g.Add(-1.5)
	h.Observe(0.5)
	h.Observe(7)
	if c.Value() != 2 {
		t.Errorf("counter = %d, want 2", c.Value())
	}
	if g.Value() != -1.5 {
		t.Errorf("gauge = %v, want -1.5", g.Value())
	}
	if h.Count() != 2 || h.Min() != 0.5 || h.Max() != 7 || h.Sum() != 7.5 {
		t.Errorf("histogram count=%d min=%v max=%v sum=%v", h.Count(), h.Min(), h.Max(), h.Sum())
	}
}

// TestDisabledPathAllocatesNothing pins the disabled path DESIGN.md §9
// promises is a single atomic load: on a disabled registry every update —
// on unlabeled instruments and on cached children of labeled families —
// allocates nothing and leaves every value and the snapshot unchanged.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	h := r.Histogram("h_seconds", "a histogram", nil)
	cv := r.CounterVec("cv_total", "a counter family", "kind").With("a")
	gv := r.GaugeVec("gv", "a gauge family", "kind").With("a")
	hv := r.HistogramVec("hv_seconds", "a histogram family", nil, "kind").With("a")
	before := r.Snapshot().Metrics

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(2)
		g.Add(1.5)
		h.Observe(0.25)
		cv.Inc()
		cv.Add(3)
		gv.Set(2)
		gv.Add(1.5)
		hv.Observe(0.25)
	})
	if allocs != 0 {
		t.Errorf("disabled updates allocated %v times per run, want 0", allocs)
	}
	if c.Value() != 0 || cv.Value() != 0 || g.Value() != 0 || gv.Value() != 0 || h.Count() != 0 || hv.Count() != 0 {
		t.Errorf("disabled instruments recorded: c=%d cv=%d g=%v gv=%v h=%d hv=%d",
			c.Value(), cv.Value(), g.Value(), gv.Value(), h.Count(), hv.Count())
	}
	if after := r.Snapshot().Metrics; !reflect.DeepEqual(before, after) {
		t.Errorf("snapshot changed under a disabled registry:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var s *Span
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	s.End(nil)
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("same_total", "help")
	c2 := r.Counter("same_total", "other help ignored")
	if c1 != c2 {
		t.Fatal("same name must return the same counter")
	}
	v := r.CounterVec("vec_total", "help", "kind")
	if v.With("a") != v.With("a") {
		t.Fatal("same label values must return the same child")
	}
	if v.With("a") == v.With("b") {
		t.Fatal("different label values must return different children")
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("metric_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type must panic")
		}
	}()
	r.Gauge("metric_total", "help")
}

func TestNameSanitization(t *testing.T) {
	if got := sanitizeName("9bad name-with.dots"); got != "_9bad_name_with_dots" {
		t.Errorf("sanitizeName = %q", got)
	}
	if got := sanitizeName(""); got != "_" {
		t.Errorf("sanitizeName(\"\") = %q", got)
	}
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("weird metric!", "help").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseText(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("sanitized name did not produce valid exposition: %v", err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("lat_seconds", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	s := h.snapshotValue().Histogram
	want := []uint64{2, 3, 4, 5} // cumulative: le=1, le=2, le=5, le=+Inf
	if len(s.Buckets) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(s.Buckets), len(want))
	}
	for i, b := range s.Buckets {
		if b.CumulativeCount != want[i] {
			t.Errorf("bucket %d: count %d, want %d", i, b.CumulativeCount, want[i])
		}
	}
	if !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		t.Error("last bucket must be +Inf")
	}
}

// TestSetHistogramBuckets covers the per-family bucket overrides: cached
// children re-bucket in place, new children inherit, and an override set
// before registration applies when the family appears.
func TestSetHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)

	// Override an already-registered family: the cached child must pick up
	// the new layout without re-wiring, discarding old observations.
	h := r.Histogram("fsync_seconds", "help", []float64{1, 2})
	h.Observe(1.5)
	r.SetHistogramBuckets("fsync_seconds", []float64{10, 20, 40})
	if h.Count() != 0 {
		t.Fatalf("re-bucket kept %d observations binned under the old layout", h.Count())
	}
	h.Observe(15)
	s := h.snapshotValue().Histogram
	if len(s.Buckets) != 4 { // 10, 20, 40, +Inf
		t.Fatalf("got %d buckets, want 4", len(s.Buckets))
	}
	if s.Buckets[0].CumulativeCount != 0 || s.Buckets[1].CumulativeCount != 1 {
		t.Fatalf("observation not binned under the override: %+v", s.Buckets)
	}

	// Labeled families: existing and future children both see the override.
	vec := r.HistogramVec("lat_seconds", "help", []float64{1}, "kind")
	old := vec.With("a")
	r.SetHistogramBuckets("lat_seconds", []float64{5, 50})
	fresh := vec.With("b")
	for _, hh := range []*Histogram{old, fresh} {
		hh.Observe(7)
		ss := hh.snapshotValue().Histogram
		if len(ss.Buckets) != 3 || ss.Buckets[1].CumulativeCount != 1 {
			t.Fatalf("child missing override layout: %+v", ss.Buckets)
		}
	}

	// An override set before registration applies at registration time.
	r.SetHistogramBuckets("early_seconds", []float64{100})
	pre := r.Histogram("early_seconds", "help", nil)
	pre.Observe(99)
	if ss := pre.snapshotValue().Histogram; len(ss.Buckets) != 2 || ss.Buckets[0].CumulativeCount != 1 {
		t.Fatalf("pre-registration override ignored: %+v", ss.Buckets)
	}

	// Overriding a non-histogram name must be a no-op, not a panic.
	r.Counter("not_a_histogram_total", "help")
	r.SetHistogramBuckets("not_a_histogram_total", []float64{1})

	// Empty bounds fall back to DefBuckets.
	r.SetHistogramBuckets("fsync_seconds", nil)
	if ss := h.snapshotValue().Histogram; len(ss.Buckets) != len(DefBuckets)+1 {
		t.Fatalf("nil override gave %d buckets, want DefBuckets+Inf", len(ss.Buckets))
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("q_seconds", "help", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%8) + 0.5)
	}
	s := h.snapshotValue().Histogram
	if q := s.Quantile(0.5); q < 1 || q > 8 {
		t.Errorf("p50 = %v out of observed range", q)
	}
	if q := s.Quantile(0); q != s.Min {
		t.Errorf("p0 = %v, want min %v", q, s.Min)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("p100 = %v, want max %v", q, s.Max)
	}
	var empty *HistogramSample
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("nil histogram quantile must be NaN")
	}
}

func TestCollectorFuncs(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	hits := 0
	r.CounterFunc("cache_hits_total", "help", func() float64 { hits++; return float64(hits) })
	r.GaugeFunc("depth", "help", func() float64 { return 42 })
	snap := r.Snapshot()
	if f := snap.Find("cache_hits_total"); f == nil || f.Samples[0].Value != 1 {
		t.Errorf("CounterFunc sample = %+v", snap.Find("cache_hits_total"))
	}
	if f := snap.Find("depth"); f == nil || f.Samples[0].Value != 42 {
		t.Errorf("GaugeFunc sample = %+v", snap.Find("depth"))
	}
}

func TestSnapshotFindAndTotal(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	v := r.CounterVec("multi_total", "help", "k")
	v.With("a").Add(2)
	v.With("b").Add(3)
	snap := r.Snapshot()
	f := snap.Find("multi_total")
	if f == nil {
		t.Fatal("family missing from snapshot")
	}
	if got := f.Total(); got != 5 {
		t.Errorf("Total = %v, want 5", got)
	}
	if snap.Find("nope") != nil {
		t.Error("Find of unknown name must return nil")
	}
}

// TestHistogramHammer drives one histogram from GOMAXPROCS writers; run
// under -race (the Makefile check gate does) it proves the lock-free hot
// path, and the final count/sum prove no updates were lost.
func TestHistogramHammer(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("hammer_seconds", "help", DefBuckets)
	writers := runtime.GOMAXPROCS(0)
	const perWriter = 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100) / 1000.0)
			}
		}(w)
	}
	// Concurrent readers exercise snapshot-under-write.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	want := uint64(writers * perWriter)
	if h.Count() != want {
		t.Fatalf("lost updates: count = %d, want %d", h.Count(), want)
	}
	s := h.snapshotValue().Histogram
	if last := s.Buckets[len(s.Buckets)-1].CumulativeCount; last != want {
		t.Fatalf("bucket sum = %d, want %d", last, want)
	}
}

func TestConcurrentVecAccess(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	v := r.CounterVec("conc_total", "help", "id")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v.With(string(rune('a' + i%4))).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := r.Snapshot().Find("conc_total").Total(); got != 8000 {
		t.Fatalf("Total = %v, want 8000", got)
	}
}

func TestRunTracker(t *testing.T) {
	prev := Enable(true)
	defer Enable(prev)
	h := BeginRun(RunInfo{Transport: "sim", N: 5, Instances: 2})
	if h == nil {
		t.Fatal("BeginRun returned nil while enabled")
	}
	snap := SnapshotRuns()
	found := false
	for _, rec := range snap.Active {
		if rec.Status == "running" && rec.Transport == "sim" && rec.N == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("active run not tracked")
	}
	h.Complete("ok", func(rec *RunRecord) { rec.Sends = 7 })
	snap = SnapshotRuns()
	found = false
	for _, rec := range snap.Completed {
		if rec.Status == "ok" && rec.Sends == 7 {
			found = true
		}
	}
	if !found {
		t.Fatal("completed run not tracked")
	}
	// Disabled → nil handle, and Complete on it must not panic.
	Enable(false)
	BeginRun(RunInfo{}).Complete("ok", nil)
}

// TestRunRetentionRing exercises the completed-run ring: a bound smaller
// than the number of completed runs keeps exactly the most recent ones in
// order, growing the bound keeps survivors, and retention 0 keeps none.
func TestRunRetentionRing(t *testing.T) {
	prev := Enable(true)
	defer Enable(prev)
	defer SetRunRetention(DefaultRunRetention)

	SetRunRetention(3)
	var ids []int64
	for i := 0; i < 8; i++ {
		h := BeginRun(RunInfo{Transport: "sim", N: 3, Instances: 1})
		ids = append(ids, h.rec.ID)
		h.Complete("ok", nil)
	}
	got := SnapshotRuns().Completed
	if len(got) != 3 {
		t.Fatalf("retained %d runs, want 3", len(got))
	}
	for i, rec := range got {
		if want := ids[len(ids)-3+i]; rec.ID != want {
			t.Fatalf("slot %d: run %d, want %d (oldest-first order)", i, rec.ID, want)
		}
	}

	// Growing the bound preserves the survivors and admits new runs.
	SetRunRetention(5)
	h := BeginRun(RunInfo{Transport: "sim", N: 3, Instances: 1})
	h.Complete("ok", nil)
	got = SnapshotRuns().Completed
	if len(got) != 4 || got[0].ID != ids[5] || got[3].ID != h.rec.ID {
		t.Fatalf("after grow: %d runs, first %d, last %d", len(got), got[0].ID, got[len(got)-1].ID)
	}

	// Shrinking drops the oldest; zero retains nothing but still reports
	// active runs.
	SetRunRetention(2)
	if got = SnapshotRuns().Completed; len(got) != 2 || got[1].ID != h.rec.ID {
		t.Fatalf("after shrink: %+v", got)
	}
	SetRunRetention(0)
	running := BeginRun(RunInfo{Transport: "sim", N: 3, Instances: 1})
	snap := SnapshotRuns()
	if len(snap.Completed) != 0 {
		t.Fatalf("retention 0 kept %d completed runs", len(snap.Completed))
	}
	if len(snap.Active) == 0 {
		t.Fatal("retention 0 must not hide active runs")
	}
	running.Complete("ok", nil)
}

// TestSnapshotJSONRoundTrip covers the -telemetry-json dump format: a
// snapshot with histograms (whose overflow bucket bound is +Inf) must
// marshal to valid JSON and unmarshal back to the same values.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("rt_c_total", "").Add(3)
	h := r.Histogram("rt_h_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	r.Histogram("rt_empty_seconds", "", nil) // registered, never observed

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not unmarshal: %v", err)
	}
	if mf := back.Find("rt_c_total"); mf == nil || mf.Total() != 3 {
		t.Errorf("counter lost in round-trip: %+v", mf)
	}
	mf := back.Find("rt_h_seconds")
	if mf == nil || mf.Samples[0].Histogram == nil {
		t.Fatalf("histogram lost in round-trip: %+v", mf)
	}
	hs := mf.Samples[0].Histogram
	if hs.Count != 2 || hs.Min != 0.05 || hs.Max != 5 {
		t.Errorf("histogram stats = count %d min %v max %v", hs.Count, hs.Min, hs.Max)
	}
	last := hs.Buckets[len(hs.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.CumulativeCount != 2 {
		t.Errorf("overflow bucket = %+v, want le=+Inf count=2", last)
	}
}

// TestLabelCardinalityCap overflows a capped family: the first N label sets
// get their own series, everything after collapses into the "other" series,
// and no update is lost in the collapse.
func TestLabelCardinalityCap(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.SetLabelCardinality("capped_total", 3)
	v := r.CounterVec("capped_total", "help", "link", "class")
	for i := 0; i < 10; i++ {
		v.With(fmt.Sprintf("0->%d", i), "bad_crc").Inc()
	}
	snap := r.Snapshot()
	f := snap.Find("capped_total")
	if f == nil {
		t.Fatal("family missing from snapshot")
	}
	// 3 real series + 1 overflow series.
	if len(f.Samples) != 4 {
		t.Fatalf("series count = %d, want 4 (cap 3 + overflow)", len(f.Samples))
	}
	if got := f.Total(); got != 10 {
		t.Errorf("Total = %v, want 10 (no update lost in overflow)", got)
	}
	var other float64
	for _, s := range f.Samples {
		if s.Labels["link"] == "other" && s.Labels["class"] == "other" {
			other = s.Value
		}
	}
	if other != 7 {
		t.Errorf("overflow series = %v, want 7", other)
	}
	// A label set that already has a series keeps updating it, not overflow.
	v.With("0->1", "bad_crc").Inc()
	if got := r.Snapshot().Find("capped_total").Total(); got != 11 {
		t.Errorf("Total after existing-series update = %v, want 11", got)
	}

	// Setting the cap after registration works too (the SetHistogramBuckets
	// calling convention), and lifting it stops the collapse.
	r2 := NewRegistry()
	r2.SetEnabled(true)
	v2 := r2.CounterVec("late_total", "help", "k")
	r2.SetLabelCardinality("late_total", 1)
	v2.With("a").Inc()
	v2.With("b").Inc() // overflow
	if n := len(r2.Snapshot().Find("late_total").Samples); n != 2 {
		t.Errorf("late cap: series = %d, want 2", n)
	}
	r2.SetLabelCardinality("late_total", 0)
	v2.With("c").Inc()
	if n := len(r2.Snapshot().Find("late_total").Samples); n != 3 {
		t.Errorf("cap lifted: series = %d, want 3", n)
	}
}
