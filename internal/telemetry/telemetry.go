// Package telemetry is the observability subsystem: a concurrent metrics
// registry (counters, gauges, fixed-bucket histograms, labeled families),
// span-style structured event tracing emitted as JSON lines, and an HTTP
// exposition server serving Prometheus text, run snapshots, and pprof.
//
// The package is stdlib-only and sits at the leaf of the dependency graph:
// every other internal package may import it, it imports none of them.
//
// Telemetry is off by default. Every instrument holds a pointer to its
// registry's enabled flag and checks it first, so the disabled hot path is
// one atomic load and a predictable branch — cheap enough to leave the
// instrumentation compiled into the protocol's inner loops. Enable it
// globally with Enable(true) or by mounting the HTTP server (ServeWith /
// EnsureServer, which chc.ServeTelemetry and the chcrun -metrics-addr flag
// use).
//
// Metric naming follows the Prometheus convention
// chc_<subsystem>_<quantity>[_total|_seconds]: counters end in _total,
// durations are histograms in seconds, gauges are bare quantities. Spans
// form the hierarchy run → instance → round → phase through their
// attributes (run id, instance, proc, round) rather than through nesting,
// so a sink can reassemble the tree from a flat JSON-lines stream.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MetricType discriminates the instrument kinds held by a Registry.
type MetricType string

// Instrument kinds, named after their Prometheus exposition types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// DefBuckets covers the repo's latency range: microsecond geometry kernels through
// multi-second recovery waits. Values are seconds.
var DefBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// RoundBuckets covers decided-round counts; t_end for practical parameter
// sets lands well under a few hundred rounds.
var RoundBuckets = []float64{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128, 256, 512}

// WideBuckets stretches the latency range up to a minute for instruments
// watching pathological storage (injected fsync delays, sick disks) where
// DefBuckets would pile everything into the overflow bucket. Values are
// seconds.
var WideBuckets = []float64{
	1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Registry holds a flat namespace of instruments. The zero value is not
// usable; construct with NewRegistry or use the process-wide Default.
type Registry struct {
	on atomic.Bool

	mu      sync.RWMutex
	fams    map[string]*family
	hbounds map[string][]float64 // per-family histogram bucket overrides
	lcaps   map[string]int       // per-family label-cardinality caps
}

// family is one named metric with its (possibly labeled) children.
type family struct {
	name   string
	help   string
	typ    MetricType
	labels []string // label names; empty for unlabeled metrics

	mu       sync.RWMutex
	children map[string]*cell // keyed by joined label values
	order    []string         // registration order of children keys
	bounds   []float64        // histogram families: bucket override (nil = caller's)
	lcap     int              // max distinct label sets; 0 = unlimited
	lcount   int              // label sets created, excluding the overflow child

	// collect, when non-nil, overrides the stored children at read time:
	// the family is a pull-style collector (CounterFunc / GaugeFunc).
	collect func() float64
}

// metric is the value holder of one (family, label values) pair.
type metric interface {
	snapshotValue() Sample
}

// cell pairs a metric with the label values it was created under, so
// snapshots never have to reverse the map key (label values may contain
// any byte, including the key separator).
type cell struct {
	values []string
	m      metric
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by all package-level
// instrumentation across the repo.
func Default() *Registry { return defaultRegistry }

// NewRegistry constructs an empty, disabled registry. Tests use private
// registries to stay independent of the process-wide instrumentation.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// SetEnabled flips metric collection on or off and reports the previous
// state. Disabled instruments drop updates at the cost of one atomic load.
func (r *Registry) SetEnabled(on bool) bool { return r.on.Swap(on) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.on.Load() }

// Enable flips the default registry and reports the previous state.
func Enable(on bool) bool { return defaultRegistry.SetEnabled(on) }

// Enabled reports whether the default registry is collecting.
func Enabled() bool { return defaultRegistry.Enabled() }

// sanitizeName maps an arbitrary string onto the Prometheus metric/label
// name alphabet [a-zA-Z_:][a-zA-Z0-9_:]*. Invalid runes become '_' so a
// dynamically constructed name can never corrupt the exposition format.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	var b strings.Builder
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// labelKey joins label values into a unique map key: each value is length-
// prefixed so no byte sequence inside a value can collide with another
// value set.
func labelKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		fmt.Fprintf(&b, "%d:%s", len(v), v)
	}
	return b.String()
}

// getFamily returns the family registered under name, creating it on first
// use. Re-registration with a conflicting type or label arity panics: that
// is a programming error, not a runtime condition.
func (r *Registry) getFamily(name, help string, typ MetricType, labels []string) *family {
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered as %s/%d labels, was %s/%d", name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	clean := make([]string, len(labels))
	for i, l := range labels {
		clean[i] = sanitizeName(l)
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   clean,
		children: make(map[string]*cell),
	}
	if typ == TypeHistogram {
		f.bounds = r.hbounds[name] // override set before registration
	}
	f.lcap = r.lcaps[name] // cardinality cap set before registration
	r.fams[name] = f
	return f
}

// overflowLabel is the label value new series collapse into once a family's
// cardinality cap is reached.
const overflowLabel = "other"

// SetLabelCardinality caps the number of distinct label sets a labeled
// family may create, identified by metric name. Once limit live series
// exist, further label combinations are routed into a single overflow
// series whose every label value is "other" (the overflow series itself
// does not count against the cap). Like SetHistogramBuckets, the cap may be
// set before or after the family is registered; series that already exist
// are never evicted. limit <= 0 removes the cap.
//
// This guards families labeled by unbounded runtime values — per-link,
// per-peer, per-path series under fault injection — from growing without
// bound while keeping the aggregate count observable.
func (r *Registry) SetLabelCardinality(name string, limit int) {
	name = sanitizeName(name)
	r.mu.Lock()
	if r.lcaps == nil {
		r.lcaps = make(map[string]int)
	}
	r.lcaps[name] = limit
	f := r.fams[name]
	r.mu.Unlock()
	if f == nil {
		return
	}
	f.mu.Lock()
	f.lcap = limit
	f.mu.Unlock()
}

// SetLabelCardinality caps a labeled family's series count on the default
// registry.
func SetLabelCardinality(name string, limit int) {
	defaultRegistry.SetLabelCardinality(name, limit)
}

// effBounds resolves the bucket layout for a new histogram child: the family
// override when one is set, else the caller's default. Called under f.mu
// (from inside child's creation section).
func (f *family) effBounds(def []float64) []float64 {
	if f.bounds != nil {
		return f.bounds
	}
	return def
}

// SetHistogramBuckets overrides the bucket upper bounds of one histogram
// family, identified by metric name. Existing children are re-bucketed in
// place — prior observations are discarded, since they were binned under the
// old layout — and children created later inherit the override; call sites
// that cached a child *Histogram need no re-wiring. Setting the override
// before the family is registered is valid (it applies at registration), so
// a main() can widen, say, fsync-latency buckets before any package-level
// instrument observes. nil or empty bounds fall back to DefBuckets.
//
// Overrides are meant for startup configuration: observations racing a
// re-bucket may land in the retiring state and be lost with it.
func (r *Registry) SetHistogramBuckets(name string, bounds []float64) {
	name = sanitizeName(name)
	r.mu.Lock()
	if r.hbounds == nil {
		r.hbounds = make(map[string][]float64)
	}
	r.hbounds[name] = bounds
	f := r.fams[name]
	r.mu.Unlock()
	if f == nil || f.typ != TypeHistogram {
		return
	}
	f.mu.Lock()
	f.bounds = bounds
	for _, c := range f.children {
		if h, ok := c.m.(*Histogram); ok {
			h.rebucket(bounds)
		}
	}
	f.mu.Unlock()
}

// SetHistogramBuckets overrides a histogram family's buckets on the default
// registry.
func SetHistogramBuckets(name string, bounds []float64) {
	defaultRegistry.SetHistogramBuckets(name, bounds)
}

// child returns the metric cell for the given label values, creating it
// with mk on first use.
func (f *family) child(values []string, mk func() metric) metric {
	key := labelKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c.m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c.m
	}
	overflow := false
	if f.lcap > 0 && f.lcount >= f.lcap {
		// Cardinality cap reached: collapse this new label set into the
		// shared overflow series instead of growing the family.
		overflow = true
		values = make([]string, len(f.labels))
		for i := range values {
			values[i] = overflowLabel
		}
		key = labelKey(values)
		if c, ok := f.children[key]; ok {
			return c.m
		}
	}
	c = &cell{values: append([]string(nil), values...), m: mk()}
	f.children[key] = c
	f.order = append(f.order, key)
	if !overflow {
		f.lcount++
	}
	return c.m
}

// ---------------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing integer. The hot path is one
// enabled check plus one atomic add.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be >= 0; negative deltas are ignored to keep the
// counter monotone).
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count regardless of the enabled flag.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) snapshotValue() Sample { return Sample{Value: float64(c.v.Load())} }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.getFamily(name, help, TypeCounter, nil)
	m := f.child(nil, func() metric { return &Counter{on: &r.on} })
	return m.(*Counter)
}

// CounterVec is a labeled family of counters.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers (or finds) a counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r: r, f: r.getFamily(name, help, TypeCounter, labels)}
}

// With returns the child counter for the given label values (one per label
// name, in order). Callers on hot paths should cache the child.
func (v *CounterVec) With(values ...string) *Counter {
	values = padValues(values, len(v.f.labels))
	m := v.f.child(values, func() metric { return &Counter{on: &v.r.on} })
	return m.(*Counter)
}

// ---------------------------------------------------------------------------
// Gauge

// Gauge is an arbitrary float64 that can go up and down. Stored as raw bits
// so Add can CAS without a mutex.
type Gauge struct {
	on   *atomic.Bool
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta float64) {
	if g == nil || !g.on.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) snapshotValue() Sample { return Sample{Value: g.Value()} }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.getFamily(name, help, TypeGauge, nil)
	m := f.child(nil, func() metric { return &Gauge{on: &r.on} })
	return m.(*Gauge)
}

// GaugeVec is a labeled family of gauges.
type GaugeVec struct {
	r *Registry
	f *family
}

// GaugeVec registers (or finds) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r: r, f: r.getFamily(name, help, TypeGauge, labels)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	values = padValues(values, len(v.f.labels))
	m := v.f.child(values, func() metric { return &Gauge{on: &v.r.on} })
	return m.(*Gauge)
}

// ---------------------------------------------------------------------------
// Pull-style collectors

// funcMetric reads its value from a callback at snapshot time; updates cost
// nothing because there are none — the producer keeps its own counters and
// the registry mirrors them on demand.
type funcMetric struct{ fn func() float64 }

func (m *funcMetric) snapshotValue() Sample { return Sample{Value: m.fn()} }

// CounterFunc registers a counter whose value is read from fn at exposition
// time. Used to mirror pre-existing atomic counters (geometry cache stats,
// component-local tallies) into the registry without touching their hot
// paths.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, TypeCounter, nil)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge read from fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.getFamily(name, help, TypeGauge, nil)
	f.mu.Lock()
	f.collect = fn
	f.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Histogram

// Histogram counts observations into fixed buckets and tracks count, sum,
// min and max. The hot path is lock-free: one enabled check, a bucket
// search over a small sorted slice, and a handful of atomic updates.
//
// The whole mutable state lives behind one atomic pointer so a bucket-layout
// override (SetHistogramBuckets) can swap it wholesale: call sites that
// cached the *Histogram at init time pick up the new layout on their next
// observation, and every observation lands consistently in exactly one
// state — count, sum, min, max and buckets can never disagree about which
// layout they describe.
type Histogram struct {
	on *atomic.Bool
	st atomic.Pointer[histState]
}

// histState is one immutable-layout generation of a histogram.
type histState struct {
	bounds  []float64 // upper bounds, sorted ascending; +Inf implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; initialised to +Inf
	maxBits atomic.Uint64 // float64 bits; initialised to -Inf
}

func newHistState(bounds []float64) *histState {
	st := &histState{bounds: bounds, buckets: make([]atomic.Uint64, len(bounds)+1)}
	st.minBits.Store(math.Float64bits(math.Inf(1)))
	st.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return st
}

func newHistogram(on *atomic.Bool, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := &Histogram{on: on}
	h.st.Store(newHistState(bounds))
	return h
}

// rebucket swaps in a fresh state with the given bounds, discarding prior
// observations (they were binned under the old layout and cannot be
// re-binned). Observations racing the swap may land in the retiring state
// and be lost with it — overrides are meant to run at startup, before the
// instruments are hot.
func (h *Histogram) rebucket(bounds []float64) {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h.st.Store(newHistState(bounds))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.on.Load() || math.IsNaN(v) {
		return
	}
	st := h.st.Load()
	idx := sort.SearchFloat64s(st.bounds, v) // first bound >= v
	st.buckets[idx].Add(1)
	st.count.Add(1)
	casAdd(&st.sumBits, v)
	casMin(&st.minBits, v)
	casMax(&st.maxBits, v)
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.st.Load().count.Load() }

// Max returns the largest observed value, or -Inf when empty. Exact maxima
// matter here: experiment E19 asserts the observed rounds-to-decide never
// exceed the paper's closed-form bound, and a bucket upper bound would be
// too coarse for that comparison.
func (h *Histogram) Max() float64 { return math.Float64frombits(h.st.Load().maxBits.Load()) }

// Min returns the smallest observed value, or +Inf when empty.
func (h *Histogram) Min() float64 { return math.Float64frombits(h.st.Load().minBits.Load()) }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.st.Load().sumBits.Load()) }

func casAdd(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func casMin(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func casMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (h *Histogram) snapshotValue() Sample {
	st := h.st.Load()
	hs := &HistogramSample{
		Count:   st.count.Load(),
		Sum:     math.Float64frombits(st.sumBits.Load()),
		Buckets: make([]Bucket, 0, len(st.bounds)+1),
	}
	if hs.Count > 0 {
		hs.Min = math.Float64frombits(st.minBits.Load())
		hs.Max = math.Float64frombits(st.maxBits.Load())
	}
	var cum uint64
	for i, b := range st.bounds {
		cum += st.buckets[i].Load()
		hs.Buckets = append(hs.Buckets, Bucket{UpperBound: b, CumulativeCount: cum})
	}
	cum += st.buckets[len(st.bounds)].Load()
	hs.Buckets = append(hs.Buckets, Bucket{UpperBound: math.Inf(1), CumulativeCount: cum})
	return Sample{Histogram: hs}
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.getFamily(name, help, TypeHistogram, nil)
	m := f.child(nil, func() metric { return newHistogram(&r.on, f.effBounds(bounds)) })
	return m.(*Histogram)
}

// HistogramVec is a labeled family of histograms sharing one bucket layout.
type HistogramVec struct {
	r      *Registry
	f      *family
	bounds []float64
}

// HistogramVec registers (or finds) a histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r: r, f: r.getFamily(name, help, TypeHistogram, labels), bounds: bounds}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	values = padValues(values, len(v.f.labels))
	m := v.f.child(values, func() metric { return newHistogram(&v.r.on, v.f.effBounds(v.bounds)) })
	return m.(*Histogram)
}

// padValues forces the label value count to match the label name count so a
// miscounted call site degrades into empty labels instead of a panic.
func padValues(values []string, n int) []string {
	if len(values) == n {
		return values
	}
	out := make([]string, n)
	copy(out, values)
	return out
}

// ---------------------------------------------------------------------------
// Snapshot

// Snapshot is a point-in-time copy of every instrument in a registry. It is
// the aggregate surfaced as chc.Telemetry in RunResult/BatchResult and the
// payload of chcrun -telemetry-json.
type Snapshot struct {
	Generated time.Time      `json:"generated"`
	Enabled   bool           `json:"enabled"`
	Metrics   []MetricFamily `json:"metrics"`
}

// MetricFamily is one named metric with all of its labeled samples.
type MetricFamily struct {
	Name    string     `json:"name"`
	Help    string     `json:"help,omitempty"`
	Type    MetricType `json:"type"`
	Samples []Sample   `json:"samples"`
}

// Sample is one (label values → value) cell. Histogram is set instead of
// Value for histogram families.
type Sample struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     float64           `json:"value"`
	Histogram *HistogramSample  `json:"histogram,omitempty"`
}

// HistogramSample is the frozen state of one histogram. Bucket counts are
// cumulative, Prometheus-style.
type HistogramSample struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Buckets []Bucket `json:"buckets"`
}

// Bucket is one cumulative histogram bucket.
type Bucket struct {
	UpperBound      float64 `json:"le"`
	CumulativeCount uint64  `json:"count"`
}

// bucketJSON is the wire form of Bucket: the overflow bucket's +Inf bound is
// not representable as a bare JSON number, so it travels as the string
// "+Inf" (mirroring the text exposition's le="+Inf").
type bucketJSON struct {
	UpperBound      any    `json:"le"`
	CumulativeCount uint64 `json:"count"`
}

// MarshalJSON encodes the bucket, stringifying a non-finite bound.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 0) || math.IsNaN(b.UpperBound) {
		le = strconv.FormatFloat(b.UpperBound, 'g', -1, 64)
	}
	return json.Marshal(bucketJSON{UpperBound: le, CumulativeCount: b.CumulativeCount})
}

// UnmarshalJSON accepts both numeric and stringified bounds.
func (b *Bucket) UnmarshalJSON(data []byte) error {
	var raw bucketJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	switch le := raw.UpperBound.(type) {
	case float64:
		b.UpperBound = le
	case string:
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("telemetry: bucket bound %q: %w", le, err)
		}
		b.UpperBound = f
	default:
		return fmt.Errorf("telemetry: bucket bound has type %T", raw.UpperBound)
	}
	b.CumulativeCount = raw.CumulativeCount
	return nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the containing bucket, clamped to the observed min/max. Good
// enough for reporting latency percentiles from fixed buckets.
func (h *HistogramSample) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	lower, prev := 0.0, uint64(0)
	for _, b := range h.Buckets {
		if float64(b.CumulativeCount) >= rank {
			upper := b.UpperBound
			if math.IsInf(upper, 1) {
				return h.Max
			}
			width := upper - lower
			inBucket := float64(b.CumulativeCount - prev)
			if inBucket <= 0 {
				return math.Min(math.Max(upper, h.Min), h.Max)
			}
			v := lower + width*(rank-float64(prev))/inBucket
			return math.Min(math.Max(v, h.Min), h.Max)
		}
		lower, prev = b.UpperBound, b.CumulativeCount
	}
	return h.Max
}

// Snapshot freezes the registry. Families and samples are sorted by name
// and label values so output is deterministic.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.RUnlock()

	snap := &Snapshot{Generated: time.Now(), Enabled: r.Enabled()}
	for _, f := range fams {
		snap.Metrics = append(snap.Metrics, f.snapshot())
	}
	return snap
}

func (f *family) snapshot() MetricFamily {
	mf := MetricFamily{Name: f.name, Help: f.help, Type: f.typ}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.collect != nil {
		mf.Samples = []Sample{{Value: f.collect()}}
		return mf
	}
	keys := append([]string(nil), f.order...)
	sort.Strings(keys)
	for _, key := range keys {
		c := f.children[key]
		s := c.m.snapshotValue()
		if len(f.labels) > 0 {
			s.Labels = make(map[string]string, len(f.labels))
			for i, name := range f.labels {
				if i < len(c.values) {
					s.Labels[name] = c.values[i]
				} else {
					s.Labels[name] = ""
				}
			}
		}
		mf.Samples = append(mf.Samples, s)
	}
	return mf
}

// Find returns the snapshot family with the given name, or nil.
func (s *Snapshot) Find(name string) *MetricFamily {
	if s == nil {
		return nil
	}
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// Total sums the values of every sample in the family (counters/gauges) —
// convenient when a family is labeled but the caller wants the aggregate.
func (mf *MetricFamily) Total() float64 {
	if mf == nil {
		return 0
	}
	var t float64
	for _, s := range mf.Samples {
		t += s.Value
	}
	return t
}
