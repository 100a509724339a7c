package chc

import (
	"io"

	"chc/internal/telemetry"
)

// Telemetry: the library's observability surface. The process owns one
// metrics registry (counters, gauges, fixed-bucket histograms, all with
// atomic hot paths) that every layer — engine, reliable links, WAL, chaos
// injection, crash recovery, geometry — reports into, plus a
// pluggable structured-event trace sink. Both are disabled by default and
// near-free while disabled (one atomic load per site). Enable them with
// EnableTelemetry / SetTraceSink, or mount the HTTP exposition server with
// ServeTelemetry, RunConfig.TelemetryAddr, BatchConfig.TelemetryAddr or
// `chcrun -metrics-addr`.
type (
	// Telemetry is a point-in-time copy of the metrics registry, attached to
	// RunResult/BatchResult after runs while telemetry is enabled.
	Telemetry = telemetry.Snapshot

	// TelemetryMetric is one metric family (name, type, help, samples) of a
	// snapshot.
	TelemetryMetric = telemetry.MetricFamily

	// TelemetrySample is one sample of a family: label values plus either a
	// scalar value or a histogram.
	TelemetrySample = telemetry.Sample

	// TelemetryHistogram is the bucketed distribution of a histogram sample;
	// Quantile interpolates percentiles from it.
	TelemetryHistogram = telemetry.HistogramSample

	// TraceEvent is one structured trace record (span ends carry durations).
	TraceEvent = telemetry.Event

	// TraceSink receives trace events; implementations must be safe for
	// concurrent use.
	TraceSink = telemetry.Sink

	// JSONTraceSink writes each trace event as one JSON object per line.
	JSONTraceSink = telemetry.JSONSink

	// MemoryTraceSink buffers trace events in memory (the measurement
	// substrate of experiment E19).
	MemoryTraceSink = telemetry.MemorySink
)

// EnableTelemetry switches metric collection on or off process-wide and
// returns the previous setting. While off, instrumented sites cost one
// atomic load each.
func EnableTelemetry(on bool) bool { return telemetry.Enable(on) }

// TelemetryEnabled reports whether metric collection is on.
func TelemetryEnabled() bool { return telemetry.Enabled() }

// TelemetrySnapshot copies the current state of the process-wide registry.
func TelemetrySnapshot() *Telemetry { return telemetry.Default().Snapshot() }

// WriteMetricsText renders the registry in the Prometheus text exposition
// format (the same bytes /metrics serves).
func WriteMetricsText(w io.Writer) error { return telemetry.Default().WriteText(w) }

// ServeTelemetry enables the registry and mounts the process-wide HTTP
// exposition server on addr (host:port; port 0 picks a free port), serving
// /metrics, /runs and /debug/pprof. It returns the resolved address and a
// shutdown function. A second call returns the existing server's address
// regardless of addr: the process shares one listener.
func ServeTelemetry(addr string) (resolved string, close func() error, err error) {
	s, err := telemetry.EnsureServer(addr)
	if err != nil {
		return "", nil, err
	}
	return s.Addr(), func() error { telemetry.ShutdownServer(); return nil }, nil
}

// SetRunRetention bounds how many completed runs the /runs endpoint retains
// (default 64). The store is a fixed ring: each completed run past the bound
// overwrites the oldest, so a long-lived exposition server holds steady
// memory. n <= 0 retains no completed runs (active runs are still listed).
func SetRunRetention(n int) { telemetry.SetRunRetention(n) }

// SetHistogramBuckets overrides the bucket upper bounds of one histogram
// family in the process-wide registry, by metric name (e.g.
// "chc_wal_fsync_seconds"). Existing instruments re-bucket in place,
// discarding prior observations; call it at startup, before runs observe.
// Nil or empty bounds restore the default latency buckets.
func SetHistogramBuckets(name string, bounds []float64) {
	telemetry.SetHistogramBuckets(name, bounds)
}

// WideLatencyBuckets returns bucket bounds stretching to a minute, suited to
// instruments watching pathological storage (fsync latencies under injected
// delays) where the default range would overflow.
func WideLatencyBuckets() []float64 {
	return append([]float64(nil), telemetry.WideBuckets...)
}

// SetTraceSink installs the process-wide trace sink and returns the previous
// one. Instrumented layers emit structured events (cc.round, cc.decided,
// wal.fsync, rlink.retransmit, runtime.recovery, ...) while a sink is
// installed; nil disables tracing.
func SetTraceSink(s TraceSink) TraceSink { return telemetry.SetSink(s) }

// NewJSONTraceSink wraps w in a sink that writes one JSON line per event.
func NewJSONTraceSink(w io.Writer) *JSONTraceSink { return telemetry.NewJSONSink(w) }

// NewMemoryTraceSink returns a sink that buffers events in memory.
func NewMemoryTraceSink() *MemoryTraceSink { return telemetry.NewMemorySink() }
