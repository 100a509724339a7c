package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one structured trace record. A timed event carries its duration
// in Dur; point events leave it zero. The run → instance → round → phase hierarchy
// lives in Attrs (run, instance, proc, round, ...), so a flat JSON-lines
// stream can be re-assembled into the tree.
type Event struct {
	Time  time.Time      `json:"ts"`
	Name  string         `json:"name"`
	Dur   time.Duration  `json:"dur_ns,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Sink receives trace events. Implementations must be safe for concurrent
// use; Emit is called from protocol hot paths while tracing is enabled.
type Sink interface {
	Emit(ev Event)
}

// sinkBox wraps the interface so an atomic.Pointer can hold it.
type sinkBox struct{ s Sink }

var activeSink atomic.Pointer[sinkBox]

// SetSink installs the process-wide trace sink and returns the previous
// one. A nil sink disables tracing; while disabled, an event costs one
// atomic load.
func SetSink(s Sink) Sink {
	var prev *sinkBox
	if s == nil {
		prev = activeSink.Swap(nil)
	} else {
		prev = activeSink.Swap(&sinkBox{s: s})
	}
	if prev == nil {
		return nil
	}
	return prev.s
}

// TraceOn reports whether a sink is installed. Call sites pay one atomic
// load; attribute maps are only built when this returns true.
func TraceOn() bool { return activeSink.Load() != nil }

// Emit records a point event (no duration) if tracing is enabled.
func Emit(name string, attrs map[string]any) {
	box := activeSink.Load()
	if box == nil {
		return
	}
	box.s.Emit(Event{Time: time.Now(), Name: name, Attrs: attrs})
}

// JSONSink writes each event as one JSON object per line.
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSink wraps w; writes are serialised internally.
func NewJSONSink(w io.Writer) *JSONSink {
	return &JSONSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (j *JSONSink) Emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.enc.Encode(ev) // tracing is best-effort; a broken sink must not stall the protocol
}

// MemorySink buffers events in memory — the measurement substrate for
// experiment E19 and the trace tests.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty buffer sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (m *MemorySink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Events returns a copy of everything recorded so far.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Reset discards the buffer.
func (m *MemorySink) Reset() {
	m.mu.Lock()
	m.events = nil
	m.mu.Unlock()
}
