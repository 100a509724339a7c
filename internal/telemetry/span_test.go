package telemetry

import "time"

// Span is an in-flight timed region. A nil *Span is valid and inert, so
// call sites can unconditionally End() the result of StartSpan.
type Span struct {
	name  string
	start time.Time
	attrs map[string]any
}

// StartSpan opens a span; returns nil (inert) when tracing is disabled.
// The attrs map is retained until End and must not be mutated afterwards.
func StartSpan(name string, attrs map[string]any) *Span {
	if activeSink.Load() == nil {
		return nil
	}
	return &Span{name: name, start: time.Now(), attrs: attrs}
}

// End closes the span, merging extra attributes into the ones given at
// start, and emits it with its measured duration.
func (s *Span) End(extra map[string]any) {
	if s == nil {
		return
	}
	box := activeSink.Load()
	if box == nil {
		return
	}
	attrs := s.attrs
	if len(extra) > 0 {
		if attrs == nil {
			attrs = extra
		} else {
			for k, v := range extra {
				attrs[k] = v
			}
		}
	}
	box.s.Emit(Event{Time: s.start, Name: s.name, Dur: time.Since(s.start), Attrs: attrs})
}
