package wire

import (
	"testing"

	"chc/internal/dist"
	"chc/internal/geom"
)

// TestInstanceRoundTrip is the regression test for the demux bug the numeric
// instance field removes: the old multiplexing layer namespaced instances by
// rewriting the kind string ("i3|val"), so a legitimate protocol kind of that
// shape was mis-parsed and mis-routed. With the instance carried in its own
// envelope field, any kind — including ones containing the old separator or
// an "i<digits>|" prefix — must round-trip byte-for-byte alongside any
// instance index.
func TestInstanceRoundTrip(t *testing.T) {
	kinds := []string{
		"cc.state",
		"i3|val", // looks exactly like an old instance prefix
		"i0|cc.state",
		"i|",
		"|",
		"a|b|c",
		"i12",
		"",
	}
	instances := []int{0, 1, 3, 12, 255, 1 << 20}
	for _, kind := range kinds {
		for _, inst := range instances {
			m := dist.Message{
				From:     1,
				To:       2,
				Kind:     kind,
				Round:    7,
				Instance: inst,
				Payload:  PointPayload{Value: geom.NewPoint(1.5, -2.25)},
			}
			b, err := AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("encode kind=%q instance=%d: %v", kind, inst, err)
			}
			got, err := DecodeMessage(b)
			if err != nil {
				t.Fatalf("decode kind=%q instance=%d: %v", kind, inst, err)
			}
			if got.Kind != kind {
				t.Errorf("kind not byte-for-byte: sent %q, got %q", kind, got.Kind)
			}
			if got.Instance != inst {
				t.Errorf("kind %q: instance %d decoded as %d", kind, inst, got.Instance)
			}
			if got.From != m.From || got.To != m.To || got.Round != m.Round {
				t.Errorf("kind %q: envelope mangled: %+v", kind, got)
			}
		}
	}
}
