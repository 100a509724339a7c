package plan

import (
	"reflect"
	"testing"
	"time"
)

func TestSplit(t *testing.T) {
	isPreset := func(s string) bool { return s == "mild" }
	cases := []struct {
		spec     string
		preset   string
		settings []Setting
		ok       bool
	}{
		{"", "off", nil, true},
		{" OFF ", "off", nil, true},
		{"none", "off", nil, true},
		{"off,a=1", "", nil, false},
		{"mild", "mild", nil, true},
		{"Mild, A=1 ,b=x=y", "mild", []Setting{{"a", "1"}, {"b", "x=y"}}, true},
		{"a=1", "", []Setting{{"a", "1"}}, true},
		{"wild", "", nil, false},
		{"mild,,a=1,", "mild", []Setting{{"a", "1"}}, true},
	}
	for _, c := range cases {
		preset, settings, err := Split(c.spec, isPreset)
		if (err == nil) != c.ok || preset != c.preset || !reflect.DeepEqual(settings, c.settings) {
			t.Errorf("Split(%q) = %q, %v, %v; want %q, %v, ok=%v", c.spec, preset, settings, err, c.preset, c.settings, c.ok)
		}
	}
}

func TestProbAndDurationRange(t *testing.T) {
	for s, want := range map[string]float64{"0": 0, "0.25": 0.25, "0.999": 0.999} {
		if got, err := Prob(s); err != nil || got != want {
			t.Errorf("Prob(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"1", "-0.1", "x", ""} {
		if _, err := Prob(s); err == nil {
			t.Errorf("Prob(%q) accepted", s)
		}
	}
	for s, want := range map[string][2]time.Duration{
		"2ms":         {0, 2 * time.Millisecond},
		"100us-2ms":   {100 * time.Microsecond, 2 * time.Millisecond},
		" 1ms - 1ms ": {time.Millisecond, time.Millisecond},
	} {
		if lo, hi, err := DurationRange(s); err != nil || lo != want[0] || hi != want[1] {
			t.Errorf("DurationRange(%q) = %v, %v, %v", s, lo, hi, err)
		}
	}
	for _, s := range []string{"2ms-1ms", "-1ms", "x-2ms", "1ms-y", ""} {
		if _, _, err := DurationRange(s); err == nil {
			t.Errorf("DurationRange(%q) accepted", s)
		}
	}
}

// TestMix64 pins the splitmix64 reference outputs for seed 0, so the dice
// under every golden schedule test are anchored to the published generator.
func TestMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var state uint64
	for i, w := range want {
		if got := Mix64(state); got != w {
			t.Errorf("step %d: %#x, want %#x", i, got, w)
		}
		state += Golden
	}
	if u := Unit(^uint64(0)); u >= 1 || Unit(0) != 0 {
		t.Errorf("Unit out of [0,1): %v", u)
	}
}
