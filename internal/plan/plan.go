// Package plan holds what the seeded fault- and delay-plan packages (chaos,
// netfault, diskfault, wan) share: the spec grammar's outer split, its two
// scalar value forms, and the dice every schedule is drawn from. Each domain
// package keeps its own keys, presets and String.
package plan

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Setting is one key=value element of a plan spec; Key is lower-cased.
type Setting struct{ Key, Val string }

// Split cuts a spec of the shared grammar — "off", or an optional leading
// preset token followed by comma-separated key=value settings — into its
// preset and settings. An empty spec, "off" and "none" return preset "off"
// and cannot be refined; a spec with no leading preset returns preset "".
// Empty elements (a doubled or trailing comma) are skipped.
func Split(spec string, isPreset func(string) bool) (preset string, settings []Setting, err error) {
	parts := strings.Split(spec, ",")
	switch head := strings.ToLower(strings.TrimSpace(parts[0])); {
	case head == "" || head == "off" || head == "none":
		if len(parts) > 1 {
			return "", nil, fmt.Errorf("%q cannot be refined", parts[0])
		}
		return "off", nil, nil
	case isPreset(head):
		preset, parts = head, parts[1:]
	}
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return "", nil, fmt.Errorf("bad element %q (want key=value)", part)
		}
		settings = append(settings, Setting{strings.ToLower(key), val})
	}
	return preset, settings, nil
}

// Prob parses a probability in [0, 1).
func Prob(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err != nil || x < 0 || x >= 1 {
		return 0, fmt.Errorf("bad probability %q (want a float in [0, 1))", s)
	}
	return x, nil
}

// DurationRange parses "lo-hi" or a single "hi" duration. Duration strings
// never contain '-' except as a sign, which is disallowed here, so splitting
// on the first '-' is unambiguous.
func DurationRange(s string) (lo, hi time.Duration, err error) {
	los, his, ranged := strings.Cut(s, "-")
	if !ranged {
		los, his = "0", los
	}
	if lo, err = time.ParseDuration(strings.TrimSpace(los)); err != nil {
		return 0, 0, err
	}
	if hi, err = time.ParseDuration(strings.TrimSpace(his)); err != nil {
		return 0, 0, err
	}
	if lo < 0 || hi < lo {
		return 0, 0, fmt.Errorf("invalid range %q", s)
	}
	return lo, hi, nil
}

// Golden is the splitmix64 increment (2^64/φ); the plans also use it to
// spread their key words before mixing.
const Golden = 0x9e3779b97f4a7c15

// Mix64 is one splitmix64 step over x: a schedule's fate for a key is
// Mix64 of the key word, so it is a pure function of (seed, key).
func Mix64(x uint64) uint64 {
	x += Golden
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Unit maps a mixed word's high 53 bits to a uniform float in [0, 1).
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
