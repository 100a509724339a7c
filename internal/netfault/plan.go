package netfault

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"chc/internal/plan"
)

// Plan is a declarative byte-stream fault schedule. Probabilities apply per
// byte window: the fate of the k-th window on a given link is a pure
// function of (Seed, link, k) — see fate — so identical seeds produce
// identical corruption schedules regardless of goroutine interleaving or
// how the writer happens to chunk its writes.
type Plan struct {
	// Seed drives every dice roll. Two injectors with equal plans corrupt
	// identical byte offsets of identical link streams.
	Seed int64

	// FlipProb is the probability a window has one bit flipped; GarbageProb
	// the probability a run of its bytes is overwritten with garbage;
	// LenMutProb the probability the four bytes at the window start are
	// overwritten with 0xFFFFFFFF — the shape of a corrupted length prefix,
	// which is exactly the fault the decoder's pre-allocation cap exists
	// for.
	FlipProb    float64
	GarbageProb float64
	LenMutProb  float64

	// TruncProb is the probability the remainder of a write is silently
	// discarded from the window start onward (bytes lost in flight, stream
	// desynchronized); ResetProb the probability the connection is closed
	// mid-window (a mid-frame connection reset).
	TruncProb float64
	ResetProb float64

	// StallProb is the probability an I/O touching the window stalls for a
	// duration uniform in [StallMin, StallMax] before proceeding.
	StallProb float64
	StallMin  time.Duration
	StallMax  time.Duration

	// WindowBytes is the fault granularity (default 256): the stream is cut
	// into windows of this size and each window draws one fate.
	WindowBytes int

	// AfterBytes is a per-link grace prefix: the first AfterBytes bytes of
	// each link stream pass untouched, so connections can establish and
	// identify themselves before the faults arm.
	AfterBytes int64

	// LinkSubstr confines the plan to links whose label contains this
	// substring (e.g. "1->0" for one directed link). Empty attacks every
	// link.
	LinkSubstr string
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.FlipProb > 0 || p.GarbageProb > 0 || p.LenMutProb > 0 ||
		p.TruncProb > 0 || p.ResetProb > 0 || p.StallProb > 0
}

// Flaky is a mild plan: occasional bit flips and lost tails, rare stalls.
// A hardened link layer survives it with retransmissions and the odd
// reconnect; quarantine should not trigger.
func Flaky() Plan {
	return Plan{
		FlipProb:   0.01,
		TruncProb:  0.005,
		StallProb:  0.01,
		StallMax:   2 * time.Millisecond,
		AfterBytes: 4096,
	}
}

// Hostile is an adversarial wire: frequent flips, garbage runs, mutated
// length prefixes, lost tails and mid-frame resets — the acceptance plan of
// the wire-fault matrix. Progress then relies on CRC rejection, stream
// resynchronization, retransmission and peer quarantine/readmit.
func Hostile() Plan {
	return Plan{
		FlipProb:    0.05,
		GarbageProb: 0.02,
		LenMutProb:  0.01,
		TruncProb:   0.02,
		ResetProb:   0.005,
		StallProb:   0.02,
		StallMin:    100 * time.Microsecond,
		StallMax:    2 * time.Millisecond,
		AfterBytes:  2048,
	}
}

// matches reports whether the plan attacks this link.
func (p Plan) matches(link string) bool {
	return p.LinkSubstr == "" || strings.Contains(link, p.LinkSubstr)
}

// Window fates.
type fateKind int

const (
	fateClean fateKind = iota
	fateFlip
	fateGarbage
	fateLenMut
	fateTrunc
	fateReset
	fateStall
)

// String names the fate for stats and logs.
func (f fateKind) String() string {
	switch f {
	case fateFlip:
		return "flip"
	case fateGarbage:
		return "garbage"
	case fateLenMut:
		return "lenmut"
	case fateTrunc:
		return "trunc"
	case fateReset:
		return "reset"
	case fateStall:
		return "stall"
	default:
		return "clean"
	}
}

// dice derives the deterministic roll for the k-th byte window of one link:
// plan.Mix64 over (seed, link hash, k), mirroring diskfault. The roll is a
// uniform float in [0,1); the raw word seeds any secondary draw (bit
// position, garbage run, stall point).
func (p Plan) dice(link string, k int64) (roll float64, raw uint64) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(link))
	raw = plan.Mix64(uint64(p.Seed) ^ h.Sum64() ^ uint64(k)*plan.Golden)
	return plan.Unit(raw), raw
}

// fate decides window k of a link stream: one roll cascaded over the fault
// probabilities, so at most one fault fires per window. The raw word is
// returned for secondary draws.
func (p Plan) fate(link string, k int64) (fateKind, uint64) {
	roll, raw := p.dice(link, k)
	cut := p.FlipProb
	if roll < cut {
		return fateFlip, raw
	}
	if cut += p.GarbageProb; roll < cut {
		return fateGarbage, raw
	}
	if cut += p.LenMutProb; roll < cut {
		return fateLenMut, raw
	}
	if cut += p.TruncProb; roll < cut {
		return fateTrunc, raw
	}
	if cut += p.ResetProb; roll < cut {
		return fateReset, raw
	}
	if cut += p.StallProb; roll < cut {
		return fateStall, raw
	}
	return fateClean, raw
}

// stall derives the deterministic stall duration from a raw dice word.
func (p Plan) stall(raw uint64) time.Duration {
	span := p.StallMax - p.StallMin
	d := p.StallMin
	if span > 0 {
		d += time.Duration(raw % uint64(span))
	}
	return d
}

// withDefaults fills the zero-value knobs.
func (p Plan) withDefaults() Plan {
	if p.WindowBytes <= 0 {
		p.WindowBytes = 256
	}
	if p.StallProb > 0 && p.StallMax <= 0 {
		p.StallMax = time.Millisecond
	}
	return p
}

// ParsePlan parses a wire-fault plan spec. Accepted forms:
//
//	off | none         no faults
//	flaky | hostile    the presets above
//	key=value,...      a custom plan:
//	    flip=P         bit-flip probability per window
//	    garbage=P      garbage-run probability per window
//	    lenmut=P       length-prefix mutation probability per window
//	    trunc=P        lost-tail (truncated write) probability per window
//	    reset=P        mid-frame connection reset probability per window
//	    stall=P:LO-HI  stall probability and duration range
//	    window=N       fault window size in bytes
//	    link=SUBSTR    confine faults to links whose label contains SUBSTR
//	    after=N        per-link grace bytes before faults arm
//
// A preset may be refined: "hostile,reset=0.02" starts from Hostile. The
// seed is supplied separately (it pairs with the run seed, like chaos and
// diskfault).
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	preset, settings, err := plan.Split(spec, func(s string) bool { return s == "flaky" || s == "hostile" })
	if err != nil {
		return p, fmt.Errorf("netfault: %w", err)
	}
	switch preset {
	case "off":
		return p, nil
	case "flaky":
		p = Flaky()
	case "hostile":
		p = Hostile()
	}
	for _, kv := range settings {
		key, val := kv.Key, kv.Val
		switch key {
		case "flip", "garbage", "lenmut", "trunc", "reset":
			x, err := plan.Prob(val)
			if err != nil {
				return p, fmt.Errorf("netfault: %s: %w", key, err)
			}
			switch key {
			case "flip":
				p.FlipProb = x
			case "garbage":
				p.GarbageProb = x
			case "lenmut":
				p.LenMutProb = x
			case "trunc":
				p.TruncProb = x
			case "reset":
				p.ResetProb = x
			}
		case "stall":
			prob, window, ranged := strings.Cut(val, ":")
			if p.StallProb, err = plan.Prob(prob); err != nil {
				return p, fmt.Errorf("netfault: stall: %w", err)
			}
			if ranged {
				if p.StallMin, p.StallMax, err = plan.DurationRange(window); err != nil {
					return p, fmt.Errorf("netfault: bad stall range %q: %w", window, err)
				}
			} else if p.StallMax == 0 {
				p.StallMax = time.Millisecond
			}
		case "window":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("netfault: bad window size %q", val)
			}
			p.WindowBytes = n
		case "link":
			p.LinkSubstr = val
		case "after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return p, fmt.Errorf("netfault: bad after byte count %q", val)
			}
			p.AfterBytes = n
		default:
			return p, fmt.Errorf("netfault: unknown plan key %q", key)
		}
	}
	return p, nil
}

// String renders the plan compactly for logs and tables (inverse of
// ParsePlan for every field except Seed).
func (p Plan) String() string {
	if !p.Enabled() {
		return "off"
	}
	var parts []string
	if p.FlipProb > 0 {
		parts = append(parts, fmt.Sprintf("flip=%g", p.FlipProb))
	}
	if p.GarbageProb > 0 {
		parts = append(parts, fmt.Sprintf("garbage=%g", p.GarbageProb))
	}
	if p.LenMutProb > 0 {
		parts = append(parts, fmt.Sprintf("lenmut=%g", p.LenMutProb))
	}
	if p.TruncProb > 0 {
		parts = append(parts, fmt.Sprintf("trunc=%g", p.TruncProb))
	}
	if p.ResetProb > 0 {
		parts = append(parts, fmt.Sprintf("reset=%g", p.ResetProb))
	}
	if p.StallProb > 0 {
		parts = append(parts, fmt.Sprintf("stall=%g:%v-%v", p.StallProb, p.StallMin, p.StallMax))
	}
	if p.WindowBytes > 0 {
		parts = append(parts, fmt.Sprintf("window=%d", p.WindowBytes))
	}
	if p.LinkSubstr != "" {
		parts = append(parts, "link="+p.LinkSubstr)
	}
	if p.AfterBytes > 0 {
		parts = append(parts, fmt.Sprintf("after=%d", p.AfterBytes))
	}
	return strings.Join(parts, ",")
}
