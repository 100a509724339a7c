// Package chaos injects seeded, deterministic network faults between the
// reliable-link layer and the real transport: per-frame drops, duplication,
// bounded random delays, and timed link partitions. It is the adversary the
// chaos-matrix experiment runs Algorithm CC against — the protocol is proven
// correct assuming reliable FIFO channels, package rlink implements those
// channels over a fair-lossy link, and this package makes the link lossy in
// a reproducible way.
//
// Determinism: the fate of the k-th frame offered on a directed link is a
// pure function of (Seed, from, to, k). Two injectors built with the same
// profile and seed make identical dice decisions for identical per-link
// frame sequences, so the fault plan replays exactly from the seed.
// Partition windows are expressed in per-link frame counts (StartFrame,
// EndFrame), which keeps them inside the same pure function; the legacy
// wall-clock form (Start, End) is still accepted for CLI use, measured on an
// injectable clock — with a real clock, *which* frame indices fall inside
// the window depends on scheduling, so such a run is reproducible only in
// distribution. (Under real concurrency the interleaving of *different*
// links always varies; the per-link decision streams do not.)
package chaos

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/dist"
	"chc/internal/plan"
	"chc/internal/wire"
)

// Sender matches rlink.Sender: the unreliable frame hop below the injector.
type Sender interface {
	SendFrame(to dist.ProcID, f wire.Frame) error
}

// Partition cuts every link between the processes in Isolated and the rest
// of the cluster (both directions) for the duration of a window.
// Retransmission heals the cut once the window closes, so a transient
// partition must only delay — never forfeit — termination.
//
// The window has two forms. The deterministic form counts frames: the cut
// covers the k-th through (EndFrame-1)-th frame offered on each affected
// link (active when EndFrame > 0), making the whole fault plan a pure
// function of the seed. The legacy form is a wall-clock interval
// [Start, End) measured from the injector's construction on its clock.
type Partition struct {
	Start, End           time.Duration
	StartFrame, EndFrame int64
	Isolated             []dist.ProcID
}

// Profile describes the fault mix injected on every link.
type Profile struct {
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Dup is the probability a (non-dropped) frame is sent twice.
	Dup float64
	// DelayMin/DelayMax bound a uniform random delay added to every frame;
	// DelayMax = 0 disables delays. Delays reorder frames, exercising the
	// receive-side reorder buffer.
	DelayMin, DelayMax time.Duration
	// Partitions schedules transient link cuts.
	Partitions []Partition
}

// Enabled reports whether the profile injects any fault at all.
func (p Profile) Enabled() bool {
	return p.Drop > 0 || p.Dup > 0 || p.DelayMax > 0 || len(p.Partitions) > 0
}

// Light is a mild profile: occasional drops and duplicates, sub-millisecond
// delays, no partitions.
func Light() Profile {
	return Profile{Drop: 0.05, Dup: 0.02, DelayMax: 500 * time.Microsecond}
}

// Heavy combines >= 20% loss, duplication, delay jitter and a transient
// partition isolating process 0 — the acceptance profile of the chaos
// matrix. The partition is frame-counted so the whole profile is a pure
// function of the seed.
func Heavy() Profile {
	return Profile{
		Drop:     0.20,
		Dup:      0.10,
		DelayMin: 50 * time.Microsecond,
		DelayMax: 2 * time.Millisecond,
		Partitions: []Partition{
			{StartFrame: 5, EndFrame: 60, Isolated: []dist.ProcID{0}},
		},
	}
}

// Stats counts injected faults.
type Stats struct {
	Drops          int64 // frames discarded by the drop dice
	Dups           int64 // extra copies sent by the duplication dice
	Delays         int64 // frames deferred by the delay dice
	PartitionDrops int64 // frames discarded inside a partition window
}

// Injector wraps a Sender for one node and applies the profile to every
// outgoing frame. It is safe for concurrent use.
type Injector struct {
	self    dist.ProcID
	profile Profile
	next    Sender
	clock   func() time.Duration // elapsed time, for wall-clock partitions

	links []*linkDice

	drops          atomic.Int64
	dups           atomic.Int64
	delays         atomic.Int64
	partitionDrops atomic.Int64

	closed atomic.Bool
}

// linkDice is the seeded random stream and frame counter of one directed
// link. Guarding each stream with its own mutex keeps the decision sequence
// deterministic per link no matter how goroutines interleave across links.
type linkDice struct {
	mu    sync.Mutex
	rng   *rand.Rand
	count int64 // frames offered on this link so far
}

// New builds an injector for frames sent by node self in a cluster of n
// nodes. Wall-clock partition windows, if any, start now.
func New(self dist.ProcID, n int, profile Profile, seed int64, next Sender) *Injector {
	start := time.Now()
	return NewWithClock(self, n, profile, seed, next, func() time.Duration {
		return time.Since(start)
	})
}

// NewWithClock is New with an injectable elapsed-time source for wall-clock
// partition windows, so tests (and deterministic harnesses) control time.
// Frame-counted faults never consult the clock.
func NewWithClock(self dist.ProcID, n int, profile Profile, seed int64, next Sender, clock func() time.Duration) *Injector {
	inj := &Injector{
		self:    self,
		profile: profile,
		next:    next,
		clock:   clock,
		links:   make([]*linkDice, n),
	}
	for to := range inj.links {
		// Decorrelate links with a splitmix-style seed derivation.
		s := uint64(seed)
		s = s*plan.Golden + uint64(self) + 1
		s = s*plan.Golden + uint64(to) + 1
		inj.links[to] = &linkDice{rng: rand.New(rand.NewSource(int64(s)))}
	}
	return inj
}

// SendFrame applies the fault dice to one frame and forwards the surviving
// copies to the underlying transport.
func (inj *Injector) SendFrame(to dist.ProcID, f wire.Frame) error {
	if inj.closed.Load() {
		return inj.next.SendFrame(to, f)
	}
	if to < 0 || int(to) >= len(inj.links) {
		return inj.next.SendFrame(to, f)
	}
	l := inj.links[to]
	l.mu.Lock()
	k := l.count
	l.count++
	// Partitioned frames consume the frame index but no dice, so the dice
	// stream stays aligned with the surviving-frame sequence either way.
	if inj.partitioned(to, k) {
		l.mu.Unlock()
		inj.partitionDrops.Add(1)
		mPartitionDrops.Inc()
		return nil
	}
	// Always burn exactly three dice per frame so the decision stream stays
	// aligned with the frame index regardless of which faults are enabled.
	dropRoll := l.rng.Float64()
	dupRoll := l.rng.Float64()
	delayRoll := l.rng.Float64()
	l.mu.Unlock()

	if dropRoll < inj.profile.Drop {
		inj.drops.Add(1)
		mDrops.Inc()
		return nil
	}
	copies := 1
	if dupRoll < inj.profile.Dup {
		inj.dups.Add(1)
		mDups.Inc()
		copies = 2
	}
	var delay time.Duration
	if inj.profile.DelayMax > 0 {
		span := inj.profile.DelayMax - inj.profile.DelayMin
		delay = inj.profile.DelayMin + time.Duration(delayRoll*float64(span))
	}
	if delay > 0 {
		inj.delays.Add(1)
		mDelays.Inc()
		for c := 0; c < copies; c++ {
			time.AfterFunc(delay, func() {
				if inj.closed.Load() {
					return
				}
				_ = inj.next.SendFrame(to, f)
			})
		}
		return nil
	}
	err := inj.next.SendFrame(to, f)
	for c := 1; c < copies; c++ {
		_ = inj.next.SendFrame(to, f)
	}
	return err
}

// partitioned reports whether the self->to link is cut for the k-th frame
// offered on it. Frame-counted windows compare k directly; wall-clock
// windows consult the injector's clock.
func (inj *Injector) partitioned(to dist.ProcID, k int64) bool {
	var elapsed time.Duration
	var clocked bool
	for _, p := range inj.profile.Partitions {
		if p.EndFrame > 0 {
			if k < p.StartFrame || k >= p.EndFrame {
				continue
			}
		} else {
			if !clocked {
				elapsed = inj.clock()
				clocked = true
			}
			if elapsed < p.Start || elapsed >= p.End {
				continue
			}
		}
		selfIn, toIn := false, false
		for _, id := range p.Isolated {
			if id == inj.self {
				selfIn = true
			}
			if id == to {
				toIn = true
			}
		}
		if selfIn != toIn {
			return true
		}
	}
	return false
}

// Stats returns a snapshot of the injected-fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{
		Drops:          inj.drops.Load(),
		Dups:           inj.dups.Load(),
		Delays:         inj.delays.Load(),
		PartitionDrops: inj.partitionDrops.Load(),
	}
}

// Close disarms the injector: pending delayed frames are discarded and
// future frames pass through unmodified (shutdown traffic should not be
// chaos-dropped, or closing acks would retransmit forever).
func (inj *Injector) Close() error {
	inj.closed.Store(true)
	return nil
}

// ParseProfile builds a profile from a compact CLI spec. Accepted forms:
//
//	off                      — zero profile
//	light | heavy            — the presets above; refinable ("heavy,drop=0.3")
//	key=value[,key=value...] — custom profile with keys:
//	    drop=0.2             frame drop probability
//	    dup=0.1              duplication probability
//	    delay=100us-2ms      uniform delay bounds (single value = max)
//	    part=5ms-25ms:0+1    wall-clock partition window and isolated IDs
//	                         ('+'-separated)
//	    part=5f-60f:0+1      frame-counted partition window (deterministic
//	                         per seed): frames 5..59 of each affected link
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	preset, settings, err := plan.Split(spec, func(s string) bool { return s == "light" || s == "heavy" })
	if err != nil {
		return p, fmt.Errorf("chaos: %w", err)
	}
	switch preset {
	case "off":
		return p, nil
	case "light":
		p = Light()
	case "heavy":
		p = Heavy()
	}
	for _, kv := range settings {
		key, val := kv.Key, kv.Val
		switch key {
		case "drop", "dup":
			x, err := plan.Prob(val)
			if err != nil {
				return p, fmt.Errorf("chaos: %s: %w", key, err)
			}
			if key == "drop" {
				p.Drop = x
			} else {
				p.Dup = x
			}
		case "delay":
			lo, hi, err := plan.DurationRange(val)
			if err != nil {
				return p, fmt.Errorf("chaos: bad delay %q: %w", val, err)
			}
			p.DelayMin, p.DelayMax = lo, hi
		case "part", "partition":
			bits := strings.SplitN(val, ":", 2)
			if len(bits) != 2 {
				return p, fmt.Errorf("chaos: bad partition %q (want start-end:ids)", val)
			}
			win := Partition{}
			if flo, fhi, ok, err := parseFrameRange(bits[0]); ok {
				if err != nil {
					return p, fmt.Errorf("chaos: bad partition window %q: %w", bits[0], err)
				}
				win.StartFrame, win.EndFrame = flo, fhi
			} else {
				lo, hi, err := plan.DurationRange(bits[0])
				if err != nil {
					return p, fmt.Errorf("chaos: bad partition window %q: %w", bits[0], err)
				}
				win.Start, win.End = lo, hi
			}
			for _, s := range strings.Split(bits[1], "+") {
				id, err := strconv.Atoi(strings.TrimSpace(s))
				if err != nil {
					return p, fmt.Errorf("chaos: bad partition process %q", s)
				}
				win.Isolated = append(win.Isolated, dist.ProcID(id))
			}
			p.Partitions = append(p.Partitions, win)
		default:
			return p, fmt.Errorf("chaos: unknown profile key %q", key)
		}
	}
	return p, nil
}

// parseFrameRange parses the frame-counted window forms "5f-60f" or "60f"
// (start 0). ok reports whether s uses the frame form at all; a malformed
// frame range returns ok with an error.
func parseFrameRange(s string) (lo, hi int64, ok bool, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasSuffix(s, "f") {
		return 0, 0, false, nil
	}
	parse := func(part string) (int64, error) {
		part = strings.TrimSpace(part)
		if !strings.HasSuffix(part, "f") {
			return 0, fmt.Errorf("mixed frame/duration range %q", s)
		}
		return strconv.ParseInt(strings.TrimSuffix(part, "f"), 10, 64)
	}
	if i := strings.Index(s, "-"); i >= 0 {
		if lo, err = parse(s[:i]); err != nil {
			return 0, 0, true, err
		}
		if hi, err = parse(s[i+1:]); err != nil {
			return 0, 0, true, err
		}
	} else if hi, err = parse(s); err != nil {
		return 0, 0, true, err
	}
	if lo < 0 || hi <= lo {
		return 0, 0, true, fmt.Errorf("invalid frame range %q", s)
	}
	return lo, hi, true, nil
}

// String renders the profile compactly for logs and tables.
func (p Profile) String() string {
	if !p.Enabled() {
		return "off"
	}
	var parts []string
	if p.Drop > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", p.Drop))
	}
	if p.Dup > 0 {
		parts = append(parts, fmt.Sprintf("dup=%g", p.Dup))
	}
	if p.DelayMax > 0 {
		parts = append(parts, fmt.Sprintf("delay=%v-%v", p.DelayMin, p.DelayMax))
	}
	for _, part := range p.Partitions {
		ids := make([]string, len(part.Isolated))
		for i, id := range part.Isolated {
			ids[i] = strconv.Itoa(int(id))
		}
		if part.EndFrame > 0 {
			parts = append(parts, fmt.Sprintf("part=%df-%df:%s", part.StartFrame, part.EndFrame, strings.Join(ids, "+")))
		} else {
			parts = append(parts, fmt.Sprintf("part=%v-%v:%s", part.Start, part.End, strings.Join(ids, "+")))
		}
	}
	return strings.Join(parts, ",")
}
