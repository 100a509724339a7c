package dist

import "math/rand"

// ChannelState describes one non-empty FIFO channel to the scheduler.
type ChannelState struct {
	From    ProcID
	To      ProcID
	Pending int    // queued messages on this channel
	Kind    string // kind of the oldest queued message
	Round   int    // round of the oldest queued message
}

// Scheduler chooses which channel delivers next. It models the asynchronous
// adversary: any choice is admissible because channels stay FIFO and every
// message is eventually deliverable (Pick is called until queues drain). A
// scheduler value drives one simulation at a time: implementations may keep
// state between picks.
type Scheduler interface {
	// Pick returns an index into channels: every non-empty channel, in
	// ascending (From, To) order. The slice is the simulator's own working
	// view, patched in place between deliveries — it is valid only for the
	// duration of the call and must be neither mutated nor retained.
	Pick(channels []ChannelState, rng *rand.Rand) int
}

// RandomScheduler delivers from a uniformly random non-empty channel — the
// "benign asynchrony" baseline.
type RandomScheduler struct{}

// NewRandomScheduler returns a RandomScheduler.
func NewRandomScheduler() *RandomScheduler { return &RandomScheduler{} }

// Pick implements Scheduler.
func (*RandomScheduler) Pick(channels []ChannelState, rng *rand.Rand) int {
	return rng.Intn(len(channels))
}

// RoundRobinScheduler cycles deterministically over channels in key order,
// approximating a synchronous network.
type RoundRobinScheduler struct {
	next int
}

// NewRoundRobinScheduler returns a RoundRobinScheduler.
func NewRoundRobinScheduler() *RoundRobinScheduler { return &RoundRobinScheduler{} }

// Pick implements Scheduler.
func (s *RoundRobinScheduler) Pick(channels []ChannelState, _ *rand.Rand) int {
	idx := s.next % len(channels)
	s.next++
	return idx
}

// DelayScheduler starves every channel that touches a process in Slow for as
// long as any other channel has traffic. This realises the classical
// adversarial execution in which up to f processes are "so slow that the
// others must decide without them" (used by the optimality proof of
// Theorem 3).
type DelayScheduler struct {
	slow map[ProcID]bool
	fast []int // scratch, reused across picks
}

// NewDelayScheduler returns a DelayScheduler that starves the given
// processes.
func NewDelayScheduler(slow ...ProcID) *DelayScheduler {
	m := make(map[ProcID]bool, len(slow))
	for _, p := range slow {
		m[p] = true
	}
	return &DelayScheduler{slow: m}
}

// Pick implements Scheduler.
func (s *DelayScheduler) Pick(channels []ChannelState, rng *rand.Rand) int {
	fast := s.fast[:0]
	for i, c := range channels {
		if !s.slow[c.From] && !s.slow[c.To] {
			fast = append(fast, i)
		}
	}
	s.fast = fast
	if len(fast) == 0 {
		return rng.Intn(len(channels))
	}
	return fast[rng.Intn(len(fast))]
}

// SplitScheduler partitions processes into two groups and starves
// cross-group channels while intra-group traffic exists, letting the groups
// run ahead independently — the execution shape behind the Theorem 4
// impossibility argument.
type SplitScheduler struct {
	groupA map[ProcID]bool
	intra  []int // scratch, reused across picks
}

// NewSplitScheduler returns a SplitScheduler whose first group is the given
// set (everyone else is in the second group).
func NewSplitScheduler(groupA ...ProcID) *SplitScheduler {
	m := make(map[ProcID]bool, len(groupA))
	for _, p := range groupA {
		m[p] = true
	}
	return &SplitScheduler{groupA: m}
}

// Pick implements Scheduler.
func (s *SplitScheduler) Pick(channels []ChannelState, rng *rand.Rand) int {
	intra := s.intra[:0]
	for i, c := range channels {
		if s.groupA[c.From] == s.groupA[c.To] {
			intra = append(intra, i)
		}
	}
	s.intra = intra
	if len(intra) == 0 {
		return rng.Intn(len(channels))
	}
	return intra[rng.Intn(len(intra))]
}

// SplitRound0Scheduler applies the split adversary to one message kind only
// (typically the stable-vector reports of round 0) and schedules all other
// traffic uniformly. This produces executions in which a quorum-sized group
// stabilises round 0 early — so different processes return *different*
// (nested) stable vector results and start the averaging rounds from
// different polytopes — while the later rounds still mix freely.
type SplitRound0Scheduler struct {
	kind         string
	groupA       map[ProcID]bool
	intra, other []int // scratch, reused across picks
}

// NewSplitRound0Scheduler builds the scheduler; kind is the message kind to
// starve across groups (e.g. the stable-vector report kind).
func NewSplitRound0Scheduler(kind string, groupA ...ProcID) *SplitRound0Scheduler {
	m := make(map[ProcID]bool, len(groupA))
	for _, p := range groupA {
		m[p] = true
	}
	return &SplitRound0Scheduler{kind: kind, groupA: m}
}

// Pick implements Scheduler.
func (s *SplitRound0Scheduler) Pick(channels []ChannelState, rng *rand.Rand) int {
	intra, other := s.intra[:0], s.other[:0]
	for i, c := range channels {
		switch {
		case c.Kind != s.kind:
			other = append(other, i)
		case s.groupA[c.From] == s.groupA[c.To]:
			intra = append(intra, i)
		}
	}
	s.intra, s.other = intra, other
	if len(intra) > 0 {
		return intra[rng.Intn(len(intra))]
	}
	if len(other) > 0 {
		return other[rng.Intn(len(other))]
	}
	return rng.Intn(len(channels))
}

// RecordingScheduler wraps another scheduler and records every pick, so an
// interesting execution (a failure, a rare interleaving) can be replayed
// exactly with ReplayScheduler — independent of seeds and of which
// scheduler originally produced it.
type RecordingScheduler struct {
	Inner Scheduler
	Picks []int
}

// NewRecordingScheduler wraps inner (nil = random).
func NewRecordingScheduler(inner Scheduler) *RecordingScheduler {
	if inner == nil {
		inner = NewRandomScheduler()
	}
	return &RecordingScheduler{Inner: inner}
}

// Pick implements Scheduler.
func (s *RecordingScheduler) Pick(channels []ChannelState, rng *rand.Rand) int {
	idx := s.Inner.Pick(channels, rng)
	if idx < 0 || idx >= len(channels) {
		idx = 0
	}
	s.Picks = append(s.Picks, idx)
	return idx
}

// ReplayScheduler re-issues a recorded pick sequence. Once the recording is
// exhausted (or a recorded pick is out of range for the current channel
// set) it falls back to FIFO order; replaying against the same protocol and
// configuration never reaches the fallback.
type ReplayScheduler struct {
	picks []int
	pos   int
}

// NewReplayScheduler builds a scheduler replaying the given picks.
func NewReplayScheduler(picks []int) *ReplayScheduler {
	return &ReplayScheduler{picks: append([]int(nil), picks...)}
}

// Pick implements Scheduler.
func (s *ReplayScheduler) Pick(channels []ChannelState, _ *rand.Rand) int {
	if s.pos < len(s.picks) {
		idx := s.picks[s.pos]
		s.pos++
		if idx >= 0 && idx < len(channels) {
			return idx
		}
	}
	return 0
}

// var-declarations verify interface compliance at compile time.
var (
	_ Scheduler = (*RandomScheduler)(nil)
	_ Scheduler = (*RoundRobinScheduler)(nil)
	_ Scheduler = (*DelayScheduler)(nil)
	_ Scheduler = (*SplitScheduler)(nil)
	_ Scheduler = (*SplitRound0Scheduler)(nil)
	_ Scheduler = (*RecordingScheduler)(nil)
	_ Scheduler = (*ReplayScheduler)(nil)
)
