package wan

import (
	"math/rand"
	"time"

	"chc/internal/dist"
)

// SimScheduler drives the deterministic simulator through the WAN model in
// virtual time: every message entering a channel queue is assigned an
// arrival time (departure after the link's bandwidth serialization clock
// and any one-way cut window, plus the seeded propagation delay, clamped
// FIFO per link), and each Pick delivers the message with the earliest
// arrival, advancing the virtual clock to it.
//
// The schedule is a pure function of the WAN seed: no wall clock, no rng
// (the rng argument is ignored), so the same seed yields a bitwise
// identical delivery order — and therefore bitwise identical decision
// values — on any host. Because time is virtual, a 1000-process mesh under
// transcontinental delays simulates in seconds of real time.
type SimScheduler struct {
	m         *Model
	now       time.Duration // virtual clock
	links     []*simLink    // dense, from*N+to; built on first use
	delivered int64
	held      int64
}

// simLink tracks one directed channel's WAN state.
type simLink struct {
	seq     int64           // transmissions ever scheduled on this link
	arr     []time.Duration // arrival times of queued messages (FIFO)
	head    int             // index of the queue head within arr
	free    time.Duration   // bandwidth serialization clock
	last    time.Duration   // FIFO clamp: no arrival precedes an earlier one
	deliver int64           // deliveries (for the per-path metric family)
}

var _ dist.Scheduler = (*SimScheduler)(nil)

// NewSimScheduler resolves plan for an n-process simulation.
func NewSimScheduler(plan Plan, n int, seed int64) (*SimScheduler, error) {
	m, err := NewModel(plan, n, seed)
	if err != nil {
		return nil, err
	}
	return NewSimSchedulerModel(m), nil
}

// NewSimSchedulerModel wraps an already-resolved model.
func NewSimSchedulerModel(m *Model) *SimScheduler {
	return &SimScheduler{m: m, links: make([]*simLink, m.N()*m.N())}
}

// Pick implements dist.Scheduler. channels lists the non-empty queues in
// the simulator's deterministic order; Pending is the queue length.
func (s *SimScheduler) Pick(channels []dist.ChannelState, _ *rand.Rand) int {
	best, bestArr := -1, time.Duration(0)
	for idx, ch := range channels {
		l := s.link(ch.From, ch.To)
		// Admit messages that entered the queue since the last look: assign
		// departure (behind the serialization clock and any cut window),
		// transmission and propagation, FIFO-clamped per link.
		for ch.Pending > len(l.arr)-l.head {
			depart := s.now
			if depart < l.free {
				depart = l.free
			}
			depart, held := s.m.CutRelease(ch.From, ch.To, depart)
			if held {
				s.held++
				mSimCutHeld.With(s.m.PathLabel(ch.From, ch.To)).Inc()
			}
			tx := s.m.TxTime(ch.From, ch.To, s.m.MsgBytes())
			l.free = depart + tx
			arr := depart + tx + s.m.Delay(ch.From, ch.To, l.seq)
			if arr < l.last {
				arr = l.last
			}
			l.last = arr
			l.seq++
			l.arr = append(l.arr, arr)
		}
		if head := l.arr[l.head]; best < 0 || head < bestArr {
			best, bestArr = idx, head
		}
	}
	if best < 0 {
		return 0
	}
	ch := channels[best]
	l := s.link(ch.From, ch.To)
	l.head++
	if l.head == len(l.arr) {
		l.arr, l.head = l.arr[:0], 0
	}
	l.deliver++
	s.delivered++
	if bestArr > s.now {
		s.now = bestArr
	}
	mSimDeliveries.With(s.m.PathLabel(ch.From, ch.To)).Inc()
	return best
}

func (s *SimScheduler) link(from, to dist.ProcID) *simLink {
	k := int(from)*s.m.N() + int(to)
	l := s.links[k]
	if l == nil {
		l = &simLink{}
		s.links[k] = l
	}
	return l
}

// Elapsed returns the virtual time consumed so far.
func (s *SimScheduler) Elapsed() time.Duration { return s.now }

// Delivered returns the number of deliveries scheduled so far.
func (s *SimScheduler) Delivered() int64 { return s.delivered }

// Held returns the number of departures postponed by a one-way cut window.
func (s *SimScheduler) Held() int64 { return s.held }

// Model exposes the resolved model (region assignment, matrices).
func (s *SimScheduler) Model() *Model { return s.m }
