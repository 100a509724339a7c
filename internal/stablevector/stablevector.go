// Package stablevector implements the stable vector communication primitive
// of Attiya, Bar-Noy, Dolev, Peleg and Reischuk (used by Herlihy et al. for
// Barycentric agreement), which round 0 of Algorithm CC relies on.
//
// Each process contributes one input value. The primitive returns, at each
// live process, a set R_i of (process, value) pairs satisfying (Section 3 of
// the paper):
//
//   - Liveness:    |R_i| >= n - f.
//   - Containment: for any two processes that return, R_i ⊆ R_j or R_j ⊆ R_i.
//
// Implementation: echo-merge gossip. Every process maintains a grow-only set
// W of known (process, value) pairs, broadcast anew each time W grows. A set
// S with |S| >= n - f becomes stable at process i once n - f distinct
// processes have (ever) reported exactly S. Containment follows from quorum
// intersection (two quorums of size n - f share a process when n >= 2f + 1)
// plus the monotonicity of each process's report sequence; liveness follows
// because live processes keep echoing until every live process holds the
// same final set. Processes keep echoing even after their own set has
// stabilised — this keeps the primitive deadlock-free when some processes
// move on to later rounds early.
//
// Under crash faults every process contributes exactly one value, so a
// reported set is fixed by which processes are in it: sets are identified
// by their membership bitset over the n processes. A report that names a
// process outside [0, n) or twice, or carries a value for an already-known
// process that differs bitwise, cannot come from a crash-faulty process; it
// is malformed and ignored — no reporter credit, no merge, no echo.
package stablevector

import (
	"fmt"

	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/wire"
)

// KindReport is the message kind used by the primitive. Hosts embedding a
// SV must route messages of this kind to Handle.
const KindReport = "sv.report"

// SV is one process's stable vector instance. It is a passive state machine
// driven by its host process (see package core): the host calls Start once,
// routes every KindReport message to Handle, and observes completion via
// Result. SV is not safe for concurrent use; drive it from one goroutine.
type SV struct {
	id dist.ProcID
	n  int
	f  int

	// W_i: vals[p] is p's value once known (known has p), nKnown = |W_i|.
	vals   []geom.Point
	known  bitset
	nKnown int

	reports map[string]*report // every set of >= n-f reported so far, by membership
	scratch bitset             // membership of the report being handled

	result []wire.Entry
	done   bool
}

// report is one reported set: its membership key, its size and the
// processes that reported exactly it.
type report struct {
	key       string
	size      int
	reporters bitset
	count     int
}

// bitset is a set of process ids in [0, n), one bit each.
type bitset []byte

func newBitset(n int) bitset    { return make(bitset, (n+7)/8) }
func (b bitset) has(p int) bool { return b[p>>3]&(1<<(p&7)) != 0 }
func (b bitset) set(p int)      { b[p>>3] |= 1 << (p & 7) }

// New creates a stable vector instance for process id with input x.
// It requires n >= 2f + 1 (quorum intersection) and 0 <= id < n.
func New(id dist.ProcID, n, f int, x geom.Point) (*SV, error) {
	if n < 2*f+1 {
		return nil, fmt.Errorf("stablevector: n = %d < 2f+1 = %d", n, 2*f+1)
	}
	if f < 0 {
		return nil, fmt.Errorf("stablevector: negative f = %d", f)
	}
	if id < 0 || int(id) >= n {
		return nil, fmt.Errorf("stablevector: process %d outside [0, %d)", id, n)
	}
	s := &SV{
		id:      id,
		n:       n,
		f:       f,
		vals:    make([]geom.Point, n),
		known:   newBitset(n),
		reports: make(map[string]*report),
		scratch: newBitset(n),
	}
	s.learn(int(id), x)
	return s, nil
}

// Start broadcasts the initial report {(id, x)}. Call exactly once.
func (s *SV) Start(ctx dist.Context) {
	own := s.record(s.id, s.known, s.nKnown)
	ctx.Broadcast(KindReport, 0, wire.EntriesPayload{Entries: s.snapshot()})
	s.checkStable(own, nil)
}

// Handle processes one KindReport message. It returns true when this
// delivery caused the primitive to complete (Result becomes available).
// Handle keeps merging and echoing after completion, which other processes
// may depend on; hosts should keep routing messages here for the lifetime
// of the protocol.
func (s *SV) Handle(ctx dist.Context, msg dist.Message) bool {
	payload, ok := msg.Payload.(wire.EntriesPayload)
	if !ok || !s.inRange(msg.From) || !s.membership(payload.Entries) {
		return false // malformed: a crash-faulty sender cannot produce it
	}
	sender := s.record(msg.From, s.scratch, len(payload.Entries))
	grew := false
	for _, e := range payload.Entries {
		if !s.known.has(int(e.Proc)) {
			s.learn(int(e.Proc), e.Value)
			grew = true
		}
	}
	var own *report
	if grew {
		own = s.record(s.id, s.known, s.nKnown)
		ctx.Broadcast(KindReport, 0, wire.EntriesPayload{Entries: s.snapshot()})
	}
	if s.done {
		return false
	}
	s.checkStable(sender, own)
	return s.done
}

// Result returns the stable set R_i once available.
func (s *SV) Result() ([]wire.Entry, bool) {
	if !s.done {
		return nil, false
	}
	out := make([]wire.Entry, len(s.result))
	copy(out, s.result)
	return out, true
}

// Done reports whether the primitive has returned.
func (s *SV) Done() bool { return s.done }

// learn adds (p, x) to W_i.
func (s *SV) learn(p int, x geom.Point) {
	s.vals[p] = x.Clone()
	s.known.set(p)
	s.nKnown++
}

// inRange reports whether p names one of the n processes.
func (s *SV) inRange(p dist.ProcID) bool { return p >= 0 && int(p) < s.n }

// membership fills scratch with the processes entries names and reports
// whether the report is well formed: every process in [0, n) and named
// once, every already-known value repeated bitwise.
func (s *SV) membership(entries []wire.Entry) bool {
	clear(s.scratch)
	for _, e := range entries {
		if !s.inRange(e.Proc) {
			return false
		}
		p := int(e.Proc)
		if s.scratch.has(p) || (s.known.has(p) && !geom.SameBits(s.vals[p], e.Value)) {
			return false
		}
		s.scratch.set(p)
	}
	return true
}

// snapshot returns W_i as an entry list in process order.
func (s *SV) snapshot() []wire.Entry { return s.entries(s.known) }

// entries returns the known values of members, in process order.
func (s *SV) entries(members bitset) []wire.Entry {
	out := make([]wire.Entry, 0, s.n)
	for p := 0; p < s.n; p++ {
		if members.has(p) {
			out = append(out, wire.Entry{Proc: dist.ProcID(p), Value: s.vals[p]})
		}
	}
	return out
}

// record notes that process j reported exactly the set with membership
// members and size elements, and returns that set's record. A set of fewer
// than n - f elements can never be stable, so it is not recorded (nil).
func (s *SV) record(j dist.ProcID, members bitset, size int) *report {
	if size < s.n-s.f {
		return nil
	}
	r := s.reports[string(members)]
	if r == nil {
		key := string(members)
		r = &report{key: key, size: size, reporters: newBitset(s.n)}
		s.reports[key] = r
	}
	if !r.reporters.has(int(j)) {
		r.reporters.set(int(j))
		r.count++
	}
	return r
}

// checkStable looks for a stable set among the sets whose reporters this
// delivery added to: the sender's set and, when W_i grew, the own new
// snapshot (nil when absent or too small). Those are the only candidates: the check runs
// after every delivery until one succeeds, so no set was stable before this
// one, and a set becomes stable only by gaining a reporter. When both become
// stable in the same delivery the larger is chosen; they cannot tie unless
// they are the same set, since the snapshot contains the sender's set.
// R_i is built once, in process order, from the chosen set.
func (s *SV) checkStable(sender, own *report) {
	quorum := s.n - s.f
	var best *report
	for _, r := range [2]*report{sender, own} {
		if r == nil || r.count < quorum {
			continue
		}
		if best == nil || r.size > best.size {
			best = r
		}
	}
	if best == nil {
		return
	}
	s.result = s.entries(bitset(best.key))
	s.done = true
}
