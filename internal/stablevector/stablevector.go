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
package stablevector

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

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

	known     map[dist.ProcID]geom.Point // W_i: merged (process, value) pairs
	reporters map[string]map[dist.ProcID]bool
	sets      map[string][]wire.Entry

	result []wire.Entry
	done   bool
}

// New creates a stable vector instance for process id with input x.
// It requires n >= 2f + 1 (quorum intersection).
func New(id dist.ProcID, n, f int, x geom.Point) (*SV, error) {
	if n < 2*f+1 {
		return nil, fmt.Errorf("stablevector: n = %d < 2f+1 = %d", n, 2*f+1)
	}
	if f < 0 {
		return nil, fmt.Errorf("stablevector: negative f = %d", f)
	}
	s := &SV{
		id:        id,
		n:         n,
		f:         f,
		known:     map[dist.ProcID]geom.Point{id: x.Clone()},
		reporters: make(map[string]map[dist.ProcID]bool),
		sets:      make(map[string][]wire.Entry),
	}
	return s, nil
}

// Start broadcasts the initial report {(id, x)}. Call exactly once.
func (s *SV) Start(ctx dist.Context) {
	snap := s.snapshot()
	own := s.recordReport(s.id, snap)
	ctx.Broadcast(KindReport, 0, wire.EntriesPayload{Entries: snap})
	s.checkStable(own)
}

// Handle processes one KindReport message. It returns true when this
// delivery caused the primitive to complete (Result becomes available).
// Handle keeps merging and echoing after completion, which other processes
// may depend on; hosts should keep routing messages here for the lifetime
// of the protocol.
func (s *SV) Handle(ctx dist.Context, msg dist.Message) bool {
	payload, ok := msg.Payload.(wire.EntriesPayload)
	if !ok {
		return false // ignore malformed payloads (defensive; crash model)
	}
	touched := append(make([]string, 0, 2), s.recordReport(msg.From, payload.Entries))
	changed := false
	for _, e := range payload.Entries {
		if _, seen := s.known[e.Proc]; !seen {
			s.known[e.Proc] = e.Value.Clone()
			changed = true
		}
	}
	if changed {
		snap := s.snapshot()
		touched = append(touched, s.recordReport(s.id, snap))
		ctx.Broadcast(KindReport, 0, wire.EntriesPayload{Entries: snap})
	}
	if s.done {
		return false
	}
	s.checkStable(touched...)
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

// snapshot returns W as a canonically ordered entry list.
func (s *SV) snapshot() []wire.Entry {
	out := make([]wire.Entry, 0, len(s.known))
	for id, v := range s.known {
		out = append(out, wire.Entry{Proc: id, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// recordReport notes that process j reported exactly the set `entries` and
// returns the set's key.
func (s *SV) recordReport(j dist.ProcID, entries []wire.Entry) string {
	key := canonicalKey(entries)
	if _, ok := s.sets[key]; !ok {
		cp := make([]wire.Entry, len(entries))
		copy(cp, entries)
		sort.Slice(cp, func(a, b int) bool { return cp[a].Proc < cp[b].Proc })
		s.sets[key] = cp
	}
	m := s.reporters[key]
	if m == nil {
		m = make(map[dist.ProcID]bool)
		s.reporters[key] = m
	}
	m[j] = true
	return key
}

// checkStable looks for a stable set among the sets whose reporters this
// delivery added to. Those are the only candidates: the check runs after
// every delivery until one succeeds, so no set was stable before this one,
// and a set becomes stable only by gaining a reporter. When both the
// sender's set and the own new snapshot become stable in the same delivery,
// the largest (then lexicographically smallest key) is chosen — a
// deterministic rule; containment holds for any choice.
func (s *SV) checkStable(touched ...string) {
	quorum := s.n - s.f
	bestKey := ""
	bestLen := -1
	for _, key := range touched {
		set := s.sets[key]
		if len(s.reporters[key]) < quorum || len(set) < quorum {
			continue
		}
		if len(set) > bestLen || (len(set) == bestLen && key < bestKey) {
			bestKey, bestLen = key, len(set)
		}
	}
	if bestLen < 0 {
		return
	}
	s.result = s.sets[bestKey]
	s.done = true
}

// canonicalKey builds a deterministic identity for an entry set, ordered by
// process ID with exact float bit patterns.
func canonicalKey(entries []wire.Entry) string {
	idx := make([]int, len(entries))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return entries[idx[a]].Proc < entries[idx[b]].Proc })
	var b strings.Builder
	var buf [8]byte
	for _, i := range idx {
		e := entries[i]
		binary.BigEndian.PutUint32(buf[:4], uint32(int32(e.Proc)))
		b.Write(buf[:4])
		for _, v := range e.Value {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
			b.Write(buf[:])
		}
		b.WriteByte('|')
	}
	return b.String()
}
