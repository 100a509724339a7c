package diskfault

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"chc/internal/plan"
)

// Plan is a declarative storage-fault schedule. Probabilities apply per
// operation; the fate of the k-th write (or sync) on a given path is a pure
// function of (Seed, path, kind, k) — see fate — so identical seeds produce
// identical injection schedules regardless of goroutine interleaving.
type Plan struct {
	// Seed drives every dice roll. Two FS instances with equal plans inject
	// identical fault schedules for identical per-file op sequences.
	Seed int64

	// WriteErrProb is the probability a write fails with EIO (nothing
	// persisted); NoSpaceProb the probability it fails with ENOSPC;
	// TornProb the probability it persists only a prefix (a short write,
	// the classic torn-record crash shape).
	WriteErrProb float64
	NoSpaceProb  float64
	TornProb     float64

	// SyncErrProb is the probability an fsync fails; SyncDelayProb the
	// probability it stalls for a duration uniform in
	// [SyncDelayMin, SyncDelayMax] before succeeding.
	SyncErrProb   float64
	SyncDelayProb float64
	SyncDelayMin  time.Duration
	SyncDelayMax  time.Duration

	// CutAtBytes, when positive, models a power cut: the device dies after
	// this many bytes have been written across matching files. The write
	// that crosses the budget keeps only its budgeted prefix; every later
	// operation on matching files fails with ErrPowerCut.
	CutAtBytes int64

	// PathSubstr confines the plan to paths containing this substring
	// (e.g. one node's log). Empty attacks every file.
	PathSubstr string

	// AfterOps is a per-file grace window: the first AfterOps counted
	// operations (writes + syncs) on each file are fault-free, so logs can
	// be created and seeded before the faults arm. The power-cut byte
	// budget is not graced.
	AfterOps int64
}

// Enabled reports whether the plan injects any fault at all.
func (p Plan) Enabled() bool {
	return p.WriteErrProb > 0 || p.NoSpaceProb > 0 || p.TornProb > 0 ||
		p.SyncErrProb > 0 || p.SyncDelayProb > 0 || p.CutAtBytes > 0
}

// Flaky is a mild plan: occasional write and fsync failures, rare torn
// writes, small fsync stalls. A correct log survives it indefinitely under
// the degrade policy and loses at most the torn tail under fail-stop.
func Flaky() Plan {
	return Plan{
		WriteErrProb:  0.02,
		TornProb:      0.01,
		SyncErrProb:   0.02,
		SyncDelayProb: 0.05,
		SyncDelayMax:  2 * time.Millisecond,
		AfterOps:      32,
	}
}

// Sick is an aggressively failing device: ~10% failure rates on both
// writes and fsyncs plus heavy latency spikes — the acceptance plan of the
// storage-fault matrix.
func Sick() Plan {
	return Plan{
		WriteErrProb:  0.08,
		NoSpaceProb:   0.02,
		TornProb:      0.05,
		SyncErrProb:   0.10,
		SyncDelayProb: 0.10,
		SyncDelayMin:  500 * time.Microsecond,
		SyncDelayMax:  5 * time.Millisecond,
		AfterOps:      16,
	}
}

// matches reports whether the plan attacks this path.
func (p Plan) matches(path string) bool {
	return p.PathSubstr == "" || strings.Contains(path, p.PathSubstr)
}

// Operation fates.
type fateKind int

const (
	fateOK fateKind = iota
	fateWriteErr
	fateNoSpace
	fateTorn
	fateSyncErr
	fateSyncDelay
)

// Op-kind discriminators mixed into the dice so write and sync schedules
// on the same file are decorrelated.
const (
	opWrite = 0x77726974 // "writ"
	opSync  = 0x73796e63 // "sync"
)

// dice derives the deterministic roll for the k-th operation of one kind on
// one path: plan.Mix64 over (seed, file-name hash, kind, k). The roll is a
// uniform float in [0,1); the raw word seeds any secondary draw (torn
// fraction, delay point). Only the base name is hashed, so the schedule is
// invariant to where the log directory lives.
func (p Plan) dice(path string, kind int, k int64) (roll float64, raw uint64) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(filepath.Base(path)))
	raw = plan.Mix64(uint64(p.Seed) ^ h.Sum64() ^ uint64(kind)*plan.Golden ^ uint64(k))
	return plan.Unit(raw), raw
}

// writeFate decides the k-th write on path. For a torn write, frac is the
// fraction of the buffer to persist, in [0,1).
func (p Plan) writeFate(path string, k int64) (fateKind, float64) {
	roll, raw := p.dice(path, opWrite, k)
	switch {
	case roll < p.WriteErrProb:
		return fateWriteErr, 0
	case roll < p.WriteErrProb+p.NoSpaceProb:
		return fateNoSpace, 0
	case roll < p.WriteErrProb+p.NoSpaceProb+p.TornProb:
		// Reuse fresh bits from the raw word for the independent cut point.
		return fateTorn, float64(raw&((1<<20)-1)) / (1 << 20)
	default:
		return fateOK, 0
	}
}

// syncFate decides the k-th fsync on path. For a delay, d is the stall.
func (p Plan) syncFate(path string, k int64) (fateKind, time.Duration) {
	roll, raw := p.dice(path, opSync, k)
	switch {
	case roll < p.SyncErrProb:
		return fateSyncErr, 0
	case roll < p.SyncErrProb+p.SyncDelayProb:
		span := p.SyncDelayMax - p.SyncDelayMin
		d := p.SyncDelayMin
		if span > 0 {
			d += time.Duration(raw % uint64(span))
		}
		return fateSyncDelay, d
	default:
		return fateOK, 0
	}
}

// ParsePlan parses a fault-plan spec. Accepted forms:
//
//	off | none        no faults
//	flaky | sick      the presets above
//	key=value,...     a custom plan:
//	    werr=P        write EIO probability
//	    nospc=P       write ENOSPC probability
//	    torn=P        torn (short) write probability
//	    syncerr=P     fsync failure probability
//	    slow=P:LO-HI  fsync stall probability and duration range
//	    cut=N         power cut after N bytes written
//	    path=SUBSTR   confine faults to paths containing SUBSTR
//	    after=K       per-file grace ops before faults arm
//
// A preset may be refined: "flaky,syncerr=0.2" starts from Flaky. The seed
// is supplied separately (it pairs with the run seed, like chaos).
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	preset, settings, err := plan.Split(spec, func(s string) bool { return s == "flaky" || s == "sick" })
	if err != nil {
		return p, fmt.Errorf("diskfault: %w", err)
	}
	switch preset {
	case "off":
		return p, nil
	case "flaky":
		p = Flaky()
	case "sick":
		p = Sick()
	}
	for _, kv := range settings {
		key, val := kv.Key, kv.Val
		switch key {
		case "werr", "nospc", "torn", "syncerr":
			x, err := plan.Prob(val)
			if err != nil {
				return p, fmt.Errorf("diskfault: %s: %w", key, err)
			}
			switch key {
			case "werr":
				p.WriteErrProb = x
			case "nospc":
				p.NoSpaceProb = x
			case "torn":
				p.TornProb = x
			case "syncerr":
				p.SyncErrProb = x
			}
		case "slow":
			prob, window, ranged := strings.Cut(val, ":")
			if p.SyncDelayProb, err = plan.Prob(prob); err != nil {
				return p, fmt.Errorf("diskfault: slow: %w", err)
			}
			if ranged {
				if p.SyncDelayMin, p.SyncDelayMax, err = plan.DurationRange(window); err != nil {
					return p, fmt.Errorf("diskfault: bad slow range %q: %w", window, err)
				}
			} else if p.SyncDelayMax == 0 {
				p.SyncDelayMax = time.Millisecond
			}
		case "cut":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("diskfault: bad cut byte count %q", val)
			}
			p.CutAtBytes = n
		case "path":
			p.PathSubstr = val
		case "after":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return p, fmt.Errorf("diskfault: bad after op count %q", val)
			}
			p.AfterOps = n
		default:
			return p, fmt.Errorf("diskfault: unknown plan key %q", key)
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
	if p.WriteErrProb > 0 {
		parts = append(parts, fmt.Sprintf("werr=%g", p.WriteErrProb))
	}
	if p.NoSpaceProb > 0 {
		parts = append(parts, fmt.Sprintf("nospc=%g", p.NoSpaceProb))
	}
	if p.TornProb > 0 {
		parts = append(parts, fmt.Sprintf("torn=%g", p.TornProb))
	}
	if p.SyncErrProb > 0 {
		parts = append(parts, fmt.Sprintf("syncerr=%g", p.SyncErrProb))
	}
	if p.SyncDelayProb > 0 {
		parts = append(parts, fmt.Sprintf("slow=%g:%v-%v", p.SyncDelayProb, p.SyncDelayMin, p.SyncDelayMax))
	}
	if p.CutAtBytes > 0 {
		parts = append(parts, fmt.Sprintf("cut=%d", p.CutAtBytes))
	}
	if p.PathSubstr != "" {
		parts = append(parts, "path="+p.PathSubstr)
	}
	if p.AfterOps > 0 {
		parts = append(parts, fmt.Sprintf("after=%d", p.AfterOps))
	}
	return strings.Join(parts, ",")
}
