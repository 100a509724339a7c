// Package wan models wide-area links: per-edge propagation delay (base +
// jitter, heavy-tail option), token-bucket bandwidth shaping with queueing
// delay, and asymmetric one-way partition windows, all derived from a
// geo-topology preset that assigns processes to regions and an inter-region
// delay/bandwidth matrix, with per-link overrides.
//
// The model is pure delay: it never drops, duplicates, reorders or corrupts
// traffic, so it changes latency numbers — never correctness. Algorithm CC's
// bounds (eq. 19 rounds-to-decide, Lemma 3 contraction) are proven
// independent of message delay, which makes the WAN model the right
// adversary to stress them without consuming crash budget or tripping the
// wire-level quarantine machinery.
//
// Three integration surfaces share one Model:
//
//   - SimScheduler: a virtual-time discrete-event scheduler for the
//     deterministic simulator. Delivery order is a pure function of the WAN
//     seed — no wall clock, no rng — so the same seed yields a bitwise
//     identical delivery schedule (and decision values) at any host speed,
//     and a 1000-process mesh runs in seconds because time is simulated.
//   - Shaper: a frame-sender wrapper for the in-process transports
//     (chaos-injector idiom). Per-link delays are drawn from the same
//     seeded distributions; wall-clock interleaving makes the end-to-end
//     schedule approximately, not bitwise, reproducible.
//   - Injector/WrapConn: a net.Conn write-path wrapper for TCP
//     (netfault idiom). Chunking-independent: every Write is released
//     whole after its computed delay, byte boundaries are never altered.
package wan

import (
	"fmt"
	"time"

	"chc/internal/dist"
	"chc/internal/plan"
)

// Nominal per-message bytes used for bandwidth accounting where the real
// encoded size is unknown (simulator messages, in-process frames).
const defaultMsgBytes = 512

// Default jitter fraction of the base propagation delay.
const defaultJitter = 0.2

// Default heavy-tail delay multiplier.
const defaultTailMult = 8.0

// Plan describes a WAN model: a geo-topology preset plus knobs. The zero
// value is disabled. Build one with ParsePlan or a literal; resolve it
// against a cluster size with NewModel.
type Plan struct {
	// Topology selects the geo preset: "3-regions", "us-eu-ap", "star" or
	// "clos". Empty disables the model.
	Topology string
	// Regions overrides the preset's region count (0 = preset default).
	// "us-eu-ap" is fixed at 3 regions.
	Regions int
	// DelayScale multiplies every base delay of the matrix (0 = 1.0).
	// Tests use small scales so shaped runs finish quickly while keeping
	// the topology's relative geometry.
	DelayScale float64
	// Jitter is the uniform jitter drawn per delivery, as a fraction of the
	// base delay (0 = the 0.2 default, negative = none).
	Jitter float64
	// TailProb is the probability a delivery draws the heavy tail.
	TailProb float64
	// TailMult is the heavy-tail delay multiplier (0 = 8).
	TailMult float64
	// Bandwidth overrides every link's token rate in bytes/sec
	// (0 = preset matrix, negative = unlimited).
	Bandwidth int64
	// MsgBytes is the nominal size charged against link bandwidth per
	// simulator message / in-process frame (0 = 512).
	MsgBytes int
	// Cuts are one-way partition windows: traffic matching From→To is held
	// (delayed, never dropped) until the window closes.
	Cuts []Cut
	// Links are per-directed-link overrides applied after the matrix.
	Links []LinkOverride
}

// Cut is a one-way partition window: From→To traffic departing inside
// [Start, End) is held until End. The reverse direction is untouched, which
// is exactly the asymmetric-partition shape symmetric fault injectors
// cannot express. From/To are region names of the topology, or numeric
// process IDs.
type Cut struct {
	From, To   string
	Start, End time.Duration
}

// LinkOverride pins one directed link's base delay (and optionally
// bandwidth) regardless of the region matrix.
type LinkOverride struct {
	From, To  int
	Delay     time.Duration
	Bandwidth int64 // 0 = inherit the matrix value
}

// Enabled reports whether the plan models anything.
func (p Plan) Enabled() bool { return p.Topology != "" }

// topologySpec is one geo preset: region naming plus the delay/bandwidth
// matrix generators (one-way delays, bytes/sec; bw 0 = unlimited).
type topologySpec struct {
	defaultRegions int
	fixedRegions   bool
	name           func(r, regions int) string
	delay          func(ri, rj int) time.Duration
	bw             func(ri, rj int) int64
}

var topologies = map[string]topologySpec{
	// Three (or N) generic regions with uniform inter-region distance — the
	// simplest geo shape, and the soak harness default.
	"3-regions": {
		defaultRegions: 3,
		name:           func(r, _ int) string { return fmt.Sprintf("r%d", r) },
		delay: func(ri, rj int) time.Duration {
			if ri == rj {
				return 500 * time.Microsecond
			}
			return 25 * time.Millisecond
		},
		bw: func(ri, rj int) int64 {
			if ri == rj {
				return 0
			}
			return 64 << 20
		},
	},
	// A transpacific/transatlantic triangle with asymmetric distances.
	"us-eu-ap": {
		defaultRegions: 3,
		fixedRegions:   true,
		name:           func(r, _ int) string { return [...]string{"us", "eu", "ap"}[r] },
		delay: func(ri, rj int) time.Duration {
			if ri == rj {
				return time.Millisecond
			}
			// One-way: us-eu 40ms, us-ap 75ms, eu-ap 60ms.
			switch ri + rj {
			case 1: // us(0)+eu(1)
				return 40 * time.Millisecond
			case 2: // us(0)+ap(2)
				return 75 * time.Millisecond
			default: // eu(1)+ap(2)
				return 60 * time.Millisecond
			}
		},
		bw: func(ri, rj int) int64 {
			if ri == rj {
				return 0
			}
			return 32 << 20
		},
	},
	// Region 0 is the hub; leaf↔leaf traffic pays the two-hop distance.
	"star": {
		defaultRegions: 4,
		name: func(r, _ int) string {
			if r == 0 {
				return "hub"
			}
			return fmt.Sprintf("leaf%d", r)
		},
		delay: func(ri, rj int) time.Duration {
			switch {
			case ri == rj:
				return 500 * time.Microsecond
			case ri == 0 || rj == 0:
				return 15 * time.Millisecond
			default:
				return 30 * time.Millisecond
			}
		},
		bw: func(ri, rj int) int64 {
			switch {
			case ri == rj:
				return 0
			case ri == 0 || rj == 0:
				return 64 << 20
			default:
				return 32 << 20
			}
		},
	},
	// A leaf-spine fabric: racks one low-latency spine hop apart.
	"clos": {
		defaultRegions: 4,
		name:           func(r, _ int) string { return fmt.Sprintf("rack%d", r) },
		delay: func(ri, rj int) time.Duration {
			if ri == rj {
				return 100 * time.Microsecond
			}
			return time.Millisecond
		},
		bw: func(ri, rj int) int64 {
			if ri == rj {
				return 0
			}
			return 256 << 20
		},
	},
}

// Model is a Plan resolved against a cluster size and seed: the region
// assignment, the fully materialised delay/bandwidth matrices, and the
// deterministic per-delivery jitter stream.
type Model struct {
	plan    Plan
	n       int
	seed    int64
	regions int
	names   []string
	assign  []int             // process -> region
	delay   [][]time.Duration // region x region base one-way delay (scaled)
	bw      [][]int64         // region x region bytes/sec (0 = unlimited)
	over    map[uint64]LinkOverride
	cuts    []resolvedCut

	jitter   float64
	tailProb float64
	tailMult float64
	msgBytes int
}

// resolvedCut matches a directed (from, to) pair by region or node.
type resolvedCut struct {
	fromRegion, toRegion int // -1 when matching a node instead
	fromNode, toNode     int // -1 when matching a region
	start, end           time.Duration
}

func linkKey(from, to dist.ProcID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// NewModel resolves plan against an n-process cluster. The seed drives the
// deterministic jitter/tail stream; two models with identical (plan, n,
// seed) produce identical delays for identical (from, to, seq) queries.
func NewModel(plan Plan, n int, seed int64) (*Model, error) {
	if !plan.Enabled() {
		return nil, fmt.Errorf("wan: plan is disabled (no topology)")
	}
	if n <= 0 {
		return nil, fmt.Errorf("wan: cluster size %d", n)
	}
	spec, ok := topologies[plan.Topology]
	if !ok {
		return nil, fmt.Errorf("wan: unknown topology %q (3-regions|us-eu-ap|star|clos)", plan.Topology)
	}
	regions := spec.defaultRegions
	if plan.Regions > 0 {
		if spec.fixedRegions && plan.Regions != spec.defaultRegions {
			return nil, fmt.Errorf("wan: topology %q has a fixed region count of %d", plan.Topology, spec.defaultRegions)
		}
		if plan.Regions < 2 {
			return nil, fmt.Errorf("wan: regions=%d (want >= 2)", plan.Regions)
		}
		regions = plan.Regions
	}
	if regions > n {
		regions = n
	}
	m := &Model{
		plan:     plan,
		n:        n,
		seed:     seed,
		regions:  regions,
		jitter:   plan.Jitter,
		tailProb: plan.TailProb,
		tailMult: plan.TailMult,
		msgBytes: plan.MsgBytes,
	}
	if m.jitter == 0 {
		m.jitter = defaultJitter
	} else if m.jitter < 0 {
		m.jitter = 0
	}
	if m.tailMult <= 0 {
		m.tailMult = defaultTailMult
	}
	if m.msgBytes <= 0 {
		m.msgBytes = defaultMsgBytes
	}
	scale := plan.DelayScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, fmt.Errorf("wan: delay scale %g (want >= 0)", scale)
	}

	m.names = make([]string, regions)
	for r := range m.names {
		m.names[r] = spec.name(r, regions)
	}
	m.assign = make([]int, n)
	for i := range m.assign {
		// Contiguous blocks: processes [r*n/R, (r+1)*n/R) live in region r.
		m.assign[i] = i * regions / n
	}
	m.delay = make([][]time.Duration, regions)
	m.bw = make([][]int64, regions)
	for ri := 0; ri < regions; ri++ {
		m.delay[ri] = make([]time.Duration, regions)
		m.bw[ri] = make([]int64, regions)
		for rj := 0; rj < regions; rj++ {
			m.delay[ri][rj] = time.Duration(float64(spec.delay(ri, rj)) * scale)
			switch {
			case plan.Bandwidth > 0:
				m.bw[ri][rj] = plan.Bandwidth
			case plan.Bandwidth < 0:
				m.bw[ri][rj] = 0
			default:
				m.bw[ri][rj] = spec.bw(ri, rj)
			}
		}
	}

	m.over = make(map[uint64]LinkOverride, len(plan.Links))
	for _, ov := range plan.Links {
		if ov.From < 0 || ov.From >= n || ov.To < 0 || ov.To >= n || ov.From == ov.To {
			return nil, fmt.Errorf("wan: link override %d->%d outside 0..%d", ov.From, ov.To, n-1)
		}
		if ov.Delay < 0 {
			return nil, fmt.Errorf("wan: link override %d->%d has negative delay", ov.From, ov.To)
		}
		m.over[linkKey(dist.ProcID(ov.From), dist.ProcID(ov.To))] = ov
	}

	for _, c := range plan.Cuts {
		rc := resolvedCut{start: c.Start, end: c.End}
		if c.Start < 0 || c.End <= c.Start {
			return nil, fmt.Errorf("wan: cut %s->%s window %v-%v (want 0 <= start < end)", c.From, c.To, c.Start, c.End)
		}
		var err error
		rc.fromRegion, rc.fromNode, err = m.resolveEndpoint(c.From)
		if err != nil {
			return nil, fmt.Errorf("wan: cut from: %w", err)
		}
		rc.toRegion, rc.toNode, err = m.resolveEndpoint(c.To)
		if err != nil {
			return nil, fmt.Errorf("wan: cut to: %w", err)
		}
		m.cuts = append(m.cuts, rc)
	}
	return m, nil
}

// resolveEndpoint maps a cut endpoint string to (region, -1) or (-1, node).
func (m *Model) resolveEndpoint(s string) (region, node int, err error) {
	for r, name := range m.names {
		if s == name {
			return r, -1, nil
		}
	}
	var id int
	if _, serr := fmt.Sscanf(s, "%d", &id); serr == nil && fmt.Sprintf("%d", id) == s {
		if id < 0 || id >= m.n {
			return 0, 0, fmt.Errorf("process %d outside 0..%d", id, m.n-1)
		}
		return -1, id, nil
	}
	return 0, 0, fmt.Errorf("unknown region or process %q (regions: %v)", s, m.names)
}

// N returns the cluster size the model was resolved against.
func (m *Model) N() int { return m.n }

// Regions returns the region count.
func (m *Model) Regions() int { return m.regions }

// RegionOf returns the region index of process i.
func (m *Model) RegionOf(i dist.ProcID) int {
	if i < 0 || int(i) >= m.n {
		return 0
	}
	return m.assign[i]
}

// RegionName returns the preset's name for region r.
func (m *Model) RegionName(r int) string {
	if r < 0 || r >= m.regions {
		return "?"
	}
	return m.names[r]
}

// PathLabel returns the low-cardinality region-pair label of a link,
// e.g. "us->eu" — the label the per-region metric families carry.
func (m *Model) PathLabel(from, to dist.ProcID) string {
	return m.RegionName(m.RegionOf(from)) + "->" + m.RegionName(m.RegionOf(to))
}

// BaseDelay returns the deterministic base one-way delay of a link (matrix
// value, or the link override).
func (m *Model) BaseDelay(from, to dist.ProcID) time.Duration {
	if ov, ok := m.over[linkKey(from, to)]; ok {
		return ov.Delay
	}
	return m.delay[m.RegionOf(from)][m.RegionOf(to)]
}

// Bandwidth returns the link's token rate in bytes/sec (0 = unlimited).
func (m *Model) Bandwidth(from, to dist.ProcID) int64 {
	if ov, ok := m.over[linkKey(from, to)]; ok && ov.Bandwidth != 0 {
		if ov.Bandwidth < 0 {
			return 0
		}
		return ov.Bandwidth
	}
	return m.bw[m.RegionOf(from)][m.RegionOf(to)]
}

// MsgBytes returns the nominal bytes charged per simulator message.
func (m *Model) MsgBytes() int { return m.msgBytes }

// Delay draws the propagation delay of the seq-th transmission on a link:
// base · (1 + jitter·u) with probability tailProb multiplied by tailMult.
// A pure function of (seed, from, to, seq) — no rng, no clock.
func (m *Model) Delay(from, to dist.ProcID, seq int64) time.Duration {
	base := m.BaseDelay(from, to)
	if base <= 0 {
		return 0
	}
	u, tail := m.dice(from, to, seq)
	d := float64(base) * (1 + m.jitter*u)
	if m.tailProb > 0 && tail < m.tailProb {
		d *= m.tailMult
	}
	return time.Duration(d)
}

// TxTime returns the serialization (token-bucket) time of nbytes on a link;
// queueing behind earlier transmissions is what turns this into queueing
// delay at the call sites.
func (m *Model) TxTime(from, to dist.ProcID, nbytes int) time.Duration {
	bw := m.Bandwidth(from, to)
	if bw <= 0 || nbytes <= 0 {
		return 0
	}
	return time.Duration(float64(nbytes) / float64(bw) * float64(time.Second))
}

// CutRelease returns the earliest time >= at that is outside every one-way
// cut window matching from→to, and whether the departure was held. Windows
// may chain (back-to-back cuts), hence the fixpoint loop.
func (m *Model) CutRelease(from, to dist.ProcID, at time.Duration) (time.Duration, bool) {
	if len(m.cuts) == 0 {
		return at, false
	}
	held := false
	for changed := true; changed; {
		changed = false
		for _, c := range m.cuts {
			if !c.matches(m, from, to) {
				continue
			}
			if at >= c.start && at < c.end {
				at = c.end
				held = true
				changed = true
			}
		}
	}
	return at, held
}

func (c resolvedCut) matches(m *Model, from, to dist.ProcID) bool {
	if c.fromNode >= 0 {
		if int(from) != c.fromNode {
			return false
		}
	} else if m.RegionOf(from) != c.fromRegion {
		return false
	}
	if c.toNode >= 0 {
		return int(to) == c.toNode
	}
	return m.RegionOf(to) == c.toRegion
}

// dice derives two uniform [0,1) variates for the seq-th transmission of a
// link: two consecutive splitmix64 steps from a state keyed on (seed, from,
// to, seq) — the same idiom the netfault and chaos injectors use, so an
// execution's delay schedule is a pure function of the WAN seed.
func (m *Model) dice(from, to dist.ProcID, seq int64) (float64, float64) {
	x := uint64(m.seed)*plan.Golden + uint64(uint32(from)) + 1
	x = x*plan.Golden + uint64(uint32(to)) + 1
	x = x*plan.Golden + uint64(seq) + 1
	return plan.Unit(plan.Mix64(x)), plan.Unit(plan.Mix64(x + plan.Golden))
}
