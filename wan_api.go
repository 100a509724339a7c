package chc

import (
	"chc/internal/wan"
)

// Wide-area network realism: every link of a run can be shaped through a
// seeded geo-topology model — per-edge propagation delay with jitter and
// heavy tails, token-bucket bandwidth with queueing delay, and asymmetric
// one-way partition windows. The model is delay-only (no drops), so it
// composes with the chaos, wire-fault and crash stacks without consuming
// crash budgets or tripping the peer quarantine machinery.
type (
	// WANPlan describes the model: a topology preset ("3-regions",
	// "us-eu-ap", "star", "clos"), region count, delay scaling, jitter and
	// tail parameters, bandwidth, one-way cut windows, and per-link
	// overrides. A run takes it as Env.WAN, seeded by Env.WANSeed, on every
	// transport. See ParseWANPlan for the textual form; the zero value
	// disables shaping.
	WANPlan = wan.Plan

	// WANCut is a one-way partition window inside a WANPlan: frames from
	// From to To departing inside [Start, End) are held until the window
	// closes (the reverse direction is untouched).
	WANCut = wan.Cut

	// WANLinkOverride pins one directed link's base delay and bandwidth,
	// overriding the topology preset.
	WANLinkOverride = wan.LinkOverride
)

// ParseWANPlan parses "off", a bare topology ("3-regions", "us-eu-ap",
// "star", "clos"), or a full specification such as
// "3-regions,regions=3,delay=0.5,jitter=0.2,tail=0.01,tailx=8,bw=64mb,msg=512,cut=r0->r1@10ms-50ms,link=0->3:5ms/1gb".
func ParseWANPlan(spec string) (WANPlan, error) { return wan.ParsePlan(spec) }

// NewWANScheduler builds the virtual-time form of the WAN model for the
// deterministic simulator (Run with RunConfig.Scheduler): delivery order is
// what the modeled link delays, bandwidth serialization and cut windows
// dictate, delivered in zero wall-clock time, and is a pure function of
// (plan, n, seed) — the same seed replays the same schedule bit for bit.
func NewWANScheduler(plan WANPlan, n int, seed int64) (Scheduler, error) {
	return wan.NewSimScheduler(plan, n, seed)
}
