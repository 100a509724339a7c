package experiments

import (
	"fmt"
	"time"

	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/netfault"
	"chc/internal/runtime"
)

// E21WireFaults exercises the adversarial-wire stack: seeded byte-stream
// corruption (bit flips, garbage, length-prefix mutation, truncation,
// mid-frame resets, stalls) injected under the wire codec of a real TCP
// mesh, composed with message-level chaos and kill-and-restart faults. The
// paper's crash-fault model has no byte-corruption adversary, so the
// implementation must confine one entirely to the link layer: every corrupt
// frame is rejected by CRC before it reaches a protocol state machine, the
// reliable-link layer retransmits through the noise, and ALL processes must
// decide with full Theorem 2 properties — corruption consumes bandwidth,
// never a unit of the f crash budget.
func E21WireFaults(opt Options) (*Table, error) {
	lossy := chaos.Profile{Drop: 0.10, Dup: 0.05}
	flaky := netfault.Flaky()
	// Hostile cells assert injection actually happened, so they get no grace
	// prefix: even a terse run must meet the adversary from byte zero.
	hostile := netfault.Hostile()
	hostile.AfterBytes = 0
	hostileOneLink := hostile
	hostileOneLink.LinkSubstr = "0->1"
	// wantInjected requires the plan to actually fire (heavy plans on a
	// chatty mesh); mild plans may stay below their grace prefix.
	wireCheck := func(wantInjected bool) func(*cellRun) error {
		return func(r *cellRun) error {
			if undecided := r.res.Params.N - len(r.res.Outputs); undecided > 0 {
				return fmt.Errorf("%d processes undecided — wire corruption leaked into the crash budget", undecided)
			}
			if wantInjected && r.net.InjectedWire == 0 {
				return fmt.Errorf("hostile plan injected nothing")
			}
			return nil
		}
	}
	restart := []runtime.RestartPlan{{Proc: 2, KillAfterSends: 15, Downtime: 10 * time.Millisecond}}
	return matrix{
		id:     "E21",
		title:  "Adversarial-wire matrix: byte-stream corruption × chaos × restarts over TCP (n=5, f=1, d=2)",
		labels: []string{"cell"},
		notes: []string{
			"Every cell requires ALL processes to decide: a byte-corruption adversary is not a crash fault, so it may consume none of the f budget. Corrupt frames counts decoder rejections (CRC, framing, oversize) — each one stayed inside the link layer and was repaired by retransmission. Quarantines/readmits show the per-peer health machinery cycling under sustained corruption.",
		},
		transport: engine.TransportTCP,
		params:    baseParams(5, 1, 2, 0.05),
		seeds:     opt.trials(3, 6),
		seed:      func(s int) int64 { return int64(s*91 + 7) },
		verdicts:  []verdict{vTerminated, vValidity, vAgreement},
		counters: []counter{
			netCounter("injected", func(n *dist.NetStats) int64 { return n.InjectedWire }),
			netCounter("corrupt frames", func(n *dist.NetStats) int64 { return n.CorruptFrames }),
			netCounter("quarantines", func(n *dist.NetStats) int64 { return n.PeerQuarantines }),
			netCounter("readmits", func(n *dist.NetStats) int64 { return n.PeerReadmits }),
			netCounter("reorder drops", func(n *dist.NetStats) int64 { return n.ReorderDrops }),
		},
		cells: []cell{
			// No cell declares a faulty process: the link layer must absorb the
			// adversary, so every process is held to the correct-process obligations.
			{labels: []string{"flaky wire"}, env: runtime.Env{NetFaults: &flaky}, check: wireCheck(false)},
			{labels: []string{"hostile wire"}, env: runtime.Env{NetFaults: &hostile}, check: wireCheck(true)},
			{labels: []string{"hostile wire on link 0->1"}, env: runtime.Env{NetFaults: &hostileOneLink}, check: wireCheck(true)},
			{labels: []string{"flaky wire + lossy links"}, env: runtime.Env{NetFaults: &flaky, Chaos: &lossy}, check: wireCheck(false)},
			{labels: []string{"hostile wire + restart"}, env: runtime.Env{NetFaults: &hostile, Restarts: restart}, check: wireCheck(true)},
		},
	}.table()
}
