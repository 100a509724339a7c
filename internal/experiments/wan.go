package experiments

import (
	"fmt"

	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/runtime"
	"chc/internal/telemetry"
	"chc/internal/wan"
)

// E23WANMatrix subjects the paper's guarantees to wide-area realism: a grid
// of geo-topologies (each with an asymmetric one-way partition window baked
// into its plan) crossed with chaos injection and kill-and-restart recovery,
// run over live loopback TCP with every link shaped through the seeded WAN
// model. Each cell is audited from the telemetry trace stream with the same
// machinery as E19:
//
//   - every process decides within the t_end bound of equation (19),
//   - the measured disagreement sits under the Lemma 3 / equation (18)
//     envelope Ω·(1-1/n)^t at every complete round, and
//   - the final states agree within ε (Theorem 2),
//
// and additionally asserts the WAN shaping was actually in the path (frames
// delayed) yet consumed none of the fault budget: cells without chaos must
// show zero injected drops, because the model is delay-only.
func E23WANMatrix(opt Options) (*Table, error) {
	params := baseParams(5, 1, 2, 0.1)

	prevEnabled := telemetry.Enable(true)
	defer telemetry.Enable(prevEnabled)

	// Delays are scaled (delay=0.01) so a transcontinental hop costs
	// fractions of a millisecond: the schedule keeps its WAN shape while a
	// full grid stays fast. Every plan carries an asymmetric one-way cut
	// against the preset's own region names.
	topoCases := []struct{ name, spec string }{
		{"3-regions", "3-regions,delay=0.01,jitter=0.3,tail=0.05,cut=r0->r1@5ms-60ms"},
		{"us-eu-ap", "us-eu-ap,delay=0.01,jitter=0.3,tail=0.05,cut=us->eu@5ms-60ms"},
		{"star", "star,delay=0.01,jitter=0.2,cut=hub->leaf1@5ms-60ms"},
		{"clos", "clos,delay=0.01,cut=rack0->rack1@5ms-60ms"},
	}
	light := chaos.Light()
	type stress struct {
		name string
		env  runtime.Env
	}
	stressCases := []stress{
		{"none", runtime.Env{}},
		{"chaos", runtime.Env{Chaos: &light}},
		{"restart p0", runtime.Env{Restarts: restartP0}},
		{"chaos + restart p0", runtime.Env{Chaos: &light, Restarts: restartP0}},
	}
	if opt.Quick {
		topoCases = topoCases[:3]
		stressCases = []stress{stressCases[0], stressCases[3]}
	}
	// The acceptance bar: every run passes every audit, the WAN model was in
	// the path, and — being delay-only — it dropped nothing by itself.
	shaped := func(r *cellRun) error {
		if a := r.audit; !a.boundOK || !a.envelopeOK || !a.agreeOK {
			return fmt.Errorf("audits failed: bound %v, envelope %v, agreement %v", a.boundOK, a.envelopeOK, a.agreeOK)
		}
		if r.net.WANDelayedFrames+r.net.WANShapedWrites == 0 {
			return fmt.Errorf("WAN model left no shaping trace")
		}
		if r.cfg.Chaos == nil && r.net.InjectedDrops != 0 {
			return fmt.Errorf("%d injected drops in a chaos-free cell — WAN shaping must be delay-only", r.net.InjectedDrops)
		}
		return nil
	}

	m := matrix{
		id:     "E23",
		title:  "WAN matrix: geo-topology × asymmetric partition × chaos × kill-and-restart, audited from trace events (n=5, f=1, d=2, TCP)",
		labels: []string{"topology", "stress"},
		notes: []string{
			fmt.Sprintf("Every cell shapes all TCP links through the seeded WAN model (scaled delays, heavy tails, a one-way cut window) and audits from the telemetry stream exactly as E19: cc.decided events against t_end = %d (eq. 19), per-round states against the envelope Ω·(1-1/n)^t with Ω = √d·n·U = %s (eq. 18 / Lemma 3), and final states against ε (Theorem 2).", params.TEnd(), fmtF(omega(params))),
			"The model is delay-only: cells without chaos must (and do) finish with zero injected drops and zero quarantined peers — WAN shaping consumes no crash budget. The \"wan delayed\" and \"cut held\" columns are the evidence the model was actually in the path.",
		},
		transport: engine.TransportTCP,
		params:    params,
		seeds:     opt.trials(1, 3),
		seed:      func(s int) int64 { return int64(s*61 + 17) },
		traced:    true,
		verdicts:  tracedVerdicts,
		counters: []counter{
			netCounter("wan delayed", func(n *dist.NetStats) int64 { return n.WANDelayedFrames + n.WANShapedWrites }),
			netCounter("cut held", func(n *dist.NetStats) int64 { return n.WANCutHeld }),
		},
	}
	for _, tc := range topoCases {
		plan, err := wan.ParsePlan(tc.spec)
		if err != nil {
			return nil, fmt.Errorf("E23 %s: %w", tc.name, err)
		}
		for _, sc := range stressCases {
			env := sc.env
			env.WAN = &plan
			m.cells = append(m.cells, cell{labels: []string{tc.name, sc.name}, env: env, check: shaped})
		}
	}
	return m.table()
}
