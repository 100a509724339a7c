package experiments

import (
	"fmt"
	"math"
	"os"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/multiplex"
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
	seeds := opt.trials(1, 3)
	const n, f, d = 5, 1, 2
	const eps = 0.1
	params := baseParams(n, f, d, eps)
	tEnd := params.TEnd()
	omega := math.Sqrt(float64(d)) * float64(n) * params.InputUpper

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
	stressCases := []struct {
		name    string
		profile *chaos.Profile
		crashes []dist.CrashPlan
		recover bool
	}{
		{"none", nil, nil, false},
		{"chaos", &light, nil, false},
		{"restart p0", nil, []dist.CrashPlan{{Proc: 0, AfterSends: 20}}, true},
		{"chaos + restart p0", &light, []dist.CrashPlan{{Proc: 0, AfterSends: 20}}, true},
	}
	if opt.Quick {
		topoCases = topoCases[:3]
		stressCases = []struct {
			name    string
			profile *chaos.Profile
			crashes []dist.CrashPlan
			recover bool
		}{
			{"none", nil, nil, false},
			{"chaos + restart p0", &light, []dist.CrashPlan{{Proc: 0, AfterSends: 20}}, true},
		}
	}

	t := &Table{
		ID:     "E23",
		Title:  "WAN matrix: geo-topology × asymmetric partition × chaos × kill-and-restart, audited from trace events (n=5, f=1, d=2, TCP)",
		Header: []string{"topology", "stress", "runs", "decided ≤ t_end", "d_H ≤ Ω·(1-1/n)^t", "final d_H ≤ ε", "wan delayed", "cut held"},
		Notes: []string{
			fmt.Sprintf("Every cell shapes all TCP links through the seeded WAN model (scaled delays, heavy tails, a one-way cut window) and audits from the telemetry stream exactly as E19: cc.decided events against t_end = %d (eq. 19), per-round states against the envelope Ω·(1-1/n)^t with Ω = √d·n·U = %s (eq. 18 / Lemma 3), and final states against ε (Theorem 2).", tEnd, fmtF(omega)),
			"The model is delay-only: cells without chaos must (and do) finish with zero injected drops and zero quarantined peers — WAN shaping consumes no crash budget. The \"wan delayed\" and \"cut held\" columns are the evidence the model was actually in the path.",
		},
	}
	for _, tc := range topoCases {
		plan, err := wan.ParsePlan(tc.spec)
		if err != nil {
			return nil, fmt.Errorf("E23 %s: %w", tc.name, err)
		}
		for _, sc := range stressCases {
			runs, boundOK, envOK, agreeOK := 0, 0, 0, 0
			var delayed, cutHeld int64
			for s := 0; s < seeds; s++ {
				seed := int64(s*61 + 17)
				cell, stats, err := runWANCell(params, plan, tc.spec, sc.profile, sc.crashes, sc.recover, seed, omega, tEnd)
				if err != nil {
					return nil, fmt.Errorf("E23 topo=%s stress=%s seed %d: %w", tc.name, sc.name, seed, err)
				}
				runs++
				if cell.boundOK {
					boundOK++
				}
				if cell.envelopeOK {
					envOK++
				}
				if cell.agreeOK {
					agreeOK++
				}
				if stats != nil {
					delayed += stats.WANDelayedFrames + stats.WANShapedWrites
					cutHeld += stats.WANCutHeld
					if sc.profile == nil && stats.InjectedDrops != 0 {
						return nil, fmt.Errorf("E23 topo=%s stress=%s seed %d: %d injected drops in a chaos-free cell — WAN shaping must be delay-only",
							tc.name, sc.name, seed, stats.InjectedDrops)
					}
				}
			}
			// The acceptance bar: every cell of the matrix passes every audit.
			if boundOK != runs || envOK != runs || agreeOK != runs {
				return nil, fmt.Errorf("E23 topo=%s stress=%s: audits %d/%d bound, %d/%d envelope, %d/%d agreement",
					tc.name, sc.name, boundOK, runs, envOK, runs, agreeOK, runs)
			}
			if delayed == 0 {
				return nil, fmt.Errorf("E23 topo=%s stress=%s: WAN model left no shaping trace", tc.name, sc.name)
			}
			t.Rows = append(t.Rows, []string{
				tc.name, sc.name, fmtI(runs),
				fmt.Sprintf("%d/%d", boundOK, runs),
				fmt.Sprintf("%d/%d", envOK, runs),
				fmt.Sprintf("%d/%d", agreeOK, runs),
				fmtI(int(delayed)), fmtI(int(cutHeld)),
			})
		}
	}
	return t, nil
}

// runWANCell runs one WAN-shaped networked CC instance with a fresh memory
// trace sink and audits it from the captured events; it also returns the
// run's link-layer counters for the shaping-evidence columns.
func runWANCell(params core.Params, plan wan.Plan, spec string, profile *chaos.Profile, crashes []dist.CrashPlan, recovery bool, seed int64, omega float64, tEnd int) (telemetryCell, *dist.NetStats, error) {
	sink := telemetry.NewMemorySink()
	prev := telemetry.SetSink(sink)
	defer telemetry.SetSink(prev)

	cfg := multiplex.BatchConfig{
		N: params.N,
		Instances: []multiplex.Instance{
			{Params: params, Inputs: randInputs(params.N, params.D, 0, 10, seed)},
		},
		Transport: engine.TransportTCP,
		Seed:      seed,
		Env:       engine.Env{Chaos: profile, ChaosSeed: seed, WAN: &plan, WANSeed: seed},
		Timeout:   120 * time.Second,
	}
	if recovery {
		walDir, err := os.MkdirTemp("", "chc-e23-*")
		if err != nil {
			return telemetryCell{}, nil, err
		}
		defer func() { _ = os.RemoveAll(walDir) }()
		cfg.Crashes = crashes
		cfg.WALDir = walDir
		cfg.Recover = true
		cfg.RecoverDowntime = 5 * time.Millisecond
	} else {
		cfg.Crashes = crashes
	}
	res, err := multiplex.RunBatch(cfg)
	if err != nil {
		return telemetryCell{}, nil, fmt.Errorf("wan %s: %w", spec, err)
	}
	cell, err := auditTelemetryEvents(sink, params, omega, tEnd)
	if err != nil {
		return cell, nil, err
	}
	var net *dist.NetStats
	if res.Stats != nil {
		net = res.Stats.Net
	}
	return cell, net, nil
}
