package experiments

import (
	"fmt"
	"os"
	"time"

	"chc/internal/byzantine"
	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/multiplex"
	"chc/internal/polytope"
)

// E18BatchMatrix exercises the unified engine end to end: a heterogeneous
// batch — Algorithm CC, the vector-consensus baseline, and the
// Byzantine-compiled variant with a live adversary — multiplexed over ONE
// loopback-TCP network, across seeds × chaos profiles × restart plans.
// Every message carries its instance index through the wire envelope, the
// WAL journals per-instance history, and a killed node replays the whole
// batch it hosts. Each cell asserts, per instance, that every correct
// participant decided and that the decisions satisfy the paper's validity
// (containment in the correct-input hull) and ε-agreement.
func E18BatchMatrix(opt Options) (*Table, error) {
	seeds := opt.trials(1, 3)
	const n, f, d = 5, 1, 2
	const eps = 0.1
	light := chaos.Light()
	chaosCases := []struct {
		name    string
		profile *chaos.Profile
	}{
		{"off", nil},
		{"light", &light},
	}
	faultCases := []struct {
		name    string
		crashes []dist.CrashPlan
		recover bool
	}{
		{"none", nil, false},
		{"restart p0", []dist.CrashPlan{{Proc: 0, AfterSends: 20}}, true},
	}
	t := &Table{
		ID:     "E18",
		Title:  "Batch matrix: heterogeneous instances (CC + vector + Byzantine) multiplexed over one TCP network (n=5, f=1, d=2)",
		Header: []string{"chaos", "faults", "runs", "cc valid", "vector valid", "byz valid", "ε-agreement", "terminated"},
		Notes: []string{
			"Each run multiplexes three protocol instances over a single loopback-TCP cluster via the unified engine; the Byzantine instance hosts an incorrect-input adversary at p4, and restart cells kill p0 mid-protocol and relaunch it from a write-ahead log that replays all three instances.",
		},
	}
	for _, cc := range chaosCases {
		for _, fc := range faultCases {
			runs, ccValid, vecValid, byzValid, agree, term := 0, 0, 0, 0, 0, 0
			for s := 0; s < seeds; s++ {
				seed := int64(s*71 + 13)
				cell, err := runBatchCell(n, f, d, eps, cc.profile, fc.crashes, fc.recover, seed)
				if err != nil {
					return nil, fmt.Errorf("E18 chaos=%s faults=%s seed %d: %w", cc.name, fc.name, seed, err)
				}
				runs++
				if cell.ccValid {
					ccValid++
				}
				if cell.vecValid {
					vecValid++
				}
				if cell.byzValid {
					byzValid++
				}
				if cell.agree {
					agree++
				}
				if cell.terminated {
					term++
				}
			}
			t.Rows = append(t.Rows, []string{
				cc.name, fc.name, fmtI(runs),
				fmt.Sprintf("%d/%d", ccValid, runs),
				fmt.Sprintf("%d/%d", vecValid, runs),
				fmt.Sprintf("%d/%d", byzValid, runs),
				fmt.Sprintf("%d/%d", agree, runs),
				fmt.Sprintf("%d/%d", term, runs),
			})
		}
	}
	return t, nil
}

// batchCell is the per-run verdict of one E18 cell.
type batchCell struct {
	ccValid, vecValid, byzValid, agree, terminated bool
}

// runBatchCell runs one heterogeneous batch over TCP and checks every
// instance's outputs against its own validity reference.
func runBatchCell(n, f, d int, eps float64, profile *chaos.Profile, crashes []dist.CrashPlan, recovery bool, seed int64) (batchCell, error) {
	params := baseParams(n, f, d, eps)
	ccInputs := randInputs(n, d, 0, 10, seed)
	vecInputs := randInputs(n, d, 0, 10, seed+1000)
	byzInputs := randInputs(n, d, 0, 10, seed+2000)
	adversary := dist.ProcID(n - 1)
	cfg := multiplex.BatchConfig{
		N: n,
		Instances: []multiplex.Instance{
			{Params: params, Inputs: ccInputs},
			{Params: params, Inputs: vecInputs, Protocol: multiplex.ProtocolVector},
			{
				Params: params, Inputs: byzInputs,
				Protocol: multiplex.ProtocolByzantine,
				Faults: []byzantine.Fault{{
					Proc:     adversary,
					Behavior: byzantine.IncorrectInput,
					Input:    geom.NewPoint(make([]float64, d)...),
				}},
			},
		},
		Transport: engine.TransportTCP,
		Seed:      seed,
		Env:       engine.Env{Chaos: profile, ChaosSeed: seed},
		Timeout:   120 * time.Second,
	}
	if recovery {
		walDir, err := os.MkdirTemp("", "chc-e18-*")
		if err != nil {
			return batchCell{}, err
		}
		defer func() { _ = os.RemoveAll(walDir) }()
		cfg.Crashes = crashes
		cfg.WALDir = walDir
		cfg.Recover = true
		cfg.RecoverDowntime = 5 * time.Millisecond
		return runBatchCellWith(cfg, n, eps, adversary, ccInputs, vecInputs, byzInputs)
	}
	cfg.Crashes = crashes
	return runBatchCellWith(cfg, n, eps, adversary, ccInputs, vecInputs, byzInputs)
}

func runBatchCellWith(cfg multiplex.BatchConfig, n int, eps float64, adversary dist.ProcID, ccInputs, vecInputs, byzInputs []geom.Point) (batchCell, error) {
	result, err := multiplex.RunBatch(cfg)
	if err != nil {
		return batchCell{}, err
	}
	var cell batchCell

	// Termination: every process completes every instance — restarted nodes
	// are correct processes and must finish the whole batch; the Byzantine
	// adversary participates only in its own instance.
	cell.terminated = len(result.Outputs[0]) == n &&
		len(result.Points[1]) == n &&
		len(result.Outputs[2]) == n-1

	// CC validity: decisions inside the hull of all inputs (no incorrect
	// inputs in this instance).
	ccHull, err := polytope.New(ccInputs, geom.DefaultEps)
	if err != nil {
		return batchCell{}, err
	}
	cell.ccValid = polysInside(result.Outputs[0], ccHull)

	// Vector validity: every decided point inside the input hull.
	vecHull, err := polytope.New(vecInputs, geom.DefaultEps)
	if err != nil {
		return batchCell{}, err
	}
	cell.vecValid = true
	for _, pt := range result.Points[1] {
		dv, derr := vecHull.Distance(pt, geom.DefaultEps)
		if derr != nil || dv > 1e-6 {
			cell.vecValid = false
		}
	}

	// Byzantine validity: correct decisions inside the hull of the CORRECT
	// inputs — the adversary's broadcast input must not displace them.
	var correctPts []geom.Point
	for i, x := range byzInputs {
		if dist.ProcID(i) != adversary {
			correctPts = append(correctPts, x)
		}
	}
	byzHull, err := polytope.New(correctPts, geom.DefaultEps)
	if err != nil {
		return batchCell{}, err
	}
	cell.byzValid = polysInside(result.Outputs[2], byzHull)

	// ε-agreement, per instance.
	cell.agree = true
	for _, k := range []int{0, 2} {
		var polys []*polytope.Polytope
		for _, p := range result.Outputs[k] {
			polys = append(polys, p)
		}
		dH, derr := polytope.MaxPairwiseHausdorff(polys, geom.DefaultEps)
		if derr != nil || dH > eps {
			cell.agree = false
		}
	}
	var worst float64
	pts := make([]geom.Point, 0, len(result.Points[1]))
	for _, pt := range result.Points[1] {
		pts = append(pts, pt)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if dd := geom.Dist(pts[i], pts[j]); dd > worst {
				worst = dd
			}
		}
	}
	if worst > eps {
		cell.agree = false
	}
	return cell, nil
}

// polysInside reports whether every vertex of every polytope lies inside the
// reference hull (within tolerance).
func polysInside(outs map[dist.ProcID]*polytope.Polytope, ref *polytope.Polytope) bool {
	for _, out := range outs {
		for _, v := range out.Vertices() {
			d, err := ref.Distance(v, geom.DefaultEps)
			if err != nil || d > 1e-6 {
				return false
			}
		}
	}
	return true
}
