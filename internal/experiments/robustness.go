package experiments

import (
	"fmt"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/runtime"
)

// E3Validity stress-tests Theorem 2 (validity + ε-agreement + termination)
// across random seeds, adversarial schedulers, incorrect faulty inputs and
// crash timings. Every cell must be a 100% pass rate.
func E3Validity(opt Options) (*Table, error) {
	seeds := opt.trials(6, 40)
	type schedCase struct {
		name string
		mk   func(faulty dist.ProcID) dist.Scheduler
	}
	cases := []schedCase{
		{"random", func(dist.ProcID) dist.Scheduler { return nil }},
		{"delay-faulty", func(f dist.ProcID) dist.Scheduler { return dist.NewDelayScheduler(f) }},
		{"split", func(dist.ProcID) dist.Scheduler { return dist.NewSplitScheduler(0, 1) }},
		{"round-robin", func(dist.ProcID) dist.Scheduler { return dist.NewRoundRobinScheduler() }},
	}
	t := &Table{
		ID:     "E3",
		Title:  "Theorem 2 properties across adversarial schedules and crash storms (n=5, f=1, d=2)",
		Header: []string{"scheduler", "runs", "validity", "ε-agreement", "optimality", "terminated"},
		Notes: []string{
			"Each run uses a random incorrect input at the faulty process and a crash at a random point (possibly mid-broadcast).",
		},
	}
	for _, sc := range cases {
		runs, vOK, aOK, oOK, term := 0, 0, 0, 0, 0
		for s := 0; s < seeds; s++ {
			seed := int64(s*131 + 7)
			inputs := randInputs(5, 2, 0, 10, seed)
			faulty := dist.ProcID(s % 5)
			cfg := core.RunConfig{
				Params:    baseParams(5, 1, 2, 0.05),
				Inputs:    inputs,
				Faulty:    []dist.ProcID{faulty},
				Crashes:   []dist.CrashPlan{{Proc: faulty, AfterSends: (s * 13) % 40}},
				Seed:      seed,
				Scheduler: sc.mk(faulty),
			}
			result, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("E3 %s seed %d: %w", sc.name, seed, err)
			}
			runs++
			allDecided := true
			for _, id := range result.FaultFree() {
				if _, ok := result.Outputs[id]; !ok {
					allDecided = false
				}
			}
			if allDecided {
				term++
			}
			if core.CheckValidity(result, &cfg) == nil {
				vOK++
			}
			if rep, err := core.CheckAgreement(result); err == nil && rep.Holds {
				aOK++
			}
			if core.CheckOptimality(result) == nil {
				oOK++
			}
		}
		t.Rows = append(t.Rows, []string{
			sc.name, fmtI(runs),
			fmt.Sprintf("%d/%d", vOK, runs),
			fmt.Sprintf("%d/%d", aOK, runs),
			fmt.Sprintf("%d/%d", oOK, runs),
			fmt.Sprintf("%d/%d", term, runs),
		})
	}
	return t, nil
}

// E4Optimality quantifies Lemma 6 / Theorem 3: the decided polytope always
// contains I_Z, and its volume relative to I_Z and to the full correct-input
// hull shows how much of the optimal region the algorithm retains.
func E4Optimality(opt Options) (*Table, error) {
	type cfgCase struct{ n, f int }
	cases := []cfgCase{{7, 1}, {10, 1}, {10, 2}, {13, 2}}
	if opt.Quick {
		cases = []cfgCase{{7, 1}}
	}
	seeds := opt.trials(2, 6)
	t := &Table{
		ID:     "E4",
		Title:  "Optimality (d=2): I_Z containment and volume ratios",
		Header: []string{"n", "f", "runs", "I_Z ⊆ output", "vol(I_Z)", "vol(output)", "vol(correct hull)", "output/I_Z", "output/hull"},
		Notes: []string{
			"Lemma 6 requires I_Z ⊆ h_i[t]; Theorem 3 shows no algorithm can guarantee a superset of I_Z, so output/I_Z ≥ 1 quantifies headroom, and output/hull < 1 the price of distrusting any f inputs.",
		},
	}
	for _, c := range cases {
		var volIZ, volOut, volHull float64
		contain, runs := 0, 0
		for s := 0; s < seeds; s++ {
			seed := int64(c.n*100 + c.f*10 + s)
			inputs := randInputs(c.n, 2, 0, 10, seed)
			faulty := make([]dist.ProcID, c.f)
			for k := range faulty {
				faulty[k] = dist.ProcID(k)
			}
			cfg := core.RunConfig{
				Params: baseParams(c.n, c.f, 2, 0.05),
				Inputs: inputs,
				Faulty: faulty,
				Seed:   seed,
			}
			result, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			runs++
			if core.CheckOptimality(result) == nil {
				contain++
			}
			iz, err := core.IZ(result)
			if err != nil {
				return nil, err
			}
			v, err := iz.Volume(geom.DefaultEps)
			if err != nil {
				return nil, err
			}
			volIZ += v
			out := result.Outputs[result.FaultFree()[0]]
			v, err = out.Volume(geom.DefaultEps)
			if err != nil {
				return nil, err
			}
			volOut += v
			hull, err := core.CorrectInputHull(&cfg)
			if err != nil {
				return nil, err
			}
			v, err = hull.Volume(geom.DefaultEps)
			if err != nil {
				return nil, err
			}
			volHull += v
		}
		k := float64(runs)
		ratioIZ := "∞"
		if volIZ > 0 {
			ratioIZ = fmtF(volOut / volIZ)
		}
		t.Rows = append(t.Rows, []string{
			fmtI(c.n), fmtI(c.f), fmtI(runs),
			fmt.Sprintf("%d/%d", contain, runs),
			fmtF(volIZ / k), fmtF(volOut / k), fmtF(volHull / k),
			ratioIZ, fmtF(volOut / volHull),
		})
	}
	return t, nil
}

// E5OutputVolume sweeps n at fixed f to show the output polytope growing
// from (near) degenerate at the resilience bound n = (d+2)f+1 toward the
// full correct-input hull, plus the crafted degenerate instance of
// Section 6 whose output is exactly one point.
func E5OutputVolume(opt Options) (*Table, error) {
	ns := []int{5, 7, 9, 11, 13}
	if opt.Quick {
		ns = []int{5, 7, 9}
	}
	seeds := opt.trials(2, 5)
	t := &Table{
		ID:     "E5",
		Title:  "Output volume vs n (d=2, f=1): degenerate at the bound, growing with slack",
		Header: []string{"n", "runs", "mean vol(output)", "mean vol(hull)", "output/hull"},
		Notes: []string{
			"n = 5 is exactly (d+2)f+1; the paper's degenerate-case discussion predicts small (possibly single-point) outputs there.",
		},
	}
	for _, n := range ns {
		var volOut, volHull float64
		runs := 0
		for s := 0; s < seeds; s++ {
			seed := int64(n*17 + s)
			cfg := core.RunConfig{
				Params: baseParams(n, 1, 2, 0.05),
				Inputs: randInputs(n, 2, 0, 10, seed),
				Seed:   seed,
			}
			result, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			runs++
			out := result.Outputs[result.FaultFree()[0]]
			v, err := out.Volume(geom.DefaultEps)
			if err != nil {
				return nil, err
			}
			volOut += v
			hull, err := core.CorrectInputHull(&cfg)
			if err != nil {
				return nil, err
			}
			v, err = hull.Volume(geom.DefaultEps)
			if err != nil {
				return nil, err
			}
			volHull += v
		}
		k := float64(runs)
		t.Rows = append(t.Rows, []string{
			fmtI(n), fmtI(runs), fmtF(volOut / k), fmtF(volHull / k), fmtF(volOut / volHull),
		})
	}
	// Crafted exact degenerate case: compass points + centre at n = 5.
	compass := []geom.Point{
		geom.NewPoint(5, 10), geom.NewPoint(5, 0),
		geom.NewPoint(10, 5), geom.NewPoint(0, 5),
		geom.NewPoint(5, 5),
	}
	cfg := core.RunConfig{
		Params: baseParams(5, 1, 2, 0.05),
		Inputs: compass,
		Seed:   1,
	}
	result, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := result.Outputs[result.FaultFree()[0]]
	v, err := out.Volume(geom.DefaultEps)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"5 (compass)", "1", fmtF(v), "50", fmtF(v / 50)})
	t.Notes = append(t.Notes, fmt.Sprintf(
		"Compass instance: the round-0 intersection is exactly the single centre point; measured output diameter %v.",
		fmtF(out.Diameter())))
	return t, nil
}

// E16ChaosMatrix exercises the reliable-channel reduction: Algorithm CC
// assumes exactly-once FIFO channels, and the rlink layer must recover that
// contract over lossy, duplicating, delaying and transiently partitioned
// transports — composed with up to f crash faults. Each cell runs full
// consensus instances over the networked runtime with a seeded chaos
// profile and asserts termination of every fault-free process plus validity
// of every output.
func E16ChaosMatrix(opt Options) (*Table, error) {
	jitter := chaos.Profile{
		Drop: 0.20, Dup: 0.10,
		DelayMin: 50 * time.Microsecond, DelayMax: time.Millisecond,
	}
	heavy := chaos.Heavy()
	m := matrix{
		id:     "E16",
		title:  "Chaos matrix: Algorithm CC over unreliable links via the rlink layer (n=5, f=1, d=2)",
		labels: []string{"profile", "crashes"},
		notes: []string{
			"Each run injects the seeded fault plan below the reliable-link layer; termination counts runs where every fault-free process decided, validity counts runs where every output lies in the hull of non-faulty inputs (Theorem 2 over recovered channels).",
		},
		transport: engine.TransportChannel,
		params:    baseParams(5, 1, 2, 0.05),
		seeds:     opt.trials(2, 6),
		seed:      func(s int) int64 { return int64(s*37 + 5) },
		verdicts:  []verdict{vTerminated, vValidity},
		counters: []counter{
			netCounter("retransmits", func(n *dist.NetStats) int64 { return n.Retransmits }),
			netCounter("dup-suppressed", func(n *dist.NetStats) int64 { return n.DupSuppressed }),
			netCounter("part-drops", func(n *dist.NetStats) int64 { return n.PartitionDrops }),
		},
	}
	for _, pc := range []struct {
		name    string
		profile *chaos.Profile
	}{
		{"drop 25%", &chaos.Profile{Drop: 0.25}},
		{"drop+dup+jitter", &jitter},
		{"heavy (+partition)", &heavy},
	} {
		m.cells = append(m.cells,
			cell{labels: []string{pc.name, "none"}, env: runtime.Env{Chaos: pc.profile}},
			cell{labels: []string{pc.name, "f mid-bcast"}, env: runtime.Env{Chaos: pc.profile},
				crashes: []dist.CrashPlan{{Proc: 4, AfterSends: 15}}},
		)
	}
	return m.table()
}

// E17CrashRecovery exercises the crash-recovery runtime: nodes are killed
// mid-protocol — possibly mid-broadcast — and relaunched from their
// write-ahead logs with a new incarnation epoch. Every seed×schedule cell
// must terminate with ALL processes decided (restarted nodes recover and
// finish; they are correct processes, not crash-stop casualties, so no cell
// declares anyone faulty), and the outputs must satisfy validity, ε-agreement
// and I_Z containment exactly as in a fault-free run. One row composes
// restarts with a lossy chaos profile.
func E17CrashRecovery(opt Options) (*Table, error) {
	const ms = time.Millisecond
	lossy := chaos.Profile{Drop: 0.15, Dup: 0.05}
	return matrix{
		id:     "E17",
		title:  "Crash-recovery matrix: WAL replay + epoch link resumption under kill-and-restart faults (n=5, f=1, d=2)",
		labels: []string{"schedule"},
		notes: []string{
			"Every process must decide, including the killed ones: the restart supervisor relaunches them from the WAL and the epoch handshake resumes their links without duplicate or lost delivery, so the paper's guarantees hold as if the node had merely been slow.",
		},
		transport: engine.TransportChannel,
		params:    baseParams(5, 1, 2, 0.05),
		seeds:     opt.trials(5, 12),
		seed:      func(s int) int64 { return int64(s*59 + 11) },
		verdicts:  []verdict{vTerminated, vValidity, vAgreement, vOptimality},
		counters: []counter{
			netCounter("resumes", func(n *dist.NetStats) int64 { return n.Resumes }),
			netCounter("wal appends", func(n *dist.NetStats) int64 { return n.WALAppends }),
		},
		cells: []cell{
			{labels: []string{"kill p1 early"}, env: runtime.Env{Restarts: []runtime.RestartPlan{
				{Proc: 1, KillAfterSends: 4, Downtime: 5 * ms}}}},
			{labels: []string{"kill p2 mid-round"}, env: runtime.Env{Restarts: []runtime.RestartPlan{
				{Proc: 2, KillAfterSends: 15, Downtime: 10 * ms}}}},
			{labels: []string{"two staggered"}, env: runtime.Env{Restarts: []runtime.RestartPlan{
				{Proc: 1, KillAfterSends: 8, Downtime: 5 * ms},
				{Proc: 3, KillAfterSends: 20, Downtime: 10 * ms}}}},
			{labels: []string{"p2 twice"}, env: runtime.Env{Restarts: []runtime.RestartPlan{
				{Proc: 2, KillAfterSends: 6, Downtime: 5 * ms},
				{Proc: 2, KillAfterSends: 5, Downtime: 5 * ms}}}},
			{labels: []string{"restart + lossy links"}, env: runtime.Env{Chaos: &lossy, Restarts: []runtime.RestartPlan{
				{Proc: 4, KillAfterSends: 10, Downtime: 10 * ms}}}},
		},
	}.table()
}
