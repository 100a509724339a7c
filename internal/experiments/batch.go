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
	"chc/internal/runtime"
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
		name     string
		restarts []runtime.RestartPlan
	}{
		{"none", nil},
		{"restart p0", restartP0},
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
				cell, err := runBatchCell(n, f, d, eps, cc.profile, fc.restarts, seed)
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

// runBatchCell runs one heterogeneous batch over TCP and audits every
// instance's outputs against its own validity reference.
func runBatchCell(n, f, d int, eps float64, profile *chaos.Profile, restarts []runtime.RestartPlan, seed int64) (batchCell, error) {
	params := baseParams(n, f, d, eps)
	adversary := dist.ProcID(n - 1)
	cfg := multiplex.BatchConfig{
		N: n,
		Instances: []multiplex.Instance{
			{Params: params, Inputs: randInputs(n, d, 0, 10, seed)},
			{Params: params, Inputs: randInputs(n, d, 0, 10, seed+1000), Protocol: multiplex.ProtocolVector},
			{
				Params: params, Inputs: randInputs(n, d, 0, 10, seed+2000),
				Protocol: multiplex.ProtocolByzantine,
				Faults: []byzantine.Fault{{
					Proc:     adversary,
					Behavior: byzantine.IncorrectInput,
					Input:    geom.NewPoint(make([]float64, d)...),
				}},
			},
		},
		Transport: engine.TransportTCP,
		Env:       runtime.Env{Chaos: profile, ChaosSeed: seed, Restarts: restarts},
		Timeout:   120 * time.Second,
	}
	if len(restarts) > 0 {
		walDir, err := os.MkdirTemp("", "chc-e18-*")
		if err != nil {
			return batchCell{}, err
		}
		defer func() { _ = os.RemoveAll(walDir) }()
		cfg.WALDir = walDir
	}
	result, err := multiplex.RunBatch(cfg)
	if err != nil {
		return batchCell{}, err
	}

	// Termination: every process completes every instance — restarted nodes
	// are correct processes and must finish the whole batch; the Byzantine
	// adversary participates only in its own instance.
	cell := batchCell{
		terminated: len(result.Outputs[0]) == n && len(result.Points[1]) == n && len(result.Outputs[2]) == n-1,
		agree:      true,
	}
	// Validity per instance against its own correct inputs — the adversary's
	// broadcast input must not displace the Byzantine instance's decisions —
	// and ε-agreement across all three.
	var valid [3]bool
	for k, inst := range cfg.Instances {
		audit, err := auditInstance(inst, result.Outputs[k], result.Points[k])
		if err != nil {
			return batchCell{}, err
		}
		valid[k] = audit.Valid
		cell.agree = cell.agree && audit.Agree
	}
	cell.ccValid, cell.vecValid, cell.byzValid = valid[0], valid[1], valid[2]
	return cell, nil
}
