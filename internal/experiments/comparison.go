package experiments

import (
	"fmt"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/stablevector"
	"chc/internal/vectorconsensus"
)

// E6VsVectorConsensus runs convex hull consensus and the vector consensus
// baseline on identical executions (same inputs, faults, seeds) and compares
// what the application receives: a whole optimal region vs a single point.
// Vector consensus is Algorithm CC from a singleton round-0 state, so the two
// must send the same messages in the same rounds; E6 fails when they do not.
func E6VsVectorConsensus(opt Options) (*Table, error) {
	seeds := opt.trials(2, 5)
	type row struct {
		n, f int
	}
	cases := []row{{10, 1}, {10, 2}}
	if opt.Quick {
		cases = []row{{7, 1}}
	}
	t := &Table{
		ID:    "E6",
		Title: "Convex hull consensus (CC) vs vector consensus (VC) on identical executions (d=2)",
		Header: []string{
			"n", "f", "algo", "rounds", "msgs", "bytes", "mean output volume", "agreement metric",
		},
		Notes: []string{
			"VC is Algorithm CC started from h_i[0] = {SafePoint(X_i)}, the centroid of CC's h_i[0], so on the same schedule both send the same messages in the same rounds (checked per seed). What differs is what each state message and each output carries: CC the whole guaranteeable region (volume > 0), VC a single point (volume 0).",
			"Agreement metric: max pairwise d_H for CC, max pairwise d_E for VC; both must be ≤ ε = 0.05.",
		},
	}
	for _, c := range cases {
		var ccMsgs, ccBytes, vcMsgs, vcBytes, ccRounds, vcRounds int
		var ccVol, ccAgree, vcAgree float64
		for s := 0; s < seeds; s++ {
			seed := int64(c.n*1000 + c.f*100 + s)
			faulty := make([]dist.ProcID, c.f)
			for k := range faulty {
				faulty[k] = dist.ProcID(k)
			}
			cfg := core.RunConfig{
				Params: baseParams(c.n, c.f, 2, 0.05),
				Inputs: randInputs(c.n, 2, 0, 10, seed),
				Faulty: faulty,
				Seed:   seed,
			}
			ccRes, err := core.Run(cfg)
			if err != nil {
				return nil, err
			}
			ccMsgs += ccRes.Stats.Sends
			ccBytes += ccRes.Stats.Bytes
			ccRounds = cfg.Params.TEnd()
			rep, err := core.CheckAgreement(ccRes)
			if err != nil {
				return nil, err
			}
			if rep.MaxHausdorff > ccAgree {
				ccAgree = rep.MaxHausdorff
			}
			out := ccRes.Outputs[ccRes.FaultFree()[0]]
			v, err := out.Volume(geom.DefaultEps)
			if err != nil {
				return nil, err
			}
			ccVol += v

			vcRes, err := vectorconsensus.Run(cfg)
			if err != nil {
				return nil, err
			}
			if vcRes.Stats.Sends != ccRes.Stats.Sends || vcRes.Rounds != ccRounds {
				return nil, fmt.Errorf("E6: n=%d f=%d seed=%d: CC sent %d messages in %d rounds, VC %d in %d",
					c.n, c.f, seed, ccRes.Stats.Sends, ccRounds, vcRes.Stats.Sends, vcRes.Rounds)
			}
			vcMsgs += vcRes.Stats.Sends
			vcBytes += vcRes.Stats.Bytes
			vcRounds = vcRes.Rounds
			if d := vcRes.MaxPairwiseDistance(); d > vcAgree {
				vcAgree = d
			}
		}
		k := seeds
		t.Rows = append(t.Rows,
			[]string{fmtI(c.n), fmtI(c.f), "CC", fmtI(ccRounds), fmtI(ccMsgs / k), fmtI(ccBytes / k), fmtF(ccVol / float64(k)), fmtF(ccAgree)},
			[]string{fmtI(c.n), fmtI(c.f), "VC", fmtI(vcRounds), fmtI(vcMsgs / k), fmtI(vcBytes / k), "0 (point)", fmtF(vcAgree)},
		)
	}
	return t, nil
}

// E9MessageCost measures message and byte complexity vs n: the stable
// vector phase is O(n³) messages worst case, the averaging phase exactly
// n·(n-1)·t_end state messages.
func E9MessageCost(opt Options) (*Table, error) {
	ns := []int{5, 7, 10, 13, 16, 24}
	if opt.Quick {
		ns = []int{5, 7}
	}
	t := &Table{
		ID:    "E9",
		Title: "Message and byte complexity vs n (f=1, d=2, ε=0.1)",
		Header: []string{
			"n", "t_end", "stable-vector msgs", "state msgs", "total msgs", "total bytes", "state msgs per round",
		},
		Notes: []string{
			"State messages per round are exactly n·(n-1): one broadcast per process per round.",
		},
	}
	for _, n := range ns {
		seed := int64(n * 31)
		cfg := core.RunConfig{
			Params: baseParams(n, 1, 2, 0.1),
			Inputs: randInputs(n, 2, 0, 10, seed),
			Seed:   seed,
		}
		result, err := core.Run(cfg)
		if err != nil {
			return nil, err
		}
		tEnd := cfg.Params.TEnd()
		svMsgs := result.Stats.KindCounts[stablevector.KindReport]
		stMsgs := result.Stats.KindCounts[core.KindState]
		if want := n * (n - 1) * tEnd; stMsgs != want {
			return nil, fmt.Errorf("E9: n=%d: %d state messages, want n(n-1)·t_end = %d", n, stMsgs, want)
		}
		perRound := 0
		if tEnd > 0 {
			perRound = stMsgs / tEnd
		}
		t.Rows = append(t.Rows, []string{
			fmtI(n), fmtI(tEnd), fmtI(svMsgs), fmtI(stMsgs),
			fmtI(result.Stats.Sends), fmtI(result.Stats.Bytes),
			fmt.Sprintf("%d (= n(n-1) = %d)", perRound, n*(n-1)),
		})
	}
	return t, nil
}
