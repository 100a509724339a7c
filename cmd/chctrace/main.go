// Command chctrace re-analyses an exported execution trace (produced by
// `chcrun -tracefile ...` or chc.WriteTraceJSON) offline: it reconstructs
// the transition matrices M[t] of Section 5, checks row stochasticity and
// Lemma 3, verifies Theorem 1 (matrix-form states equal operational
// states), reports the ε-agreement achieved, and prints the per-round
// disagreement series.
//
// Usage:
//
//	chcrun -n 7 -f 1 -tracefile run.json
//	chctrace run.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"chc"
	"chc/internal/core"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chctrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("chctrace", flag.ContinueOnError)
	verifyRounds := fs.Int("verify", 2, "verify Theorem 1 on the first N rounds (0 = skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: chctrace [-verify N] <trace.json>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "chctrace: close:", cerr)
		}
	}()
	result, err := core.ReadTraceJSON(f)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "trace: n=%d f=%d d=%d ε=%g model=%s, %d decided, faulty %v, crashed %v\n",
		result.Params.N, result.Params.F, result.Params.D, result.Params.Epsilon,
		result.Params.Model, len(result.Outputs), keys(result.Faulty), keys(result.Crashed))

	analysis, err := trace.Build(result)
	if err != nil {
		return err
	}
	if err := analysis.CheckRowStochastic(1e-9); err != nil {
		return fmt.Errorf("row stochasticity: %w", err)
	}
	fmt.Fprintln(w, "matrices   : all M[t] and P[t] row stochastic")
	if err := analysis.CheckLemma3(1e-9); err != nil {
		return fmt.Errorf("lemma 3: %w", err)
	}
	fmt.Fprintln(w, "lemma 3    : δ(P[t]) ≤ (1-1/n)^t for every round")

	if *verifyRounds > 0 {
		rounds := make([]int, 0, *verifyRounds)
		for t := 1; t <= analysis.TEnd && t <= *verifyRounds; t++ {
			rounds = append(rounds, t)
		}
		if err := analysis.VerifyTheorem1(result, rounds, 1e-6); err != nil {
			return fmt.Errorf("theorem 1: %w", err)
		}
		fmt.Fprintf(w, "theorem 1  : matrix form equals operational states on rounds %v\n", rounds)
	}

	if rep, err := core.CheckAgreement(result); err == nil {
		fmt.Fprintf(w, "agreement  : max d_H = %.3g <= %g : %v\n", rep.MaxHausdorff, rep.Epsilon, rep.Holds)
	}

	fmt.Fprintln(w, "per-round disagreement:")
	step := 1
	if analysis.TEnd > 16 {
		step = analysis.TEnd / 16
	}
	for t := 0; t <= analysis.TEnd; t += step {
		if t+step > analysis.TEnd {
			// The decision round is always the last line, whether or not
			// step divides it.
			t = analysis.TEnd
		}
		d, err := disagreementAt(result, t)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "  t=%-4d max d_H = %.6g\n", t, d)
	}
	return nil
}

// disagreementAt computes the max pairwise Hausdorff distance at round t.
func disagreementAt(result *core.RunResult, t int) (float64, error) {
	var polys []*polytope.Polytope
	for _, id := range result.FaultFree() {
		tr := result.Traces[id]
		var verts []geom.Point
		if t == 0 {
			verts = tr.H0
		} else {
			for _, rec := range tr.Rounds {
				if rec.Round == t {
					verts = rec.State
					break
				}
			}
		}
		if verts == nil {
			return 0, fmt.Errorf("process %d missing round %d", id, t)
		}
		p, err := polytope.New(verts, geom.DefaultEps)
		if err != nil {
			return 0, err
		}
		polys = append(polys, p)
	}
	return polytope.MaxPairwiseHausdorff(polys, geom.DefaultEps)
}

func keys(m map[chc.ProcID]bool) []int {
	var out []int
	for id := range m {
		out = append(out, int(id))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
