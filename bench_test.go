// Benchmarks: one per experiment E1–E15 of DESIGN.md's index (run in quick
// mode so a full -bench pass stays laptop-scale; the fault matrices E16–E23
// run under `make experiments`) plus whole consensus runs, batch throughput,
// the telemetry overhead pair, and micro-benchmarks of the public geometry
// substrates — hulls, intersection, Minkowski averaging, Hausdorff distance,
// constrained minimisation. Kernel benchmarks live in the packages they
// measure: internal/{core,hull,lp,polytope,rbc,runtime,stablevector}.
package chc_test

import (
	"math/rand"
	"testing"

	"chc"
	"chc/internal/experiments"
)

// benchExperiment runs one registered experiment per iteration (quick mode).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(experiments.Options{Quick: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1RoundComplexity(b *testing.B)   { benchExperiment(b, "E1") }
func BenchmarkE2Convergence(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3Validity(b *testing.B)          { benchExperiment(b, "E3") }
func BenchmarkE4Optimality(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5OutputVolume(b *testing.B)      { benchExperiment(b, "E5") }
func BenchmarkE6VsVectorConsensus(b *testing.B) { benchExperiment(b, "E6") }
func BenchmarkE7Optimization(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8Impossibility(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9MessageCost(b *testing.B)       { benchExperiment(b, "E9") }
func BenchmarkE10Resilience(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11CorrectInputs(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12VertexBudget(b *testing.B)     { benchExperiment(b, "E12") }
func BenchmarkE13StableVectorAblation(b *testing.B) {
	benchExperiment(b, "E13")
}
func BenchmarkE14Byzantine(b *testing.B)       { benchExperiment(b, "E14") }
func BenchmarkE15StrongConvexity(b *testing.B) { benchExperiment(b, "E15") }

// --- end-to-end consensus benchmarks ---

func benchConsensus(b *testing.B, n, f, d int, epsilon float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	inputs := make([]chc.Point, n)
	for i := range inputs {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		inputs[i] = chc.NewPoint(p...)
	}
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: n, F: f, D: d,
			Epsilon:    epsilon,
			InputLower: 0, InputUpper: 10,
		},
		Inputs: inputs,
		Seed:   1,
	}
	if f > 0 {
		cfg.Faulty = []chc.ProcID{0}
		cfg.Crashes = []chc.CrashPlan{{Proc: 0, AfterSends: 9}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := chc.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensusN4D1(b *testing.B)  { benchConsensus(b, 4, 1, 1, 0.1) }
func BenchmarkConsensusN5D2(b *testing.B)  { benchConsensus(b, 5, 1, 2, 0.1) }
func BenchmarkConsensusN9D2(b *testing.B)  { benchConsensus(b, 9, 2, 2, 0.1) }
func BenchmarkConsensusN13D2(b *testing.B) { benchConsensus(b, 13, 1, 2, 0.1) }
func BenchmarkConsensusN6D3(b *testing.B)  { benchConsensus(b, 6, 1, 3, 2.0) }

// BenchmarkConsensusN10F2D3 is the end-to-end d=3 case: n=10, f=2 under the
// correct-inputs model (n >= (d+2)f+1 = 11 rules out the incorrect-inputs
// variant at this size), with two processes crashing mid-broadcast. Inputs
// are regenerated every iteration, so each op is one fresh instance.
func BenchmarkConsensusN10F2D3(b *testing.B) { benchConsensusN10F2D3(b) }

// BenchmarkConsensusN10F2D3Telemetry is the identical workload with the
// metrics registry enabled. Against its disabled twin above it measures the
// observability overhead (DESIGN.md §9):
//
//	go test -bench 'ConsensusN10F2D3' -count 10 .
func BenchmarkConsensusN10F2D3Telemetry(b *testing.B) {
	defer chc.EnableTelemetry(chc.EnableTelemetry(true))
	benchConsensusN10F2D3(b)
}

func benchConsensusN10F2D3(b *testing.B) {
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: 10, F: 2, D: 3,
			Epsilon:    2.0,
			InputLower: 0, InputUpper: 10,
			Model: chc.CorrectInputs,
		},
		Faulty:  []chc.ProcID{0, 1},
		Crashes: []chc.CrashPlan{{Proc: 0, AfterSends: 9}, {Proc: 1, AfterSends: 40}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Inputs = randPoints(10, 3, int64(i+1))
		cfg.Seed = int64(i + 1)
		if _, err := chc.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsensusTightEps(b *testing.B) {
	benchConsensus(b, 5, 1, 2, 0.001)
}

// BenchmarkBatch8Instances measures batch throughput: one op is an
// eight-instance heterogeneous batch (Algorithm CC and the vector baseline
// alternating) multiplexed over the deterministic simulator via the unified
// engine. Reports instances/sec alongside the usual ns/op.
func BenchmarkBatch8Instances(b *testing.B) {
	const n, d, k = 5, 2, 8
	params := chc.Params{
		N: n, F: 1, D: d,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instances := make([]chc.BatchInstance, k)
		for j := range instances {
			inst := chc.BatchInstance{Params: params, Inputs: randPoints(n, d, int64(i*k+j+1))}
			if j%2 == 1 {
				inst.Protocol = chc.BatchVector
			}
			instances[j] = inst
		}
		if _, err := chc.RunBatch(chc.BatchConfig{N: n, Instances: instances, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}

// --- substrate micro-benchmarks ---

func randPoints(n, d int, seed int64) []chc.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]chc.Point, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = chc.NewPoint(p...)
	}
	return pts
}

func BenchmarkHull2D32Points(b *testing.B) {
	pts := randPoints(32, 2, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := chc.NewPolytope(pts, chc.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHull3D16Points(b *testing.B) {
	pts := randPoints(16, 3, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := chc.NewPolytope(pts, chc.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntersect2D(b *testing.B) {
	a, err := chc.NewPolytope(randPoints(12, 2, 3), chc.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	c := a.Translate(chc.NewPoint(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chc.Intersect([]*chc.Polytope{a, c}, chc.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAverage2D(b *testing.B) {
	polys := make([]*chc.Polytope, 6)
	for k := range polys {
		p, err := chc.NewPolytope(randPoints(8, 2, int64(k+10)), chc.DefaultEps)
		if err != nil {
			b.Fatal(err)
		}
		polys[k] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chc.AveragePolytopes(polys, chc.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHausdorff2D(b *testing.B) {
	a, err := chc.NewPolytope(randPoints(16, 2, 20), chc.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	c, err := chc.NewPolytope(randPoints(16, 2, 21), chc.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chc.Hausdorff(a, c, chc.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHausdorff3DWolfe(b *testing.B) {
	a, err := chc.NewPolytope(randPoints(10, 3, 30), chc.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	c, err := chc.NewPolytope(randPoints(10, 3, 31), chc.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chc.Hausdorff(a, c, chc.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkByzantineConsensus(b *testing.B) {
	inputs := randPoints(5, 2, 50)
	cfg := chc.ByzantineRunConfig{
		Params: chc.Params{
			N: 5, F: 1, D: 2,
			Epsilon:    0.5,
			InputLower: 0, InputUpper: 10,
		},
		Inputs: inputs,
		Faults: []chc.ByzantineFault{{Proc: 4, Behavior: chc.ByzEquivocator}},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := chc.RunByzantine(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeQuadratic(b *testing.B) {
	p, err := chc.NewPolytope(randPoints(12, 2, 40), chc.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	cost := chc.QuadraticCost{Target: chc.NewPoint(20, 20), Scale: 1, Radius: 40}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chc.Minimize(cost, p, chc.MinimizeOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
