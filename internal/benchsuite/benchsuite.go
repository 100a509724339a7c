// Package benchsuite defines the canonical performance benchmarks of the
// repository as an importable suite, so that `chcbench -benchjson` (and the
// CI regression guard built on it) can run exactly the workloads that
// `go test -bench` measures and emit machine-readable results.
//
// Every case is deterministic: inputs are seeded, schedules are seeded, and
// the geometry engine guarantees bitwise-identical results regardless of
// GOMAXPROCS, so two runs of the suite differ only in timing.
package benchsuite

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/hull"
	"chc/internal/lp"
	"chc/internal/multiplex"
	"chc/internal/polytope"
	chcruntime "chc/internal/runtime"
	"chc/internal/service"
	"chc/internal/telemetry"
	"chc/internal/wan"
)

// Case is one named benchmark of the suite.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// Result is the measured outcome of one case.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	// Metrics holds the case's custom b.ReportMetric series (msgs/sec,
	// p99-latency-ns, instances/sec, ...); absent when a case reports none.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the JSON document written to BENCH_<rev>.json files.
type Report struct {
	Revision   string   `json:"revision"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Generated  string   `json:"generated"`
	Benchmarks []Result `json:"benchmarks"`
}

// Cases returns the suite in a fixed, stable order. Names are part of the
// BENCH_*.json contract: renaming a case breaks baseline comparison.
func Cases() []Case {
	return []Case{
		{"ConsensusN10F2D3", benchConsensusN10F2D3},
		{"ConsensusN10F2D3Telemetry", benchConsensusN10F2D3Telemetry},
		{"ConsensusN9F2D2", benchConsensusN9F2D2},
		{"BatchSim8Instances", benchBatchSim8Instances},
		{"ServiceSubmitDecide", benchServiceSubmitDecide},
		{"InitialPolytopeN12F2D3", benchInitialPolytope},
		{"LPChebyshev3D", benchLPChebyshev},
		{"LPConvexWeights3D", benchLPConvexWeights},
		{"Hull3D24Points", benchHull3D},
		{"Facets3D", benchFacets3D},
		{"Intersect3D", benchIntersect3D},
		{"Average3D", benchAverage3D},
		{"Hausdorff3DWolfe", benchHausdorff3D},
		{"TransportSaturatedLink", benchTransportSaturatedLink},
		{"TransportSaturatedLinkCompressed", benchTransportSaturatedLinkCompressed},
		{"WANRegionalDecide", benchWANRegionalDecide},
		{"SoakSteadyState", benchSoakSteadyState},
	}
}

// Run executes every case (or the named subset) via testing.Benchmark and
// returns the results in suite order.
func Run(names map[string]bool) []Result {
	var out []Result
	for _, c := range Cases() {
		if len(names) > 0 && !names[c.Name] {
			continue
		}
		// Isolate cases from each other: drop the process-wide memoization
		// entries (and thus the live heap) accumulated by earlier cases, so a
		// small benchmark late in the suite is not taxed by GC scans of a
		// cache a big benchmark filled. Within a case the caches behave
		// normally.
		polytope.SetHullCaching(false)
		polytope.SetHullCaching(true)
		runtime.GC()
		r := testing.Benchmark(c.Fn)
		res := Result{
			Name:        c.Name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: int64(r.AllocsPerOp()),
			BytesPerOp:  int64(r.AllocedBytesPerOp()),
			Iterations:  r.N,
		}
		if len(r.Extra) > 0 {
			res.Metrics = make(map[string]float64, len(r.Extra))
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		out = append(out, res)
	}
	return out
}

// NewReport wraps results with the environment header.
func NewReport(revision string, results []Result) Report {
	return Report{
		Revision:   revision,
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Benchmarks: results,
	}
}

// higherIsBetter lists the custom metrics gated by Compare in the opposite
// direction from ns/op: falling below baseline/(1+maxRegress) is a
// regression. p99-latency-ns is recorded but not gated — single-run tail
// latency on a shared CI host is too noisy to block merges on.
var higherIsBetter = []string{"msgs/sec", "instances/sec"}

// Compare checks results against a baseline: any case whose ns/op exceeds
// baseline*(1+maxRegress), or whose gated throughput metric (msgs/sec) falls
// below baseline/(1+maxRegress), is a regression. Cases — and metrics —
// absent from either side are skipped (the suite may grow over time).
func Compare(baseline, current []Result, maxRegress float64) []error {
	base := make(map[string]Result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	var errs []error
	for _, r := range current {
		b, ok := base[r.Name]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		if ratio := r.NsPerOp / b.NsPerOp; ratio > 1+maxRegress {
			errs = append(errs, fmt.Errorf("%s: %.0f ns/op vs baseline %.0f ns/op (%.2fx > allowed %.2fx)",
				r.Name, r.NsPerOp, b.NsPerOp, ratio, 1+maxRegress))
		}
		for _, m := range higherIsBetter {
			bv, cv := b.Metrics[m], r.Metrics[m]
			if bv <= 0 || cv <= 0 {
				continue
			}
			if ratio := cv / bv; ratio < 1/(1+maxRegress) {
				errs = append(errs, fmt.Errorf("%s: %.0f %s vs baseline %.0f (%.2fx < allowed %.2fx)",
					r.Name, cv, m, bv, ratio, 1/(1+maxRegress)))
			}
		}
	}
	return errs
}

func randPoints(n, d int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = geom.NewPoint(p...)
	}
	return pts
}

// benchConsensusN10F2D3 is the acceptance-criterion workload: n=10, f=2,
// d=3. The incorrect-inputs model needs n >= (d+2)f+1 = 11, so this cell
// runs the correct-inputs variant (n >= 2f+1), which still drives the full
// d=3 hot path: 3-D hulls each round-0, and per-round Minkowski averaging
// over n-f states with facet enumeration. Two faulty processes crash
// mid-broadcast.
func benchConsensusN10F2D3(b *testing.B) {
	benchConsensus(b, core.Params{
		N: 10, F: 2, D: 3,
		Epsilon:    2.0,
		InputLower: 0, InputUpper: 10,
		Model: core.CorrectInputs,
	}, []dist.ProcID{0, 1}, []dist.CrashPlan{{Proc: 0, AfterSends: 9}, {Proc: 1, AfterSends: 40}})
}

// benchConsensusN10F2D3Telemetry is the identical workload with the metrics
// registry enabled; ConsensusN10F2D3 above is its disabled twin. Tracking the
// pair in BENCH_*.json records the observability overhead commit by commit,
// and keeps the disabled path honest: the twin must stay within the
// regression gate of the committed baseline even though every instrument in
// the hot loop still executes its one-atomic-load disabled check.
func benchConsensusN10F2D3Telemetry(b *testing.B) {
	prev := telemetry.Enable(true)
	defer telemetry.Enable(prev)
	benchConsensusN10F2D3(b)
}

func benchConsensusN9F2D2(b *testing.B) {
	benchConsensus(b, core.Params{
		N: 9, F: 2, D: 2,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}, []dist.ProcID{0}, []dist.CrashPlan{{Proc: 0, AfterSends: 9}})
}

// benchConsensus regenerates the inputs every iteration so process-wide
// memoization cannot carry results across iterations: each op measures one
// cold consensus instance (within which the n-fold intra-run cache reuse the
// engine is designed for still applies).
func benchConsensus(b *testing.B, params core.Params, faulty []dist.ProcID, crashes []dist.CrashPlan) {
	cfg := core.RunConfig{
		Params:  params,
		Faulty:  faulty,
		Crashes: crashes,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Inputs = randPoints(params.N, params.D, int64(i+1))
		cfg.Seed = int64(i + 1)
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchSim8Instances measures batch throughput through the unified
// engine: one op is an eight-instance heterogeneous batch (Algorithm CC and
// the vector baseline alternating) multiplexed over the deterministic
// simulator at n=5. Besides the usual ns/op it reports instances/sec, the
// batch-scheduling figure of merit. Inputs are regenerated every iteration
// so memoization cannot carry hulls across ops.
func benchBatchSim8Instances(b *testing.B) {
	const n, d, k = 5, 2, 8
	params := core.Params{
		N: n, F: 1, D: d,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		instances := make([]multiplex.Instance, k)
		for j := range instances {
			inst := multiplex.Instance{Params: params, Inputs: randPoints(n, d, int64(i*k+j+1))}
			if j%2 == 1 {
				inst.Protocol = multiplex.ProtocolVector
			}
			instances[j] = inst
		}
		if _, err := multiplex.RunBatch(multiplex.BatchConfig{
			N: n, Instances: instances, Seed: int64(i + 1),
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}

// benchServiceSubmitDecide measures the resident-service hot path: one op
// is a single instance submitted against an already-warm cluster and
// watched to its decision — the submit→decide latency a consensus-as-a-
// service tenant observes. The daemon (cluster, goroutines, mailboxes) is
// built once outside the timer, so the figure isolates instance lifecycle
// cost from cluster startup, which is exactly what distinguishes the
// resident engine from a per-run engine.Run. Reports instances/sec.
func benchServiceSubmitDecide(b *testing.B) {
	const n, d = 5, 2
	params := core.Params{
		N: n, F: 1, D: d,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}
	srv, err := service.New(service.Config{N: n, Retention: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := multiplex.Instance{Params: params, Inputs: randPoints(n, d, int64(i+1))}
		id, _, err := srv.Submit(inst)
		if err != nil {
			b.Fatal(err)
		}
		st, terminal, err := srv.Watch(id, 120*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !terminal || st.State != service.StateDecided {
			b.Fatalf("instance %d: state %v err %v", id, st.State, st.Err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}

// benchInitialPolytope exercises the exponential round-0 hot loop of the
// incorrect-inputs model: C(12,2) = 66 subset hulls in 3-D followed by their
// intersection (line 5 of Algorithm CC).
func benchInitialPolytope(b *testing.B) {
	params := core.Params{
		N: 12, F: 2, D: 3,
		Epsilon:    0.5,
		InputLower: 0, InputUpper: 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh inputs per iteration keep cross-iteration memoization out
		// of the measurement.
		xi := randPoints(12, 3, int64(i+7))
		if _, err := core.InitialPolytope(params, xi); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLPChebyshev(b *testing.B) {
	verts, err := hull.ConvexHull(randPoints(20, 3, 11), geom.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	facets, err := hull.Facets(verts, geom.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	a := make([][]float64, len(facets))
	rhs := make([]float64, len(facets))
	for i, f := range facets {
		a[i], rhs[i] = f.Normal, f.Offset
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lp.ChebyshevCenter(a, rhs, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchLPConvexWeights(b *testing.B) {
	pts := randPoints(16, 3, 13)
	verts := make([][]float64, len(pts))
	for i, p := range pts {
		verts[i] = p
	}
	q := geom.NewPoint(5, 5, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.ConvexWeights(verts, q, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchHull3D(b *testing.B) {
	pts := randPoints(24, 3, 17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hull.ConvexHull(pts, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFacets3D(b *testing.B) {
	verts, err := hull.ConvexHull(randPoints(24, 3, 19), geom.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hull.Facets(verts, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchIntersect3D(b *testing.B) {
	mk := func(seed int64, shift float64) *polytope.Polytope {
		p, err := polytope.New(randPoints(14, 3, seed), geom.DefaultEps)
		if err != nil {
			b.Fatal(err)
		}
		return p.Translate(geom.NewPoint(shift, shift, shift))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Operands are rebuilt per iteration (a few percent of the op cost)
		// so memoized facets/hulls cannot carry across iterations.
		s := int64(i) * 3
		polys := []*polytope.Polytope{mk(s+23, 0), mk(s+29, 0.5), mk(s+31, -0.5)}
		if _, err := polytope.Intersect(polys, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

func benchAverage3D(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Operands are rebuilt per iteration (negligible next to the
		// Minkowski-sum cost) so the combine cache cannot serve a repeat.
		polys := make([]*polytope.Polytope, 6)
		for k := range polys {
			p, err := polytope.New(randPoints(8, 3, int64(i*6+k+40)), geom.DefaultEps)
			if err != nil {
				b.Fatal(err)
			}
			polys[k] = p
		}
		if _, err := polytope.Average(polys, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTransportSaturatedLink saturates one directed link of a real two-node
// TCP pair through the full production stack (rlink, coalescing writer, wire
// codec, loopback TCP, stream decoder). One op = one message delivered
// exactly-once FIFO, so ns/op is the per-message cost and the reported
// msgs/sec is the link's sustained throughput.
func benchTransportSaturatedLink(b *testing.B) {
	chcruntime.BenchSaturatedLink(b, chcruntime.LinkBenchConfig{})
}

// benchTransportSaturatedLinkCompressed negotiates FlagCompress, so batches
// travel as flate FrameBatch envelopes: it tracks the compression tax (CPU
// per message) against the coalesced plain path.
func benchTransportSaturatedLinkCompressed(b *testing.B) {
	chcruntime.BenchSaturatedLink(b, chcruntime.LinkBenchConfig{
		Wire: chcruntime.WireConfig{Compress: true},
	})
}

func benchHausdorff3D(b *testing.B) {
	a, err := polytope.New(randPoints(10, 3, 53), geom.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	c, err := polytope.New(randPoints(10, 3, 59), geom.DefaultEps)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := polytope.Hausdorff(a, c, geom.DefaultEps); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWANRegionalDecide measures the submit→decide path with every link of
// the warm cluster shaped through the WAN model: a 3-region geo topology at
// scaled delays, so the figure tracks the cost of the shaping machinery
// (per-frame release scheduling, region attribution of the decide) rather
// than transcontinental physics. One op is one instance watched to its
// decision; reports instances/sec.
func benchWANRegionalDecide(b *testing.B) {
	const n, d = 5, 2
	params := core.Params{
		N: n, F: 1, D: d,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}
	plan, err := wan.ParsePlan("3-regions,delay=0.002")
	if err != nil {
		b.Fatal(err)
	}
	cfg := service.Config{N: n, Retention: 50 * time.Millisecond}
	cfg.WAN, cfg.WANSeed = &plan, 1
	srv, err := service.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := multiplex.Instance{Params: params, Inputs: randPoints(n, d, int64(i+1))}
		id, _, err := srv.Submit(inst)
		if err != nil {
			b.Fatal(err)
		}
		st, terminal, err := srv.Watch(id, 120*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !terminal || st.State != service.StateDecided {
			b.Fatalf("instance %d: state %v err %v", id, st.State, st.Err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}

// benchSoakSteadyState measures the soak harness's figure of merit: the
// steady-state decided-instance throughput of a warm daemon with a full
// pipeline in flight. One op is a burst of eight concurrent mixed CC/vector
// instances all watched to their decisions — the same admission, scheduling
// and retire machinery a chcsoak run saturates. Reports instances/sec.
func benchSoakSteadyState(b *testing.B) {
	const n, d, burst = 5, 2, 8
	params := core.Params{
		N: n, F: 1, D: d,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	}
	srv, err := service.New(service.Config{N: n, Retention: 50 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		errs := make(chan error, burst)
		for j := 0; j < burst; j++ {
			inst := multiplex.Instance{Params: params, Inputs: randPoints(n, d, int64(i*burst+j+1))}
			if j%2 == 1 {
				inst.Protocol = multiplex.ProtocolVector
			}
			id, _, err := srv.Submit(inst)
			if err != nil {
				b.Fatal(err)
			}
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				st, terminal, err := srv.Watch(id, 120*time.Second)
				if err != nil {
					errs <- err
					return
				}
				if !terminal || st.State != service.StateDecided {
					errs <- fmt.Errorf("instance %d: state %v err %v", id, st.State, st.Err)
				}
			}(id)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(burst)*float64(b.N)/b.Elapsed().Seconds(), "instances/sec")
}
