// Command benchmark is the repository's benchmark: four named workloads
// driven end to end (through the HTTP API of the resident service, or
// through core.Run on the simulator), every decided instance audited, and a
// separate traced pass that attributes the time to layers from outside.
// README.md explains the workloads, the metrics and the predictions.
//
//	go run ./benchmark -workload svc-open -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -repeat 2 -check
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// specPath is where -check finds the bounds; the command runs from the root
// of the checkout.
const specPath = "BENCHMARK.json"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
		seed    = fs.Int64("seed", 1, "input seed: instance k of a workload is a pure function of (seed, workload, k)")
		seconds = fs.Float64("seconds", 20, "length of the timed window of each run")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced pass, per-layer metrics")
		scale   = fs.String("scale", "full", "full: run for -seconds; smoke: a few instances per workload, for tests")
		repeat  = fs.Int("repeat", 1, "run each workload this many times and report median and quartiles per metric")
		check   = fs.Bool("check", false, "with -repeat N >= 2: fail when the two halves of the runs disagree by more than the bounds in "+specPath)
		outDir  = fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, trace-<workload>.json and the journals of svc-durable")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 1
	}
	if fs.NArg() > 0 {
		return fail("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 || *scale != "full" && *scale != "smoke" || *repeat < 1 || *seconds <= 0 {
		return fail("need -trace 0|1, -scale full|smoke, -repeat >= 1, -seconds > 0")
	}
	selected := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			return fail("unknown workload %q (have %s)", *name, workloadNames())
		}
		selected = []workload{*w}
	}
	var bounds []specMetric
	if *check {
		if *repeat < 2 || *trace != 0 {
			return fail("-check compares end-to-end runs: it needs -repeat >= 2 and -trace 0")
		}
		spec, err := loadSpec(specPath)
		if err != nil {
			return fail("%v", err)
		}
		bounds = spec.EndToEnd
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *scale == "smoke", outDir: *outDir}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fail("%v", err)
	}

	defs, runOne := endToEnd, runEndToEnd
	if *trace == 1 {
		defs, runOne = perLayer, runTraced
	}
	report := resultFile{Env: fingerprint(o.outDir)}
	var finals []*runResult
	exit := 0
	for i := range selected {
		w := &selected[i]
		var runs []*runResult
		for r := 0; r < *repeat; r++ {
			res, err := runOne(w, o)
			if err != nil {
				// An invalid run reports no metrics at all.
				return fail("%v", err)
			}
			printRun(stdout, res)
			runs = append(runs, res)
			report.Runs = append(report.Runs, res)
		}
		if *repeat > 1 {
			printQuartiles(stdout, w.name, runs)
		}
		for _, msg := range disagreements(runs, bounds) {
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", w.name, msg)
			exit = 1
		}
		final := medianRun(runs)
		if !final.Correct {
			fmt.Fprintf(stderr, "benchmark: %s: %d of %d instances failed: %v\n", w.name, final.Failed, final.Attempted, final.Failures)
			exit = 1
		}
		finals = append(finals, final)
	}
	if err := report.write(filepath.Join(o.outDir, "result.json")); err != nil {
		return fail("%v", err)
	}
	// The contract line: one JSON object per workload, the last line of
	// standard output belonging to the last workload run.
	for _, f := range finals {
		if err := printContract(stdout, f, defs); err != nil {
			return fail("%v", err)
		}
	}
	return exit
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printRun prints every metric of one run by name, with its unit.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "# %s seed=%d scale=%s trace=%d: attempted=%d decided=%d failed=%d\n",
		r.Workload, r.Seed, r.Scale, r.Trace, r.Attempted, r.Decided, r.Failed)
	for _, name := range sortedNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-40s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, m.Samples)
	}
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the acceptance rule for run-to-run spread is stated in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// printQuartiles reports, per metric, the median and quartiles over the
// repeated runs and the interquartile spread as a share of the median.
func printQuartiles(w io.Writer, workload string, runs []*runResult) {
	fmt.Fprintf(w, "# %s over %d runs: median [q1, q3] spread\n", workload, len(runs))
	for _, name := range sortedNames(runs[0].Metrics) {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[name].Value
		}
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-40s %14.4f [%.4f, %.4f] %-6s spread=%.4f\n",
			name, q2, q1, q3, runs[0].Metrics[name].Unit, ratio(q3-q1, math.Abs(q2)))
	}
}

// medianRun folds repeated runs into one: per metric the median, counts
// summed, correct only if every run was.
func medianRun(runs []*runResult) *runResult {
	f := *runs[0]
	f.Metrics = make(map[string]metric, len(runs[0].Metrics))
	f.Attempted, f.Decided, f.Failed, f.Failures = 0, 0, 0, nil
	for _, r := range runs {
		f.Attempted += r.Attempted
		f.Decided += r.Decided
		f.Failed += r.Failed
		f.Correct = f.Correct && r.Correct
		f.Failures = append(f.Failures, r.Failures...)
	}
	for name, m := range runs[0].Metrics {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[name].Value
		}
		m.Value = median(xs)
		f.Metrics[name] = m
	}
	return &f
}

// disagreements compares the medians of the first and the second half of
// the runs, metric by metric, against the bounds of BENCHMARK.json. Two sets
// of runs of one commit must agree within the bound in either direction.
func disagreements(runs []*runResult, bounds []specMetric) []string {
	if len(bounds) == 0 {
		return nil
	}
	first, second := medianRun(runs[:len(runs)/2]), medianRun(runs[len(runs)/2:])
	var msgs []string
	for _, b := range bounds {
		a, c := first.Metrics[b.Name].Value, second.Metrics[b.Name].Value
		if math.Abs(c-a) > b.Bound*math.Abs(a) {
			msgs = append(msgs, fmt.Sprintf("%s: run sets disagree: %.4f vs %.4f %s (bound %.0f%%)",
				b.Name, a, c, b.Unit, 100*b.Bound))
		}
	}
	return msgs
}

// printContract prints the machine-readable result line: the declared
// metrics of this mode and nothing else, values with all their digits.
func printContract(w io.Writer, r *runResult, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		m := r.Metrics[d.name]
		line.Metrics[d.name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// environment is the fingerprint recorded next to every result.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_sha"`
	WALDirFS   string `json:"wal_dir_fs"`
}

// resultFile is what -out/result.json holds.
type resultFile struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func (f *resultFile) write(path string) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fingerprint(walParent string) environment {
	env := environment{
		CPUModel:   "unknown",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		WALDirFS:   fsType(walParent),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Revision = s.Value
			}
		}
	}
	return env
}

// fsType names the filesystem under dir, where the journals are fsynced.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	default:
		return fmt.Sprintf("0x%X", uint32(st.Type))
	}
}
