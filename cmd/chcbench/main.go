// Command chcbench regenerates the experiment tables of EXPERIMENTS.md
// (one experiment per theorem/bound of the paper; see DESIGN.md for the
// index) and records machine-readable performance baselines.
//
// Usage:
//
//	chcbench                  # run every experiment, print markdown
//	chcbench -run E1,E4       # run selected experiments
//	chcbench -quick           # small grids (seconds instead of minutes)
//	chcbench -out results.md  # write to a file instead of stdout
//
// Benchmark mode (see internal/benchsuite for the case list):
//
//	chcbench -benchjson BENCH_abc1234.json
//	    run the benchmark suite, write ns/op + allocs/op per case as JSON
//	chcbench -benchjson /tmp/now.json -baseline BENCH_seed.json -max-regress 0.25
//	    additionally compare against a committed baseline and exit non-zero
//	    on any case regressing by more than 25% ns/op
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"chc/internal/benchsuite"
	"chc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chcbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("chcbench", flag.ContinueOnError)
	var (
		runIDs     = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		quick      = fs.Bool("quick", false, "use small grids and trial counts")
		out        = fs.String("out", "", "write output to this file instead of stdout")
		format     = fs.String("format", "md", "output format: md|csv")
		benchJSON  = fs.String("benchjson", "", "run the benchmark suite and write JSON results to this file")
		benchOnly  = fs.String("bench", "", "comma-separated benchmark case names (default: all)")
		baseline   = fs.String("baseline", "", "baseline BENCH_*.json to compare against (requires -benchjson)")
		maxRegress = fs.Float64("max-regress", 0.25, "allowed fractional ns/op regression vs -baseline")
		revision   = fs.String("revision", "", "revision label recorded in the JSON header")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchJSON != "" {
		return runBenchSuite(*benchJSON, *benchOnly, *baseline, *maxRegress, *revision)
	}

	var selected []experiments.Experiment
	if *runIDs == "" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				all := experiments.All()
				return fmt.Errorf("unknown experiment %q (have %s..%s)", id, all[0].ID, all[len(all)-1].ID)
			}
			selected = append(selected, e)
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "chcbench: close:", cerr)
			}
		}()
		w = f
	}

	render := (*experiments.Table).Render
	switch *format {
	case "md":
	case "csv":
		render = (*experiments.Table).RenderCSV
	default:
		return fmt.Errorf("unknown format %q (want md or csv)", *format)
	}

	opt := experiments.Options{Quick: *quick}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	if *format == "md" {
		fmt.Fprintf(w, "# Experiment results (%s mode)\n\n", mode)
	}
	for _, e := range selected {
		start := time.Now()
		table, err := e.Run(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := render(table, w); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "chcbench: %s done in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// runBenchSuite measures the benchsuite cases, writes the JSON report, and
// optionally enforces a regression bound against a committed baseline.
func runBenchSuite(outPath, only, baselinePath string, maxRegress float64, revision string) error {
	var names map[string]bool
	if only != "" {
		names = make(map[string]bool)
		for _, n := range strings.Split(only, ",") {
			names[strings.TrimSpace(n)] = true
		}
	}
	if revision == "" {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			revision = strings.TrimSpace(string(out))
		}
	}
	start := time.Now()
	results := benchsuite.Run(names)
	for _, r := range results {
		fmt.Fprintf(os.Stderr, "chcbench: %-24s %12.0f ns/op %8d allocs/op %10d B/op\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
	}
	report := benchsuite.NewReport(revision, results)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "chcbench: wrote %s in %v\n", outPath, time.Since(start).Round(time.Millisecond))
	if baselinePath == "" {
		return nil
	}
	baseData, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("read baseline: %w", err)
	}
	var base benchsuite.Report
	if err := json.Unmarshal(baseData, &base); err != nil {
		return fmt.Errorf("parse baseline %s: %w", baselinePath, err)
	}
	if errs := benchsuite.Compare(base.Benchmarks, results, maxRegress); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "chcbench: REGRESSION:", e)
		}
		return fmt.Errorf("%d benchmark regression(s) vs %s", len(errs), baselinePath)
	}
	fmt.Fprintf(os.Stderr, "chcbench: no ns/op regression > %.0f%% vs %s\n", maxRegress*100, baselinePath)
	return nil
}
