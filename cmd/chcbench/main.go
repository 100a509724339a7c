// Command chcbench regenerates the experiment tables of EXPERIMENTS.md
// (one experiment per theorem/bound of the paper; see DESIGN.md for the
// index).
//
// Usage:
//
//	chcbench                  # run every experiment, print markdown
//	chcbench -run E1,E4       # run selected experiments
//	chcbench -quick           # small grids (seconds instead of minutes)
//	chcbench -out results.md  # write to a file instead of stdout
//	chcbench -format csv      # CSV instead of markdown
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

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
		runIDs = fs.String("run", "", "comma-separated experiment IDs (default: all)")
		quick  = fs.Bool("quick", false, "use small grids and trial counts")
		out    = fs.String("out", "", "write output to this file instead of stdout")
		format = fs.String("format", "md", "output format: md|csv")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
