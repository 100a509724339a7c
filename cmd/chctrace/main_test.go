package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chc"
)

// crashRun is a small instance with one process crashing mid-run.
var crashRun = chc.RunConfig{
	Params: chc.Params{
		N: 5, F: 1, D: 2,
		Epsilon:    0.1,
		InputLower: 0, InputUpper: 10,
	},
	Inputs: []chc.Point{
		chc.NewPoint(1, 1), chc.NewPoint(9, 2), chc.NewPoint(5, 9),
		chc.NewPoint(3, 4), chc.NewPoint(7, 6),
	},
	Faulty:  []chc.ProcID{2},
	Crashes: []chc.CrashPlan{{Proc: 2, AfterSends: 15}},
	Seed:    1,
}

// writeTrace produces a trace file by running a consensus instance.
func writeTrace(t *testing.T, path string, cfg chc.RunConfig) {
	t.Helper()
	result, err := chc.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}()
	if err := chc.WriteTraceJSON(f, result); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	writeTrace(t, path, crashRun)
	var buf bytes.Buffer
	if err := run([]string{path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"row stochastic", "lemma 3", "theorem 1", "agreement", "per-round disagreement",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeSkipVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	writeTrace(t, path, crashRun)
	var buf bytes.Buffer
	if err := run([]string{"-verify", "0", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "theorem 1") {
		t.Error("verify=0 should skip Theorem 1")
	}
}

// TestDisagreementEndsAtDecisionRound pins the decision round as the last
// line of the per-round series when the print step (t_end/16) does not
// divide t_end: n=6, d=2, ε=0.1 gives t_end = 37 and step 2.
func TestDisagreementEndsAtDecisionRound(t *testing.T) {
	cfg := chc.RunConfig{
		Params: chc.Params{
			N: 6, F: 1, D: 2,
			Epsilon:    0.1,
			InputLower: 0, InputUpper: 10,
		},
		Inputs: []chc.Point{
			chc.NewPoint(1, 1), chc.NewPoint(9, 2), chc.NewPoint(5, 9),
			chc.NewPoint(3, 4), chc.NewPoint(7, 6), chc.NewPoint(2, 7),
		},
		Seed: 1,
	}
	tEnd := cfg.Params.TEnd()
	if tEnd <= 16 || tEnd%(tEnd/16) == 0 {
		t.Fatalf("t_end = %d does not exercise a step that misses it", tEnd)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	writeTrace(t, path, cfg)
	var buf bytes.Buffer
	if err := run([]string{"-verify", "0", path}, &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if want := fmt.Sprintf("t=%-4d ", tEnd); !strings.HasPrefix(last, want) {
		t.Errorf("last disagreement line %q, want round %d:\n%s", last, tEnd, buf.String())
	}
}

func TestAnalyzeErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("missing argument should error")
	}
	if err := run([]string{"/does/not/exist.json"}, &buf); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{bad}, &buf); err == nil {
		t.Error("corrupt trace should error")
	}
}
