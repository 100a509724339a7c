package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
)

// quickTable runs experiment id in quick mode once per test binary: the
// registry sweep and the per-experiment assertions below judge the same
// tables, so asserting more columns costs no second run.
func quickTable(t *testing.T, id string) *Table {
	t.Helper()
	if table, ok := quickTables[id]; ok {
		return table
	}
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %s", id)
	}
	table, err := e.Run(Options{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickTables[id] = table
	return table
}

var quickTables = map[string]*Table{}

// TestAllExperimentsQuick runs the full registry in quick mode and sanity-
// checks every table's shape and key invariants.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			table := quickTable(t, e.ID)
			if table.ID != e.ID {
				t.Errorf("table ID %q != %q", table.ID, e.ID)
			}
			if len(table.Rows) == 0 {
				t.Fatal("empty table")
			}
			for i, row := range table.Rows {
				if len(row) != len(table.Header) {
					t.Errorf("row %d has %d cells for %d headers", i, len(row), len(table.Header))
				}
			}
			var buf bytes.Buffer
			if err := table.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Error("rendered table missing ID")
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("e3"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID should fail")
	}
}

// TestE3AllPass parses the E3 table and requires 100% pass rates — this is
// the paper's Theorem 2 and must never regress.
func TestE3AllPass(t *testing.T) {
	table := quickTable(t, "E3")
	for _, row := range table.Rows {
		for col := 2; col <= 5; col++ {
			parts := strings.Split(row[col], "/")
			if len(parts) != 2 || parts[0] != parts[1] {
				t.Errorf("scheduler %s column %d: %s is not a full pass", row[0], col, row[col])
			}
		}
	}
}

// requireFullVerdicts fails for every passed/runs cell of the table that is
// not a full, non-empty pass, and returns the table's total run count.
func requireFullVerdicts(t *testing.T, table *Table) int {
	t.Helper()
	runsCol := slices.Index(table.Header, "runs")
	if runsCol < 0 {
		t.Fatalf("%s has no runs column", table.ID)
	}
	total := 0
	for _, row := range table.Rows {
		runs, err := strconv.Atoi(row[runsCol])
		if err != nil {
			t.Fatalf("%s row %v: bad run count %q", table.ID, row[:runsCol], row[runsCol])
		}
		total += runs
		verdicts := 0
		for col, cell := range row {
			passed, of, ok := strings.Cut(cell, "/")
			if _, err := strconv.Atoi(passed); !ok || err != nil {
				continue
			}
			verdicts++
			if passed != of || of != row[runsCol] {
				t.Errorf("%s row %v column %q: %s is not a full pass", table.ID, row[:runsCol], table.Header[col], cell)
			}
		}
		if verdicts == 0 {
			t.Errorf("%s row %v has no verdict column", table.ID, row[:runsCol])
		}
	}
	return total
}

// TestFaultMatricesAllPass requires every verdict column of every matrix on
// the shared runner to be full on every cell — termination, validity,
// ε-agreement and optimality (or their trace-stream counterparts) must
// survive chaos, kill-and-restart, disk, wire and WAN faults; a "k/runs" with
// k < runs is a Theorem 2 violation, not a statistic — over at least the run
// counts the acceptance criteria of those subsystems were stated on (E17: 20
// seed×schedule cells).
func TestFaultMatricesAllPass(t *testing.T) {
	for _, m := range []struct {
		id            string
		rows, minRuns int
	}{
		{"E16", 6, 12},
		{"E17", 5, 20},
		{"E19", 4, 4},
		{"E20", 6, 18},
		{"E21", 5, 15},
		{"E23", 6, 6},
	} {
		t.Run(m.id, func(t *testing.T) {
			table := quickTable(t, m.id)
			if len(table.Rows) != m.rows {
				t.Errorf("%d rows, want %d", len(table.Rows), m.rows)
			}
			if runs := requireFullVerdicts(t, table); runs < m.minRuns {
				t.Errorf("only %d runs, acceptance requires >= %d", runs, m.minRuns)
			}
		})
	}
}

// TestMatrixTallyGoesRed drives the runner with a fake run that, in the cell
// with a chaos profile, returns outputs violating Theorem 2 — p1 decides 20
// away from everyone else, outside the input hull, and p2 never decides — and
// requires the tally to show it: a runner that printed full columns no matter
// what would make the test above vacuous.
func TestMatrixTallyGoesRed(t *testing.T) {
	m := matrix{
		id: "T", title: "fake", labels: []string{"cell"},
		transport: engine.TransportChannel,
		params:    baseParams(5, 1, 2, 0.05),
		seeds:     2,
		seed:      func(s int) int64 { return int64(s) },
		verdicts:  []verdict{vTerminated, vValidity, vAgreement},
		counters:  []counter{netCounter("retransmits", func(n *dist.NetStats) int64 { return n.Retransmits })},
		cells: []cell{
			{labels: []string{"good"}},
			{labels: []string{"bad"}, env: runtime.Env{Chaos: &chaos.Profile{Drop: 0.5}}},
		},
		run: func(cfg core.RunConfig, opts engine.Options) (*core.RunResult, error) {
			res := &core.RunResult{
				Params:  cfg.Params.WithDefaults(),
				Outputs: map[dist.ProcID]*polytope.Polytope{},
				Crashed: map[dist.ProcID]bool{},
				Faulty:  map[dist.ProcID]bool{},
				Stats:   &dist.Stats{Net: &dist.NetStats{Retransmits: 7}},
			}
			for i := range cfg.Inputs {
				res.Outputs[dist.ProcID(i)] = polytope.FromPoint(cfg.Inputs[0])
			}
			if opts.Chaos != nil {
				res.Outputs[1] = polytope.FromPoint(geom.NewPoint(cfg.Inputs[0][0]+20, cfg.Inputs[0][1]))
				delete(res.Outputs, 2)
			}
			return res, nil
		},
	}
	table, err := m.table()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"good", "2", "2/2", "2/2", "2/2", "14"},
		{"bad", "2", "0/2", "0/2", "0/2", "14"},
	}
	if !reflect.DeepEqual(table.Rows, want) {
		t.Errorf("rows = %v, want %v", table.Rows, want)
	}
	if !slices.Equal(table.Header, []string{"cell", "runs", "terminated", "validity", "ε-agreement", "retransmits"}) {
		t.Errorf("header = %v", table.Header)
	}
	m.cells[1].check = func(*cellRun) error { return errors.New("hard check") }
	if _, err := m.table(); err == nil || !strings.Contains(err.Error(), "T bad seed 0: hard check") {
		t.Errorf("a failing cell check must abort the matrix with cell and seed named, got %v", err)
	}
}

// TestE10Boundary requires: all trials non-empty at the bound, and at least
// one empty below it.
func TestE10Boundary(t *testing.T) {
	table := quickTable(t, "E10")
	for _, row := range table.Rows {
		n, _ := strconv.Atoi(row[2])
		d, _ := strconv.Atoi(row[0])
		f, _ := strconv.Atoi(row[1])
		bound := (d+2)*f + 1
		parts := strings.Split(row[5], "/")
		nonEmpty, _ := strconv.Atoi(parts[0])
		total, _ := strconv.Atoi(parts[1])
		if n >= bound && nonEmpty != total {
			t.Errorf("d=%d f=%d n=%d: %d/%d non-empty at the bound, want all", d, f, n, nonEmpty, total)
		}
		if n < bound && nonEmpty == total {
			t.Errorf("d=%d f=%d n=%d: all intersections non-empty below the bound (adversary should win)", d, f, n)
		}
	}
}

// TestE7WithinBeta requires every sweep row to be within its β.
func TestE7WithinBeta(t *testing.T) {
	table := quickTable(t, "E7")
	for _, row := range table.Rows {
		if !strings.HasPrefix(row[4], "true") {
			t.Errorf("cost %s β %s: bound violated (%s)", row[0], row[1], row[4])
		}
	}
}
