package experiments

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"chc/internal/core"
	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/runtime"
	"chc/internal/telemetry"
	"chc/internal/wal"
)

// matrix is a fault matrix as data: every cell × seed is one Algorithm CC
// instance run through core.Run in the cell's environment, judged by the
// verdict columns and summed into the counter columns. The rendered header is
// labels, "runs", the verdicts, the counters. Adding a fault family is a new
// cell table; nothing here assembles a cluster.
type matrix struct {
	id, title string
	labels    []string // headers of the cells' label columns
	notes     []string

	transport engine.Transport
	params    core.Params
	seeds     int
	seed      func(s int) int64 // the matrix's seed rule

	// traced installs a memory trace sink around every run and audits the
	// paper's bounds from the captured events (cellRun.audit).
	traced bool

	cells    []cell
	verdicts []verdict
	counters []counter

	// run is core.Run; the runner's own test substitutes a fake.
	run func(core.RunConfig) (*core.RunResult, error)
}

// cell is one row: the adversary as a runtime.Env literal plus the fault
// plans that are not environment.
type cell struct {
	labels []string
	// env is stamped per run: every seed in it becomes the run's seed, and
	// WALDir a temp directory the runner owns when anything in the cell needs
	// a journal.
	env runtime.Env
	// disk injects storage faults under the journals (Env carries a
	// filesystem, not a plan, so the runner builds WALFS per seed).
	disk diskfault.Plan
	// crashes are crash-stop faults; their processes are the run's F.
	crashes []dist.CrashPlan
	// check is the cell's hard assertion on one run — an error aborts the
	// experiment instead of lowering a tally.
	check func(*cellRun) error
}

// cellRun is one finished run as the columns and checks see it.
type cellRun struct {
	cfg   *core.RunConfig // as run: Env seeds stamped, WALDir set
	res   *core.RunResult
	net   *dist.NetStats
	audit telemetryCell // traced matrices only
}

// verdict is a pass/fail column, rendered as passed/runs.
type verdict struct {
	name string
	ok   func(*cellRun) bool
}

// counter is an evidence column: a per-run count summed over the cell's runs
// (or, with max, the largest).
type counter struct {
	name string
	of   func(*cellRun) int64
	max  bool
}

// Theorem 2 judged from the RunResult.
var (
	// A fail-stopped node is the only process outside F allowed to miss its
	// decision; how many may fail-stop is the cell's check.
	vTerminated = verdict{"terminated", func(r *cellRun) bool {
		undecided := 0
		for i := 0; i < r.res.Params.N; i++ {
			id := dist.ProcID(i)
			if _, ok := r.res.Outputs[id]; !ok && !slices.Contains(r.cfg.Faulty, id) {
				undecided++
			}
		}
		return int64(undecided) == r.net.FailStops
	}}
	vValidity = verdict{"validity", func(r *cellRun) bool {
		return core.CheckValidity(r.res, r.cfg) == nil
	}}
	vAgreement = verdict{"ε-agreement", func(r *cellRun) bool {
		rep, err := core.CheckAgreement(r.res)
		return err == nil && rep.Holds
	}}
	vOptimality = verdict{"optimality", func(r *cellRun) bool {
		return core.CheckOptimality(r.res) == nil
	}}
)

// The same guarantees judged from the trace stream (traced matrices).
var tracedVerdicts = []verdict{
	{"decided ≤ t_end", func(r *cellRun) bool { return r.audit.boundOK }},
	{"d_H ≤ Ω·(1-1/n)^t", func(r *cellRun) bool { return r.audit.envelopeOK }},
	{"final d_H ≤ ε", func(r *cellRun) bool { return r.audit.agreeOK }},
}

// restartP0 kills p0 after 20 sends — past its round 0, so the WAL replay
// re-emits a trace event the audits can see — and relaunches it 5 ms later.
var restartP0 = []runtime.RestartPlan{{Proc: 0, KillAfterSends: 20, Downtime: 5 * time.Millisecond}}

// netCounter is a counter column read from the run's link-layer statistics.
func netCounter(name string, of func(*dist.NetStats) int64) counter {
	return counter{name: name, of: func(r *cellRun) int64 { return of(r.net) }}
}

// omega is Ω of equation (18): the worst-case initial disagreement over the
// input domain, √d·n·U.
func omega(p core.Params) float64 {
	return math.Sqrt(float64(p.D)) * float64(p.N) * p.InputUpper
}

// table runs every cell over the matrix's seeds and renders the rows.
func (m matrix) table() (*Table, error) {
	t := &Table{ID: m.id, Title: m.title, Notes: m.notes}
	t.Header = append(append(t.Header, m.labels...), "runs")
	for _, v := range m.verdicts {
		t.Header = append(t.Header, v.name)
	}
	for _, k := range m.counters {
		t.Header = append(t.Header, k.name)
	}
	for _, c := range m.cells {
		passed := make([]int, len(m.verdicts))
		totals := make([]int64, len(m.counters))
		for s := 0; s < m.seeds; s++ {
			seed := m.seed(s)
			if err := m.runOne(c, seed, passed, totals); err != nil {
				return nil, fmt.Errorf("%s %s seed %d: %w", m.id, strings.Join(c.labels, "/"), seed, err)
			}
		}
		row := append(append([]string(nil), c.labels...), fmtI(m.seeds))
		for _, p := range passed {
			row = append(row, fmt.Sprintf("%d/%d", p, m.seeds))
		}
		for _, total := range totals {
			row = append(row, fmt.Sprintf("%d", total))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// runOne runs one cell at one seed and folds it into the cell's tallies. The
// temp journal directory outlives the check and the columns, so they may
// inspect what the run left on disk.
func (m matrix) runOne(c cell, seed int64, passed []int, totals []int64) error {
	env := c.env
	env.ChaosSeed, env.WANSeed = seed, seed
	if env.NetFaults != nil {
		plan := *env.NetFaults
		plan.Seed = seed
		env.NetFaults = &plan
	}
	if c.disk.Enabled() {
		plan := c.disk
		plan.Seed = seed
		env.WALFS = diskfault.New(wal.OSFS(), plan)
	}
	// The fields Env.Validate answers with "requires WALDir".
	if len(env.Restarts) > 0 || env.WALFS != nil || env.Checkpoint.Enabled() || env.Durability != runtime.FailStop {
		dir, err := os.MkdirTemp("", "chc-"+m.id+"-*")
		if err != nil {
			return err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		env.WALDir = dir
	}
	var sink *telemetry.MemorySink
	if m.traced {
		sink = telemetry.NewMemorySink()
		prev := telemetry.SetSink(sink)
		defer telemetry.SetSink(prev)
	}

	cfg := core.RunConfig{
		Params:    m.params,
		Inputs:    randInputs(m.params.N, m.params.D, 0, 10, seed),
		Crashes:   c.crashes,
		Transport: m.transport,
		Timeout:   120 * time.Second,
		Env:       env,
	}
	for _, cp := range c.crashes {
		cfg.Faulty = append(cfg.Faulty, cp.Proc)
	}
	run := m.run
	if run == nil {
		run = core.Run
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	// A process that crashed — by plan, or fail-stopped on a dead disk — used
	// one of the model's f crash faults: the checkers hold only the others to
	// the correct-process obligations.
	for id := range res.Crashed {
		res.Faulty[id] = true
	}
	r := &cellRun{cfg: &cfg, res: res, net: res.Stats.Net}
	if m.traced {
		if r.audit, err = auditTelemetryEvents(sink, res.Params, omega(res.Params), res.Params.TEnd()); err != nil {
			return err
		}
	}
	if c.check != nil {
		if err := c.check(r); err != nil {
			return err
		}
	}
	for i, v := range m.verdicts {
		if v.ok(r) {
			passed[i]++
		}
	}
	for i, k := range m.counters {
		if n := k.of(r); !k.max {
			totals[i] += n
		} else if n > totals[i] {
			totals[i] = n
		}
	}
	return nil
}
