package experiments

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"chc/internal/byzantine"
	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/multiplex"
	"chc/internal/polytope"
	"chc/internal/runtime"
	"chc/internal/service"
)

// E22ResidentService exercises the consensus-as-a-service stack: a resident
// daemon (one warm TCP cluster) serving a stream of heterogeneous instances
// — Algorithm CC, the vector baseline, and Byzantine-compiled cells — with
// admission control, seeded chaos, and one process killed and relaunched
// from its WAL mid-stream. The paper's protocol is one-shot; the service
// refactor must preserve its guarantees per instance while the cluster
// itself outlives every instance: every admitted instance decides on all n
// processes with Theorem 2 validity and ε-agreement, overload is shed with
// 429s rather than accepted-and-dropped work, and the graceful drain leaves
// zero undecided instances behind.
func E22ResidentService(opt Options) (*Table, error) {
	const n, f, eps = 5, 1, 0.05
	stream := opt.trials(9, 18)
	chaosProf := chaos.Profile{Drop: 0.05, Dup: 0.02, DelayMax: 2 * time.Millisecond}
	type cellCase struct {
		name      string
		chaos     *chaos.Profile
		walDir    bool
		restarts  bool
		maxActive int
		maxQueue  int
		// overload submits a second burst beyond active+queue capacity and
		// requires admission control to shed it with ErrOverloaded.
		overload bool
	}
	cells := []cellCase{
		{name: "tcp stream"},
		{name: "tcp stream + chaos", chaos: &chaosProf},
		{name: "tcp + chaos + restart from WAL", chaos: &chaosProf, walDir: true, restarts: true},
		{name: "overloaded daemon (MaxActive=2, MaxQueue=2)", maxActive: 2, maxQueue: 2, overload: true},
	}
	t := &Table{
		ID:     "E22",
		Title:  fmt.Sprintf("Resident-service matrix: heterogeneous instance stream over one warm TCP cluster (n=%d, f=%d)", n, f),
		Header: []string{"cell", "submitted", "decided", "validity", "ε-agreement", "429s", "resumes", "undecided after drain"},
		Notes: []string{
			"Each cell is ONE daemon serving the whole stream: the cluster, its TCP mesh and (when enabled) its WALs outlive every instance. Decided counts instances that reached all-n decisions; validity/ε-agreement apply the Theorem 2 checks per instance (correct participants only in Byzantine cells). The restart cell kills process 2 mid-stream and relaunches it from its journal — instances admitted while it was down must still decide, so resumes must be non-zero. The overload cell submits past active+queue capacity and requires the surplus to be rejected with 429, never admitted and dropped.",
		},
	}
	for _, cc := range cells {
		row, err := runServiceCell(cc.name, n, f, eps, stream, serviceCellConfig{
			chaos:     cc.chaos,
			walDir:    cc.walDir,
			restarts:  cc.restarts,
			maxActive: cc.maxActive,
			maxQueue:  cc.maxQueue,
			overload:  cc.overload,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

type serviceCellConfig struct {
	chaos     *chaos.Profile
	walDir    bool
	restarts  bool
	maxActive int
	maxQueue  int
	overload  bool
}

// runServiceCell drives one daemon through a heterogeneous stream and
// verifies the per-instance Theorem 2 properties plus the service-level
// admission and drain contracts.
func runServiceCell(name string, n, f int, eps float64, stream int, cc serviceCellConfig) ([]string, error) {
	cfg := service.Config{
		N:         n,
		Transport: engine.TransportTCP,
		Env:       runtime.Env{Chaos: cc.chaos, ChaosSeed: 7},
		MaxActive: cc.maxActive,
		MaxQueue:  cc.maxQueue,
		Retention: -1, // results must stay queryable for the post-drain audit
	}
	if cc.walDir {
		dir, err := os.MkdirTemp("", "chc-e22-*")
		if err != nil {
			return nil, err
		}
		defer func() { _ = os.RemoveAll(dir) }()
		cfg.WALDir = dir
	}
	if cc.restarts {
		cfg.Restarts = []runtime.RestartPlan{{Proc: 2, KillAfterSends: 150, Downtime: 20 * time.Millisecond}}
	}
	srv, err := service.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("E22 %s: %w", name, err)
	}
	defer srv.Close()

	type submission struct {
		id   int
		inst multiplex.Instance
	}
	var subs []submission
	rejects := 0
	submit := func(inst multiplex.Instance) error {
		for {
			id, _, err := srv.Submit(inst)
			if errors.Is(err, service.ErrOverloaded) {
				rejects++
				time.Sleep(10 * time.Millisecond)
				continue
			}
			if err != nil {
				return err
			}
			subs = append(subs, submission{id: id, inst: inst})
			return nil
		}
	}
	for k := 0; k < stream; k++ {
		inst := serviceInstance(n, f, eps, k)
		if err := submit(inst); err != nil {
			return nil, fmt.Errorf("E22 %s instance %d: %w", name, k, err)
		}
		if cc.restarts {
			// Stagger so the kill lands mid-stream: some instances decided
			// before the restart, some in flight, some admitted after.
			time.Sleep(15 * time.Millisecond)
		}
	}
	if cc.overload {
		// Burst past capacity without the retry loop: the surplus must be
		// shed at the front door.
		burst := cfg.MaxActive + cfg.MaxQueue + 4
		shed := 0
		for k := 0; k < burst; k++ {
			_, _, err := srv.Submit(serviceInstance(n, f, eps, stream+k))
			if errors.Is(err, service.ErrOverloaded) {
				shed++
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("E22 %s burst %d: %w", name, k, err)
			}
		}
		if shed == 0 {
			return nil, fmt.Errorf("E22 %s: burst of %d past capacity produced no 429s", name, burst)
		}
		rejects += shed
	}

	if err := srv.Drain(120 * time.Second); err != nil {
		return nil, fmt.Errorf("E22 %s drain: %w", name, err)
	}

	decided, valid, agree, undecided := 0, 0, 0, 0
	for _, sub := range subs {
		st, err := srv.Status(sub.id)
		if err != nil {
			return nil, fmt.Errorf("E22 %s status %d: %w", name, sub.id, err)
		}
		if st.State != service.StateDecided {
			undecided++
			continue
		}
		decided++
		audit, err := auditInstance(sub.inst, st.Result.Outputs, st.Result.Points)
		if err != nil {
			return nil, fmt.Errorf("E22 %s instance %d: %w", name, sub.id, err)
		}
		if audit.Valid {
			valid++
		}
		if audit.Agree {
			agree++
		}
	}
	if undecided > 0 {
		return nil, fmt.Errorf("E22 %s: %d instances undecided after drain", name, undecided)
	}
	resumes := srv.Session().Stats().Net.Resumes
	if cc.restarts && resumes == 0 {
		return nil, fmt.Errorf("E22 %s: restart cell recorded no link resumes", name)
	}
	return []string{
		name, fmtI(len(subs)),
		fmt.Sprintf("%d/%d", decided, len(subs)),
		fmt.Sprintf("%d/%d", valid, len(subs)),
		fmt.Sprintf("%d/%d", agree, len(subs)),
		fmtI(rejects),
		fmt.Sprintf("%d", resumes),
		fmtI(undecided),
	}, nil
}

// serviceInstance builds the kth instance of the heterogeneous stream:
// protocols rotate CC → vector → Byzantine, inputs vary by k.
func serviceInstance(n, f int, eps float64, k int) multiplex.Instance {
	d := 2
	inst := multiplex.Instance{
		Params: baseParams(n, f, d, eps),
		Inputs: randInputs(n, d, 0, 10, int64(31*k+5)),
	}
	switch k % 3 {
	case 1:
		inst.Protocol = multiplex.ProtocolVector
	case 2:
		inst.Protocol = multiplex.ProtocolByzantine
		behaviors := []byzantine.Behavior{
			byzantine.Silent, byzantine.IncorrectInput, byzantine.Equivocator, byzantine.Garbler,
		}
		inst.Faults = []byzantine.Fault{{
			Proc:     dist.ProcID(n - 1),
			Behavior: behaviors[(k/3)%len(behaviors)],
			Input:    geom.NewPoint(make([]float64, d)...),
		}}
	}
	return inst
}

// auditInstance applies the shared Theorem 2 audit (core.AuditOutputs) to the
// decisions of one instance of a heterogeneous batch or stream: the reference
// is the hull of the inputs at non-Byzantine processes, and a vector decision
// is a one-point polytope.
func auditInstance(inst multiplex.Instance, outputs map[dist.ProcID]*polytope.Polytope, points map[dist.ProcID]geom.Point) (core.OutputAudit, error) {
	var correct []geom.Point
	for i, in := range inst.Inputs {
		if !slices.ContainsFunc(inst.Faults, func(f byzantine.Fault) bool { return f.Proc == dist.ProcID(i) }) {
			correct = append(correct, in)
		}
	}
	ref, err := polytope.New(correct, geom.DefaultEps)
	if err != nil {
		return core.OutputAudit{}, err
	}
	outs := make([]*polytope.Polytope, 0, len(outputs)+len(points))
	for _, out := range outputs {
		outs = append(outs, out)
	}
	for _, pt := range points {
		outs = append(outs, polytope.FromPoint(pt))
	}
	return core.AuditOutputs(ref, outs, inst.Params.Epsilon)
}
