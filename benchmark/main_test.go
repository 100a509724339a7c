package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"

	"chc/internal/geom"
)

// contractLine is the machine-readable last line of standard output.
type contractLine struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// smoke runs one workload at -scale smoke and returns its contract line.
func smoke(t *testing.T, workload, trace string) contractLine {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "-scale", "smoke", "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var line contractLine
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s trace=%s: last line is not the contract object: %v", workload, trace, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("%s trace=%s: contract line lacks a key: %s", workload, trace, lines[len(lines)-1])
	}
	if !*line.Correct || *line.Attempted < 1 || *line.Failed != 0 {
		t.Fatalf("%s trace=%s: correct=%v attempted=%d failed=%d", workload, trace, *line.Correct, *line.Attempted, *line.Failed)
	}
	return line
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires the line to carry exactly the declared metrics, each
// finite and with its declared unit.
func checkMetrics(t *testing.T, where string, line contractLine, want []specMetric) {
	t.Helper()
	if len(line.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", where, len(line.Metrics), len(want))
	}
	for _, m := range want {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q breaks the naming rule", where, m.Name)
		}
		got, ok := line.Metrics[m.Name]
		switch {
		case !ok || got.Value == nil:
			t.Errorf("%s: metric %s missing", where, m.Name)
		case math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0):
			t.Errorf("%s: metric %s = %v", where, m.Name, *got.Value)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", where, m.Name, got.Unit, m.Unit)
		}
	}
}

// TestSmoke runs every workload end to end and traced at smoke scale and
// holds the output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../" + specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the program has %d, %d and %d",
			len(spec.Workloads), len(spec.EndToEnd), len(spec.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for _, w := range spec.Workloads {
		if findWorkload(w.Name) == nil || !nameRE.MatchString(w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q", w.Name)
		}
		e2e := smoke(t, w.Name, "0")
		checkMetrics(t, w.Name+" end to end", e2e, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if v := e2e.Metrics[m.Name].Value; v != nil && *v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, *v)
			}
		}
		traced := smoke(t, w.Name, "1")
		checkMetrics(t, w.Name+" traced", traced, spec.PerLayer)
		if w.Name != "geom-cold" {
			continue
		}
		// The simulator is deterministic per seed: the same seed must give
		// the same inputs and so exactly the same message count.
		again := smoke(t, w.Name, "1")
		a, b := *traced.Metrics["dist.sends_per_instance"].Value, *again.Metrics["dist.sends_per_instance"].Value
		if a != b || a == 0 {
			t.Errorf("dist.sends_per_instance differs between two runs of one seed: %v vs %v", a, b)
		}
	}
}

// TestAuditCountsCorruptedVertex proves the audit is live: a decided
// instance passes, and the same instance with one output vertex pushed
// outside the input hull is counted in failed_share.
func TestAuditCountsCorruptedVertex(t *testing.T) {
	w := findWorkload("geom-cold")
	d := &libDriver{w: w, seed: 3}
	outputs, err := d.decide(0)
	if err != nil {
		t.Fatal(err)
	}
	p := &pass{outcomes: []outcome{{k: 0, outputs: outputs}}}
	p.decided, p.failed, p.failures = auditAll(w, 3, p.outcomes)
	if p.failed != 0 || p.failedShare() != 0 {
		t.Fatalf("clean instance failed the audit: %v", p.failures)
	}

	verts := outputs[0]
	verts[0] = geom.Point{inputUpper + 5, inputUpper + 5, inputUpper + 5}
	p = &pass{outcomes: []outcome{{k: 0, outputs: outputs}}}
	p.decided, p.failed, p.failures = auditAll(w, 3, p.outcomes)
	if p.decided != 0 || p.failed != 1 || p.failedShare() != 1 {
		t.Fatalf("corrupted instance: decided=%d failed=%d failed_share=%v", p.decided, p.failed, p.failedShare())
	}
	if !strings.Contains(p.failures[0], "validity") {
		t.Fatalf("want a validity violation, got %q", p.failures[0])
	}
}

// TestGeneralPosition pins the margin of the d >= 3 inputs: the determinant
// is the one it claims to be, a flat set is refused, and what the generator
// hands out keeps the margin.
func TestGeneralPosition(t *testing.T) {
	pts := []geom.Point{{1, 1, 1}, {3, 1, 1}, {1, 4, 1}, {2, 2, 6}, {5, 5, 1}}
	if det := edgeDet(pts, []int{0, 1, 2, 3}); math.Abs(det-30) > 1e-12 {
		t.Fatalf("edgeDet = %v, want 30 (edges 2, 3 and 5 long, at right angles up to shear)", det)
	}
	if inGeneralPosition(pts, 3) {
		t.Fatal("points 0, 1, 2 and 4 lie in the plane z = 1, yet the set passed")
	}
	for k := -3; k < 200; k++ {
		if !inGeneralPosition(genInputs(7, "geom-cold", k, 6, 3), 3) {
			t.Fatalf("instance %d of geom-cold is not in general position", k)
		}
	}
}

// TestInputsArePure pins the generator: inputs depend on (seed, workload, k)
// and on nothing else.
func TestInputsArePure(t *testing.T) {
	a := genInputs(1, "svc-open", 41, 6, 2)
	b := genInputs(1, "svc-open", 41, 6, 2)
	for i := range a {
		if !geom.Equal(a[i], b[i], 0) {
			t.Fatalf("instance 41 differs between two calls: %v vs %v", a[i], b[i])
		}
	}
	for _, other := range [][]geom.Point{
		genInputs(2, "svc-open", 41, 6, 2), genInputs(1, "svc-durable", 41, 6, 2), genInputs(1, "svc-open", 42, 6, 2),
	} {
		if geom.Equal(a[0], other[0], 0) {
			t.Fatalf("changing one of (seed, workload, k) left the inputs at %v", a[0])
		}
	}
}
