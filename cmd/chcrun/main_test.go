package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"chc"
	"chc/internal/telemetry"
)

func TestRunDefaults(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"convex hull consensus", "ε-agreement", "validity", "optimality", "messages"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "true") {
		t.Error("agreement should hold")
	}
}

func TestRunWithFaultsAndSchedulers(t *testing.T) {
	for _, sched := range []string{"random", "rr", "delay", "split"} {
		var buf bytes.Buffer
		args := []string{
			"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1",
			"-faulty", "2", "-crash", "2:5", "-sched", sched,
		}
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if !strings.Contains(buf.String(), "faulty: incorrect input") {
			t.Errorf("%s: faulty process not marked", sched)
		}
	}
}

func TestRunCorrectInputsModel(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "3", "-f", "1", "-d", "2", "-eps", "0.2", "-model", "correct"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "crash+correct-inputs") {
		t.Error("model not reported")
	}
}

func TestRunInProcTransport(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "4", "-f", "0", "-d", "1", "-eps", "0.5", "-transport", "inproc"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "outputs:") {
		t.Error("no outputs printed")
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	args := []string{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1", "-tracefile", path}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if parsed["n"] != float64(5) {
		t.Errorf("trace n = %v", parsed["n"])
	}
}

func TestRunByzantineMode(t *testing.T) {
	for _, behavior := range []string{"silent", "incorrect", "equivocator", "garbler"} {
		var buf bytes.Buffer
		args := []string{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.2", "-byz", behavior}
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", behavior, err)
		}
		out := buf.String()
		if !strings.Contains(out, "byzantine convex hull consensus") ||
			!strings.Contains(out, "validity    : ok") {
			t.Errorf("%s: unexpected output:\n%s", behavior, out)
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-byz", "weird"}, &buf); err == nil {
		t.Error("unknown byzantine behaviour should error")
	}
}

func TestRunChaosInProc(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1",
		"-transport", "inproc", "-chaos", "drop=0.2,dup=0.1", "-chaos-seed", "7",
	}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"network     :", "chaos       :", "retransmits"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBatchMode(t *testing.T) {
	cases := [][]string{
		{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1", "-batch", "3"},
		{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1", "-batch", "2", "-transport", "tcp"},
		{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1", "-batch", "2", "-protocol", "vector"},
		{"-n", "5", "-f", "1", "-d", "2", "-eps", "0.2", "-protocol", "byzantine", "-faulty", "4", "-transport", "inproc"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		out := buf.String()
		for _, want := range []string{"batch consensus", "decided by round", "<= ε: true", "messages"} {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output missing %q:\n%s", args, want, out)
			}
		}
	}
}

func TestRunBatchChaosLine(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1",
		"-batch", "2", "-transport", "inproc", "-chaos", "light",
	}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<= ε: true", "chaos       :", "injected"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunBatchRecovery(t *testing.T) {
	var buf bytes.Buffer
	args := []string{
		"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1",
		"-batch", "2", "-transport", "inproc",
		"-wal-dir", t.TempDir(), "-crash", "0:15", "-recover",
	}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "2/5 decided") && !strings.Contains(out, "5/5 decided") {
		t.Errorf("no decision counts in output:\n%s", out)
	}
	if !strings.Contains(out, "5/5 decided") {
		t.Errorf("recovered node should complete the batch:\n%s", out)
	}
	if !strings.Contains(out, "recovery    :") {
		t.Errorf("no recovery counters in output:\n%s", out)
	}
}

// TestRunMetricsAddrServesMidRun is the end-to-end exposition check: a live
// TCP batch run with -metrics-addr must serve /metrics (valid Prometheus
// text), /runs (JSON listing the run as active) and /debug/pprof while the
// batch is still executing. The crash-recovery downtime of 500ms guarantees
// the run stays alive long enough for a deterministic mid-run scrape.
func TestRunMetricsAddrServesMidRun(t *testing.T) {
	prev := chc.TelemetryEnabled()
	defer func() {
		telemetry.ShutdownServer()
		chc.EnableTelemetry(prev)
	}()

	jsonPath := filepath.Join(t.TempDir(), "telemetry.json")
	args := []string{
		"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1",
		"-batch", "2", "-transport", "tcp",
		"-wal-dir", t.TempDir(), "-crash", "1:10", "-recover", "-recover-downtime", "500ms",
		"-metrics-addr", "127.0.0.1:0",
		"-telemetry-json", jsonPath,
	}
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(args, &buf) }()

	// The server mounts synchronously before the batch starts; discover its
	// resolved port.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if s := telemetry.ActiveServer(); s != nil {
			base = s.URL()
		} else if time.Now().After(deadline) {
			t.Fatal("exposition server never mounted")
		} else {
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Poll /runs until the batch appears as an active run — from then on the
	// scrape is by construction mid-run.
	var runsSnap telemetry.RunsSnapshot
	for len(runsSnap.Active) == 0 {
		select {
		case err := <-done:
			t.Fatalf("run finished before a mid-run scrape (err=%v):\n%s", err, buf.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("run never appeared in /runs")
		}
		resp, err := http.Get(base + "/runs")
		if err != nil {
			t.Fatal(err)
		}
		runsSnap = telemetry.RunsSnapshot{}
		if err := json.NewDecoder(resp.Body).Decode(&runsSnap); err != nil {
			t.Fatalf("/runs is not valid JSON: %v", err)
		}
		resp.Body.Close()
	}
	if got := runsSnap.Active[0]; got.Status != "running" || got.Transport != "tcp" || got.Instances != 2 {
		t.Errorf("active run = %+v, want running tcp batch of 2", got)
	}

	// /metrics mid-run: must parse as Prometheus text and already carry the
	// engine's run counter.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, perr := telemetry.ParseText(resp.Body)
	resp.Body.Close()
	if perr != nil {
		t.Fatalf("/metrics is not valid exposition text: %v", perr)
	}
	started := 0.0
	for _, s := range samples {
		if s.Name == "chc_engine_runs_started_total" {
			started += s.Value
		}
	}
	if started < 1 {
		t.Errorf("chc_engine_runs_started_total = %v mid-run, want >= 1", started)
	}

	// /debug/pprof mid-run.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}

	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "telemetry   : serving /metrics /runs /debug/pprof on http://") {
		t.Errorf("no server banner in output:\n%s", out)
	}
	if !strings.Contains(out, "5/5 decided") {
		t.Errorf("recovered batch should fully decide:\n%s", out)
	}
	if !strings.Contains(out, "snapshot written to "+jsonPath) {
		t.Errorf("no -telemetry-json confirmation in output:\n%s", out)
	}

	// The run must have moved to the completed ring with its decisions.
	resp, err = http.Get(base + "/runs")
	if err != nil {
		t.Fatal(err)
	}
	runsSnap = telemetry.RunsSnapshot{}
	if err := json.NewDecoder(resp.Body).Decode(&runsSnap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var completed *telemetry.RunRecord
	for i := range runsSnap.Completed {
		if runsSnap.Completed[i].Transport == "tcp" && runsSnap.Completed[i].Status == "ok" {
			completed = &runsSnap.Completed[i]
		}
	}
	if completed == nil {
		t.Fatalf("no completed ok run in /runs: %+v", runsSnap)
	}
	if len(completed.DecidedRounds) != 10 { // 2 instances × 5 processes
		t.Errorf("completed run has %d decided rounds, want 10", len(completed.DecidedRounds))
	}

	// The -telemetry-json dump must round-trip as a Snapshot.
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-telemetry-json file is not a Snapshot: %v", err)
	}
	if snap.Find("chc_engine_runs_completed_total") == nil {
		t.Error("dumped snapshot missing chc_engine_runs_completed_total")
	}
}

// TestRunTelemetrySummaryOnError checks the error-path summary: a failed run
// with telemetry enabled still prints registry totals and writes the JSON
// dump.
func TestRunTelemetrySummaryOnError(t *testing.T) {
	prevSink := chc.EnableTelemetry(true)
	defer chc.EnableTelemetry(prevSink)

	jsonPath := filepath.Join(t.TempDir(), "telemetry.json")
	// An unrecovered crash of a process not in -faulty fails validation inside
	// the run, after telemetry is live.
	args := []string{
		"-n", "5", "-f", "1", "-d", "2", "-eps", "0.1",
		"-crash", "7:1",
		"-telemetry-json", jsonPath,
	}
	var buf bytes.Buffer
	if err := run(args, &buf); err == nil {
		t.Fatal("crash plan for out-of-range process should error")
	}
	out := buf.String()
	if !strings.Contains(out, "telemetry   : ") || !strings.Contains(out, "registry totals at exit") {
		t.Errorf("error exit missing telemetry summary:\n%s", out)
	}
	if _, err := os.Stat(jsonPath); err != nil {
		t.Errorf("-telemetry-json not written on error exit: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	cases := [][]string{
		{"-model", "weird"},
		{"-sched", "weird"},
		{"-transport", "tcp", "-sched", "rr"},
		{"-transport", "inproc", "-sched", "delay"},
		{"-transport", "weird"},
		{"-chaos", "weird"},
		{"-chaos", "heavy"}, // chaos on the simulator transport is an error
		{"-faulty", "zero,one"},
		{"-crash", "nonsense"},
		{"-crash", "1"},
		{"-crash", "x:1"},
		{"-crash", "1:y"},
		{"-n", "3", "-f", "1", "-d", "2"}, // below resilience bound
		{"-batch", "2", "-protocol", "weird"},
		{"-protocol", "vector", "-byz", "incorrect"},
		{"-batch", "1", "-tracefile", "/tmp/x.json"},
	}
	for _, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v should error", args)
		}
	}
}

// TestRunWireCoalesceFlag pins the accepted values of -wire-coalesce: "on"
// and a flush-deadline duration run; "off" named the removed
// write+flush-per-frame path and is rejected like any other unknown value.
func TestRunWireCoalesceFlag(t *testing.T) {
	base := []string{"-n", "4", "-f", "0", "-d", "1", "-eps", "0.5", "-transport", "tcp", "-wire-coalesce"}
	for _, v := range []string{"on", "200us"} {
		var buf bytes.Buffer
		if err := run(append(base, v), &buf); err != nil {
			t.Errorf("-wire-coalesce %s: %v", v, err)
		}
	}
	var buf bytes.Buffer
	err := run(append(base, "off"), &buf)
	if err == nil || !strings.Contains(err.Error(), "want on or a flush-deadline duration") {
		t.Errorf("-wire-coalesce off = %v, want the usage error", err)
	}
}

func TestParseHelpers(t *testing.T) {
	ids, err := parseIDs("1, 2,3")
	if err != nil || len(ids) != 3 || ids[2] != 3 {
		t.Errorf("parseIDs = %v, %v", ids, err)
	}
	plans, err := parseCrashes("1:5, 2:0")
	if err != nil || len(plans) != 2 || plans[0].AfterSends != 5 {
		t.Errorf("parseCrashes = %v, %v", plans, err)
	}
	if !containsID([]chc.ProcID{1, 2}, 2) || containsID(nil, 0) {
		t.Error("containsID broken")
	}
}
