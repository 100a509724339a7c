package runtime_test

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
	"chc/internal/wal"
)

// ccFixture builds n Algorithm CC processes with deterministic inputs and a
// factory that rebuilds any of them from scratch — the determinism the WAL
// replay path relies on.
type ccFixture struct {
	params core.Params
	inputs []geom.Point
}

func newCCFixture(t *testing.T, n, f int) *ccFixture {
	t.Helper()
	params := core.Params{
		N: n, F: f, D: 2,
		Epsilon:    0.05,
		InputLower: 0, InputUpper: 10,
	}
	inputs := make([]geom.Point, n)
	for i := range inputs {
		inputs[i] = geom.NewPoint(float64(i%4)+0.5, float64((i*3)%5)+0.5)
	}
	return &ccFixture{params: params, inputs: inputs}
}

// recovery is the caller's half of the fixture's crash recovery: a factory
// that rebuilds process i from scratch, and the inputs to journal.
func (fx *ccFixture) recovery(t *testing.T) runtime.RecoveryConfig {
	factory := func(i int) dist.Process {
		p, err := core.NewProcess(fx.params, dist.ProcID(i), fx.inputs[i])
		if err != nil {
			t.Errorf("factory(%d): %v", i, err)
			return nil
		}
		return p
	}
	return runtime.RecoveryConfig{Factory: factory, Inputs: fx.inputs}
}

func (fx *ccFixture) procs(t *testing.T) []dist.Process {
	t.Helper()
	procs := make([]dist.Process, fx.params.N)
	for i := range procs {
		p, err := core.NewProcess(fx.params, dist.ProcID(i), fx.inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	return procs
}

// protocolStateBytes serializes the observable protocol state of a CC
// process — the full execution trace plus the decision polytope — so two
// reconstructions can be compared byte for byte.
func protocolStateBytes(t *testing.T, p dist.Process) []byte {
	t.Helper()
	cp, ok := p.(*core.Process)
	if !ok {
		t.Fatalf("process is %T, want *core.Process", p)
	}
	out, err := cp.Output()
	if err != nil {
		t.Fatalf("process has no decision: %v", err)
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(cp.TraceData()); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(out.Vertices()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWALReplayByteIdentical is the acceptance-criteria replay test: after a
// full consensus run with journaling enabled, replaying each node's WAL
// through a fresh factory-built process must reconstruct byte-identical
// protocol state (trace and decision polytope). The checkpointed variant
// runs the same assertion over a compacted snapshot+segments+tail layout:
// recovery from a snapshot must be indistinguishable from a full log scan.
func TestWALReplayByteIdentical(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testWALReplayByteIdentical(t, 0) })
	t.Run("checkpointed", func(t *testing.T) { testWALReplayByteIdentical(t, 512) })
}

func testWALReplayByteIdentical(t *testing.T, ckptEveryBytes int64) {
	fx := newCCFixture(t, 5, 1)
	procs := fx.procs(t)
	dir := t.TempDir()
	c, err := runtime.NewChannelCluster(procs, runtime.Config{
		Env:      runtime.Env{WALDir: dir, Checkpoint: wal.CheckpointPolicy{EveryBytes: ckptEveryBytes}},
		Recovery: fx.recovery(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	live := c.Processes()
	for i := range procs {
		replayed, rep, err := c.ReplayNodeForTest(i)
		if err != nil {
			t.Fatalf("replay node %d: %v", i, err)
		}
		if rep.Epoch != 0 {
			t.Errorf("node %d: epoch = %d, want 0 (no restarts)", i, rep.Epoch)
		}
		want := protocolStateBytes(t, live[i])
		got := protocolStateBytes(t, replayed)
		if !bytes.Equal(want, got) {
			t.Errorf("node %d: replayed state differs from live state (%d vs %d bytes)",
				i, len(got), len(want))
		}
	}
	st := c.Stats()
	if st.Net.WALAppends == 0 || st.Net.WALSyncs == 0 {
		t.Errorf("WAL counters not reported: %+v", st.Net)
	}
	if ckptEveryBytes > 0 && st.Net.WALCheckpoints == 0 {
		t.Errorf("no checkpoints published at EveryBytes=%d: %+v", ckptEveryBytes, st.Net)
	}
	// The decision must be journaled too: a decided node's log says so
	// without re-executing the state machine.
	for i := range procs {
		rep, err := wal.Replay(runtime.WALPath(dir, dist.ProcID(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Decided {
			t.Errorf("node %d: no decision record in the WAL", i)
		}
		if want := fx.params.TEnd(); rep.DecidedRound != want {
			t.Errorf("node %d: decided round = %d, want t_end = %d", i, rep.DecidedRound, want)
		}
		if ckptEveryBytes > 0 && !rep.Snapshot {
			t.Errorf("node %d: checkpointed log replayed without a snapshot base", i)
		}
	}
}

// runRecoveryConsensus runs one CC instance with the given restart schedule
// and asserts that every process — including the restarted ones — decides,
// and that all decisions agree.
func runRecoveryConsensus(t *testing.T, fx *ccFixture, mk func([]dist.Process, runtime.Config) (*runtime.Cluster, error), plans []runtime.RestartPlan) *runtime.Cluster {
	t.Helper()
	procs := fx.procs(t)
	c, err := mk(procs, runtime.Config{
		Env:      runtime.Env{WALDir: t.TempDir(), Restarts: plans},
		Recovery: fx.recovery(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	live := c.Processes()
	outs := make([]*core.Process, len(live))
	for i, p := range live {
		cp, ok := p.(*core.Process)
		if !ok {
			t.Fatalf("node %d: process is %T", i, p)
		}
		if _, err := cp.Output(); err != nil {
			t.Fatalf("node %d did not decide after recovery: %v", i, err)
		}
		outs[i] = cp
	}
	// ε-agreement must hold across the restart boundary: recovered nodes are
	// correct processes, not crashed ones.
	for i := 1; i < len(outs); i++ {
		a, _ := outs[0].Output()
		b, _ := outs[i].Output()
		d, err := polytope.Hausdorff(a, b, geom.DefaultEps)
		if err != nil {
			t.Fatal(err)
		}
		if d > fx.params.Epsilon+1e-9 {
			t.Errorf("outputs 0 and %d disagree: d_H = %g > ε = %g", i, d, fx.params.Epsilon)
		}
	}
	return c
}

func TestChannelClusterRestartRecovery(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	c := runRecoveryConsensus(t, fx, runtime.NewChannelCluster, []runtime.RestartPlan{
		{Proc: 1, KillAfterSends: 6, Downtime: 10 * time.Millisecond},
	})
	st := c.Stats()
	if st.Net.Resumes == 0 {
		t.Errorf("no resumption handshakes observed: %+v", st.Net)
	}
	if st.Net.WALAppends == 0 {
		t.Errorf("no WAL appends observed: %+v", st.Net)
	}
}

func TestChannelClusterDoubleRestart(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	runRecoveryConsensus(t, fx, runtime.NewChannelCluster, []runtime.RestartPlan{
		{Proc: 2, KillAfterSends: 5, Downtime: 5 * time.Millisecond},
		{Proc: 2, KillAfterSends: 4, Downtime: 5 * time.Millisecond},
	})
}

// TestZeroBudgetRelaunchCrashesImmediately pins KillAfterSends=0 semantics
// on a relaunched incarnation: the node must crash the instant it comes back
// up (same as a first incarnation with a zero budget), be relaunched again,
// and still reach agreement — the plan must not hang waiting for a send that
// may never happen.
func TestZeroBudgetRelaunchCrashesImmediately(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	c := runRecoveryConsensus(t, fx, runtime.NewChannelCluster, []runtime.RestartPlan{
		{Proc: 2, KillAfterSends: 5, Downtime: 5 * time.Millisecond},
		{Proc: 2, KillAfterSends: 0, Downtime: 5 * time.Millisecond},
	})
	// Both plans must actually have fired: the final log carries one epoch
	// record per incarnation.
	rep, err := wal.Replay(runtime.WALPath(c.RecoveryDirForTest(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Errorf("node 2 ran %d incarnations, want 3 (epoch = %d, want 2)", rep.Epoch+1, rep.Epoch)
	}
}

func TestChannelClusterTwoNodeRestart(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	runRecoveryConsensus(t, fx, runtime.NewChannelCluster, []runtime.RestartPlan{
		{Proc: 0, KillAfterSends: 4, Downtime: 5 * time.Millisecond},
		{Proc: 3, KillAfterSends: 12, Downtime: 15 * time.Millisecond},
	})
}

func TestTCPClusterRestartRecovery(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	c := runRecoveryConsensus(t, fx, runtime.NewTCPCluster, []runtime.RestartPlan{
		{Proc: 1, KillAfterSends: 5, Downtime: 20 * time.Millisecond},
	})
	if st := c.Stats(); st.Net.Resumes == 0 {
		t.Errorf("no resumption handshakes observed over TCP: %+v", st.Net)
	}
}

// TestRestartWithChaos composes kill-and-restart faults with a lossy,
// duplicating link layer: the WAL and the chaos machinery must not step on
// each other.
func TestRestartWithChaos(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	procs := fx.procs(t)
	light := chaos.Light()
	c, err := runtime.NewChannelCluster(procs, runtime.Config{
		Env: runtime.Env{
			Chaos: &light, ChaosSeed: 7,
			WALDir:   t.TempDir(),
			Restarts: []runtime.RestartPlan{{Proc: 2, KillAfterSends: 8, Downtime: 10 * time.Millisecond}},
		},
		Recovery: fx.recovery(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Processes() {
		if _, err := p.(*core.Process).Output(); err != nil {
			t.Fatalf("node %d did not decide: %v", i, err)
		}
	}
}

// TestReplayIsRepeatable runs the same WAL through replay twice and checks
// the reconstructions match — replay must not consume or reorder the log
// (the torture analogue at cluster level).
func TestReplayIsRepeatable(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	procs := fx.procs(t)
	dir := t.TempDir()
	c, err := runtime.NewChannelCluster(procs, runtime.Config{Env: runtime.Env{WALDir: dir}, Recovery: fx.recovery(t)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	first, _, err := c.ReplayNodeForTest(2)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.ReplayNodeForTest(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(protocolStateBytes(t, first), protocolStateBytes(t, second)) {
		t.Error("two replays of the same WAL reconstructed different state")
	}
	// The journal itself must also survive replay byte for byte.
	rep1, err := wal.Replay(runtime.WALPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := wal.Replay(runtime.WALPath(dir, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Records != rep2.Records || len(rep1.Delivered) != len(rep2.Delivered) {
		t.Errorf("replay not repeatable: %d/%d records, %d/%d deliveries",
			rep1.Records, rep2.Records, len(rep1.Delivered), len(rep2.Delivered))
	}
}

// TestStatsMonotoneAcrossRelaunch polls Stats while restart plans kill and
// relaunch nodes of a WAL-backed cluster. Every counter only ever counts up,
// so no read may show a field lower than the read before it: an incarnation's
// counters must be visible exactly once at every instant of its kill —
// neither missing between leaving the live set and being folded into the
// dead counters, nor counted in both.
func TestStatsMonotoneAcrossRelaunch(t *testing.T) {
	fx := newCCFixture(t, 5, 1)
	var plans []runtime.RestartPlan
	for proc := 0; proc < 3; proc++ {
		for k := 0; k < 3; k++ {
			plans = append(plans, runtime.RestartPlan{Proc: dist.ProcID(proc), KillAfterSends: 3 + 2*proc + k})
		}
	}
	c, err := runtime.NewChannelCluster(fx.procs(t), runtime.Config{
		Env:      runtime.Env{WALDir: t.TempDir(), Restarts: plans},
		Recovery: fx.recovery(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	// counters flattens a Stats read into its int64 fields.
	counters := func(st runtime.ClusterStats) map[string]int64 {
		out := map[string]int64{"Sends": st.Sends, "Bytes": st.Bytes}
		v := reflect.ValueOf(st.Net)
		for i := 0; i < v.NumField(); i++ {
			out["Net."+v.Type().Field(i).Name] = v.Field(i).Int()
		}
		return out
	}
	prev := counters(c.Stats())
	check := func() {
		cur := counters(c.Stats())
		for name, was := range prev {
			if cur[name] < was {
				t.Errorf("%s read %d after %d", name, cur[name], was)
			}
		}
		prev = cur
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
				check()
			}
		}
	}()
	err = c.Run(60 * time.Second)
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	check() // the final totals are no lower than any intermediate read
	if prev["Net.Resumes"] == 0 || prev["Net.WALAppends"] == 0 {
		t.Errorf("no relaunch observed: %v", prev)
	}
}
