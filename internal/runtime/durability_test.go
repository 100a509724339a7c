package runtime

import (
	"errors"
	"fmt"
	goruntime "runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/rlink"
	"chc/internal/telemetry"
	"chc/internal/wal"
)

var (
	errInjectedSync   = errors.New("injected fsync failure")
	errInjectedCreate = errors.New("injected create failure")
)

// flakyFS fails fsyncs on matching paths while the fail flag is set — a
// switchable sick disk for exercising the degradation policy without
// probabilistic schedules. A positive budget heals the disk automatically
// after that many injected failures (a deterministic transient outage).
// With createMatch set, Create calls on matching paths fail instead (for
// attacking the checkpoint rotation rather than the fsync).
type flakyFS struct {
	wal.FS
	fail        atomic.Bool
	budget      atomic.Int64 // >0: remaining failures before auto-heal
	match       string       // fsync path substring; empty matches all
	createMatch string       // Create path substring; empty disables
}

func (f *flakyFS) failing(path string) bool {
	if !f.fail.Load() || (f.match != "" && !strings.Contains(path, f.match)) {
		return false
	}
	return f.spendBudget()
}

func (f *flakyFS) failingCreate(path string) bool {
	if !f.fail.Load() || f.createMatch == "" || !strings.Contains(path, f.createMatch) {
		return false
	}
	return f.spendBudget()
}

func (f *flakyFS) spendBudget() bool {
	if f.budget.Load() > 0 && f.budget.Add(-1) <= 0 {
		f.fail.Store(false)
	}
	return true
}

func (f *flakyFS) Create(path string) (wal.File, error) {
	if f.failingCreate(path) {
		return nil, errInjectedCreate
	}
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f, path: path}, nil
}

func (f *flakyFS) OpenRW(path string) (wal.File, error) {
	file, err := f.FS.OpenRW(path)
	if err != nil {
		return nil, err
	}
	return &flakyFile{File: file, fs: f, path: path}, nil
}

type flakyFile struct {
	wal.File
	fs   *flakyFS
	path string
}

func (ff *flakyFile) Sync() error {
	if ff.fs.failing(ff.path) {
		return errInjectedSync
	}
	return ff.File.Sync()
}

// TestDurableBoxDegradeAndRearm drives one box through the full quarantine
// cycle under output commit: deliveries committed durably, a failing-disk
// window whose commit fails — the whole uncommitted tail moves to pending
// and is released non-durably — more deliveries accepted while degraded, the
// background re-arm restoring durability, then more durable deliveries — and
// checks the final on-disk history holds every message in mailbox order,
// including the degraded window.
func TestDurableBoxDegradeAndRearm(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir, 0)
	ffs := &flakyFS{FS: wal.OSFS()}
	w, err := wal.CreateWith(path, wal.Options{FS: ffs, Mirror: true})
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{cfg: Config{
		Env:      Env{WALDir: dir, Durability: Degrade},
		Recovery: RecoveryConfig{rearmMin: time.Millisecond, rearmMax: 4 * time.Millisecond},
	}}
	mbox := newMailbox()
	box := newDurableBox(c, 0, w, mbox, &atomic.Bool{})

	msg := func(round int) dist.Message {
		return dist.Message{From: 1, To: 0, Kind: "t", Round: round}
	}
	next := 0
	send := func(k int) {
		for i := 0; i < k; i++ {
			if err := box.deliver(msg(next)); err != nil {
				t.Fatalf("deliver %d: %v", next, err)
			}
			next++
		}
	}
	commit := func() {
		t.Helper()
		if err := box.barrier(waitSend); err != nil {
			t.Fatalf("barrier under Degrade: %v", err)
		}
	}

	send(3)
	commit()
	if box.isDegraded() {
		t.Fatal("degraded on a healthy disk")
	}
	ffs.fail.Store(true)
	send(4)  // appended and queued; no fsync yet, so no failure yet
	commit() // the commit's fsync fails: the four-record tail moves to pending
	if !box.isDegraded() {
		t.Fatal("not degraded after the commit's fsync failed")
	}
	if got := c.Stats().Net; got.Degradations != 1 || got.DurabilityFaults == 0 {
		t.Fatalf("durability stats after degrade: %+v", got)
	}
	send(2) // accepted non-durably, straight into pending
	commit()
	ffs.fail.Store(false)
	deadline := time.Now().Add(5 * time.Second)
	for box.isDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("re-arm did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Stats().Net; got.Rearms != 1 {
		t.Fatalf("rearms = %d, want 1", got.Rearms)
	}
	send(3)
	commit()
	box.close()
	c.bg.Wait()
	// Abandon, not Close: everything above was committed, so nothing may
	// depend on a shutdown flush.
	w.Abandon()

	// The re-armed log must replay the complete history — the degraded
	// window included — in delivery order, from the published snapshot.
	rep, err := wal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Snapshot {
		t.Error("replay did not use the re-arm snapshot")
	}
	if len(rep.Delivered) != next {
		t.Fatalf("journal has %d deliveries, want %d", len(rep.Delivered), next)
	}
	for i, m := range rep.Delivered {
		if m.Round != i {
			t.Fatalf("position %d: round %d (order not preserved)", i, m.Round)
		}
	}
	// Mailbox order must equal journal order across the degrade boundary.
	mbox.Close()
	for i := 0; i < next; i++ {
		got, err := mbox.Pop()
		if err != nil {
			t.Fatalf("mailbox drained at %d, journal has %d", i, next)
		}
		if got.Round != i {
			t.Fatalf("mailbox position %d: round %d", i, got.Round)
		}
	}
}

// TestDurableBoxCheckpointFailureNoDoubleJournal regresses the
// post-fsync-failure case: the commit's fsync succeeds (so the record is
// durable and folded into the mirror) but the checkpoint rotation that the
// same Sync triggers fails. The Degrade policy must quarantine without
// re-owning the delivery in pending — the uncommitted tail it takes over is
// empty — otherwise the re-arm snapshot holds it twice and a recovered node
// replays a divergent (equivocating) history.
func TestDurableBoxCheckpointFailureNoDoubleJournal(t *testing.T) {
	dir := t.TempDir()
	path := WALPath(dir, 0)
	// Fsyncs never fail (match can't occur in any path); only the Create of
	// the in-flight snapshot does, exactly once — so the failure lands after
	// the delivery is already durable, inside the rotation.
	ffs := &flakyFS{FS: wal.OSFS(), match: "\x00", createMatch: ".ckpt.tmp"}
	// EveryBytes 20: the epoch record (9 framed bytes) stays under the
	// threshold, the first delivered record crosses it and triggers rotation.
	w, err := wal.CreateWith(path, wal.Options{FS: ffs, Checkpoint: wal.CheckpointPolicy{EveryBytes: 20}})
	if err != nil {
		t.Fatal(err)
	}
	c := &Cluster{cfg: Config{
		Env:      Env{WALDir: dir, Durability: Degrade},
		Recovery: RecoveryConfig{rearmMin: time.Millisecond, rearmMax: 4 * time.Millisecond},
	}}
	mbox := newMailbox()
	box := newDurableBox(c, 0, w, mbox, &atomic.Bool{})

	ffs.budget.Store(1)
	ffs.fail.Store(true)
	m := dist.Message{From: 1, To: 0, Kind: "t", Round: 0}
	if err := box.deliver(m); err != nil {
		t.Fatalf("deliver under Degrade: %v", err)
	}
	if err := box.barrier(waitSend); err != nil {
		t.Fatalf("barrier under Degrade: %v", err)
	}
	if !box.isDegraded() {
		t.Fatal("not degraded after checkpoint failure")
	}
	deadline := time.Now().Add(5 * time.Second)
	for box.isDegraded() {
		if time.Now().After(deadline) {
			t.Fatal("re-arm did not complete")
		}
		time.Sleep(time.Millisecond)
	}
	box.close()
	c.bg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rep, err := wal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Delivered) != 1 {
		t.Fatalf("journal replays %d deliveries, want exactly 1 (no double-journaling)", len(rep.Delivered))
	}
	// The process must see the delivery exactly once, too.
	mbox.Close()
	if got, err := mbox.Pop(); err != nil || got.Round != 0 {
		t.Fatalf("first Pop = %v, %v", got, err)
	}
	if _, err := mbox.Pop(); err == nil {
		t.Fatal("delivery pushed to the mailbox twice")
	}
}

// TestRecoveryClusterReservesSyncProcs: a journaling cluster leaves the
// scheduler one P per node (see reserveSyncProcs); a cluster without a
// journal leaves GOMAXPROCS alone.
func TestRecoveryClusterReservesSyncProcs(t *testing.T) {
	const n = 3
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	procs := func() []dist.Process {
		ps := make([]dist.Process, n)
		for i := range ps {
			ps[i] = newGatherProc(n, nil)
		}
		return ps
	}
	plain, err := NewChannelCluster(procs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain.abort()
	if got := goruntime.GOMAXPROCS(0); got != 1 {
		t.Fatalf("GOMAXPROCS after a cluster without a journal = %d, want 1", got)
	}
	c, err := NewChannelCluster(procs(), Config{
		Env:      Env{WALDir: t.TempDir()},
		Recovery: RecoveryConfig{Factory: func(int) dist.Process { return newGatherProc(n, nil) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.abort()
	if got := goruntime.GOMAXPROCS(0); got < n {
		t.Fatalf("GOMAXPROCS after a journaling %d-node cluster = %d", n, got)
	}
}

// TestDegradedDeathRefusesRelaunch pins the Degrade contract's enforcement:
// a node killed while degraded (its last-chance re-arm failing on the still
// sick disk) has a journal missing acked deliveries, so the supervisor must
// refuse to relaunch it rather than resume from the incomplete history.
func TestDegradedDeathRefusesRelaunch(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	ffs := &flakyFS{FS: wal.OSFS(), match: "node-001"}
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newGatherProc(n, nil)
	}
	// Re-arm backoff far beyond the test: the only restoration attempt is
	// close()'s last-chance one, which the still-failing disk rejects.
	c, err := NewChannelCluster(procs, Config{
		Env: Env{WALDir: dir, WALFS: ffs, Durability: Degrade},
		Recovery: RecoveryConfig{
			Factory:  func(i int) dist.Process { return newGatherProc(n, nil) },
			rearmMin: time.Minute, rearmMax: time.Minute,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ffs.fail.Store(true)
	if err := c.nodes[1].inc.box.deliver(dist.Message{From: 0, To: 1, Kind: "t"}); err != nil {
		t.Fatalf("deliver under Degrade: %v", err)
	}
	if err := c.nodes[1].inc.box.barrier(waitSend); err != nil {
		t.Fatalf("barrier under Degrade: %v", err)
	}
	if !c.nodes[1].inc.box.isDegraded() {
		t.Fatal("node 1 not degraded")
	}
	c.killNode(1)
	c.stateMu.RLock()
	died := c.nodes[1].diedDeg
	c.stateMu.RUnlock()
	if !died {
		t.Fatal("degraded death not recorded")
	}
	rs := &runState{c: c, n: n, queues: make([][]RestartPlan, n)}
	err = c.relaunch(rs, 1)
	if err == nil || !strings.Contains(err.Error(), "died degraded") {
		t.Fatalf("relaunch of a degraded-dead node = %v, want refusal", err)
	}
	if err := c.teardown(rs); err != nil {
		t.Fatal(err)
	}
}

// TestDurableBoxFailStop checks the default policy under output commit. A
// delivery on a sick disk is still accepted — it is only appended — but the
// commit that would let anything out fails: the barrier reports it (the send
// stays unsent, the ack withheld), the incarnation crashes and counts as one
// fail-stop, later deliveries are refused, and — on a filesystem that keeps
// only what was synced — the abandoned journal holds exactly the committed
// prefix, so nothing is rejected retroactively and nothing uncommitted
// survives to be replayed.
func TestDurableBoxFailStop(t *testing.T) {
	dir := "/wal"
	mem := diskfault.NewMemFS()
	ffs := &flakyFS{FS: mem}
	w, err := wal.CreateWith(WALPath(dir, 0), wal.Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	c := newTestClusterShell(t, 1)
	// killNode tears down the registered incarnation: closes its mailbox and
	// abandons its log.
	inc := &incarnation{mbox: newMailbox(), wal: w}
	mbox, crashed := inc.mbox, &inc.crashed
	box := newDurableBox(c, 0, w, mbox, crashed)
	inc.box = box
	c.nodes[0].inc = inc
	if err := box.deliver(dist.Message{From: 0, To: 0, Kind: "t"}); err != nil {
		t.Fatalf("healthy deliver: %v", err)
	}
	if err := box.barrier(waitSend); err != nil {
		t.Fatalf("healthy barrier: %v", err)
	}
	ffs.fail.Store(true)
	if err := box.deliver(dist.Message{From: 0, To: 0, Kind: "t", Round: 1}); err != nil {
		t.Fatalf("deliver is an append, it must not see the disk: %v", err)
	}
	if err := box.barrier(waitSend); err == nil {
		t.Fatal("barrier returned nil over a failed fsync (the output would leave)")
	}
	if !crashed.Load() {
		t.Fatal("crash flag not set")
	}
	if got := c.Stats().Net; got.FailStops != 1 || got.DurabilityFaults != 1 {
		t.Fatalf("durability stats: %+v", got)
	}
	if err := box.deliver(dist.Message{From: 0, To: 0, Kind: "t", Round: 2}); err == nil {
		t.Fatal("fail-stopped box accepted a delivery (ack would be sent)")
	}
	// The async teardown must close the mailbox (killNode path): what was
	// accepted drains, then Pop unblocks with the closed error. The test
	// timeout guards against the teardown never arriving.
	for want := 0; want < 2; want++ {
		if m, err := mbox.Pop(); err != nil || m.Round != want {
			t.Fatalf("Pop %d = %v, %v", want, m, err)
		}
	}
	if _, err := mbox.Pop(); err == nil {
		t.Fatal("mailbox yielded a delivery the fail-stopped box refused")
	}
	c.bg.Wait()
	// killNode abandoned the log: the record the failed commit never covered
	// is gone with the writer.
	rep, err := wal.ReplayWith(mem, WALPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Delivered) != 1 || rep.Delivered[0].Round != 0 {
		t.Fatalf("abandoned journal replays %d deliveries, want exactly the committed one", len(rep.Delivered))
	}
}

// listenerProc never sends: it terminates after hearing want messages.
type listenerProc struct {
	heard atomic.Int32
	want  int32
}

func (p *listenerProc) Init(dist.Context)                  {}
func (p *listenerProc) Deliver(dist.Context, dist.Message) { p.heard.Add(1) }
func (p *listenerProc) Done() bool                         { return p.heard.Load() >= p.want }

// TestLostTailDecisionWaitsForCommit pins the run's own decision exit: a
// node whose state machine terminates is not decided, as far as the run can
// tell, until its journal covers the deliveries the decision rests on. Node
// 1 only listens, its disk fails every fsync, and the committers are put to
// sleep (acks held for a quarter of a one-minute retransmission delay), so
// the decision is the first thing node 1 tries to commit: the commit fails,
// the node fail-stops instead of deciding, and only the healthy nodes count
// as done.
func TestLostTailDecisionWaitsForCommit(t *testing.T) {
	const n = 3
	ffs := &flakyFS{FS: diskfault.NewMemFS(), match: "node-001"}
	procs := []dist.Process{newGatherProc(n-1, nil), &listenerProc{want: n - 1}, newGatherProc(n-1, nil)}
	c, err := NewChannelCluster(procs, Config{
		Env:      Env{WALDir: "/journals", WALFS: ffs},
		Recovery: RecoveryConfig{Factory: func(i int) dist.Process { return newGatherProc(n, nil) }},
		links:    &rlink.Config{RetransmitInitial: time.Minute, RetransmitMax: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	ffs.fail.Store(true)
	rs := c.newRunState(n)
	select {
	case <-rs.allSettled:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not settle")
	}
	if !c.Processes()[1].Done() {
		t.Fatal("node 1's state machine did not terminate: the test exercised nothing")
	}
	for i := 0; i < n; i++ {
		if got, want := rs.done[i].Load(), i != 1; got != want {
			t.Errorf("node %d counted as decided = %v, want %v", i, got, want)
		}
	}
	if got := c.Stats().Net; got.FailStops != 1 {
		t.Errorf("durability stats: %+v, want one fail-stop", got)
	}
	if err := c.teardown(rs); err != nil {
		t.Fatal(err)
	}
}

// TestLostTailBarrierCoversVisibleDelivery pins the order inside deliver: a
// record is counted before its message becomes visible, so the process that
// pops the message and reaches an exit at once runs a barrier that includes
// it. The test holds the mailbox's own lock, which parks deliver inside Push:
// the count must already be there. With the order reversed the count never
// arrives while Push is parked (the test fails), and in production a quiet
// node's barrier would take the committed == appended fast path and let an
// output leave ahead of the fsync covering a delivery it depends on.
func TestLostTailBarrierCoversVisibleDelivery(t *testing.T) {
	w, err := wal.Create(WALPath(t.TempDir(), 0))
	if err != nil {
		t.Fatal(err)
	}
	mbox := newMailbox()
	c := &Cluster{cfg: Config{links: &rlink.Config{RetransmitInitial: time.Hour}}} // committer asleep
	box := newDurableBox(c, 0, w, mbox, &atomic.Bool{})
	base := w.Stats().Syncs

	mbox.mu.Lock()
	delivered := make(chan error, 1)
	go func() { delivered <- box.deliver(dist.Message{From: 1, To: 0, Kind: "t"}) }()
	deadline := time.Now().Add(5 * time.Second)
	for box.appended.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	counted := box.appended.Load()
	mbox.mu.Unlock()
	if counted != 1 {
		t.Fatalf("appended = %d while the message was still on its way into the mailbox, want 1", counted)
	}
	if err := <-delivered; err != nil {
		t.Fatal(err)
	}
	if _, err := mbox.Pop(); err != nil {
		t.Fatal(err)
	}
	if syncs := w.Stats().Syncs - base; syncs != 0 {
		t.Fatalf("%d fsyncs before any exit: the delivery path is fsyncing", syncs)
	}
	// The consumer's exit: the barrier must fsync, not return on the fast path.
	if err := box.barrier(waitSend); err != nil {
		t.Fatal(err)
	}
	if syncs, committed := w.Stats().Syncs-base, box.committed.Load(); syncs != 1 || committed != 1 {
		t.Fatalf("after the barrier: %d fsyncs, committed = %d, want 1 and 1", syncs, committed)
	}
	box.close()
	c.bg.Wait()
	w.Abandon()
}

// newTestClusterShell builds a minimal cluster skeleton (nodes, no
// incarnations or transports) so killNode has something coherent to tear down.
func newTestClusterShell(t *testing.T, n int) *Cluster {
	t.Helper()
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newGatherProc(n, nil)
	}
	c, err := newCluster(procs, Config{}, TransportChannel)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestClusterFailStopBecomesCrashFault is the cluster-level fail-stop test:
// one node's disk dies mid-run; that node fail-stops and the rest finish —
// the storage failure consumed one of the f crash faults, nothing more.
func TestClusterFailStopBecomesCrashFault(t *testing.T) {
	const n = 5
	dir := t.TempDir()
	ffs := &flakyFS{FS: wal.OSFS(), match: "node-001"}
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newGatherProc(n-1, nil)
	}
	c, err := NewChannelCluster(procs, Config{
		Env:      Env{WALDir: dir, WALFS: ffs},
		Recovery: RecoveryConfig{Factory: func(i int) dist.Process { return newGatherProc(n-1, nil) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	ffs.fail.Store(true) // node 1's first journaled delivery fails
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Net.FailStops == 0 || st.Net.DurabilityFaults == 0 {
		t.Fatalf("no fail-stop recorded: %+v", st.Net)
	}
	decided := 0
	for i, p := range c.Processes() {
		if i == 1 {
			continue
		}
		if p.Done() {
			decided++
		}
	}
	if decided != n-1 {
		t.Fatalf("%d healthy nodes decided, want %d", decided, n-1)
	}
}

// TestClusterDegradedNodeDecides is the cluster-level quarantine test: with
// the Degrade policy a node whose disk fails keeps participating
// non-durably, decides, and (here, since the disk heals) re-arms.
func TestClusterDegradedNodeDecides(t *testing.T) {
	const n = 5
	dir := t.TempDir()
	ffs := &flakyFS{FS: wal.OSFS(), match: "node-001"}
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = newGatherProc(n, nil)
	}
	c, err := NewChannelCluster(procs, Config{
		Env: Env{WALDir: dir, WALFS: ffs, Durability: Degrade},
		Recovery: RecoveryConfig{
			Factory:  func(i int) dist.Process { return newGatherProc(n, nil) },
			rearmMin: time.Millisecond, rearmMax: 4 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A transient outage: node 1's disk fails exactly once — the delivery
	// that trips the quarantine — then heals, so the first re-arm attempt
	// succeeds. Whether the background loop or the shutdown flush lands it,
	// durability is restored before Run returns.
	ffs.budget.Store(1)
	ffs.fail.Store(true)
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i, p := range c.Processes() {
		if !p.Done() {
			t.Fatalf("node %d did not decide (quorum requires the degraded node)", i)
		}
	}
	st := c.Stats()
	if st.Net.Degradations == 0 {
		t.Fatalf("no degradation recorded: %+v", st.Net)
	}
	if st.Net.FailStops != 0 {
		t.Fatalf("unexpected fail-stops under Degrade policy: %+v", st.Net)
	}
	// The disk healed mid-run, so durability must have been restored and
	// the full history — degraded window included — must replay.
	if st.Net.Rearms == 0 {
		t.Fatalf("no re-arm recorded: %+v", st.Net)
	}
	if d := c.Degraded(); len(d) != 0 {
		t.Fatalf("nodes still degraded after re-arm: %v", d)
	}
	rep, err := wal.Replay(WALPath(dir, dist.ProcID(1)))
	if err != nil {
		t.Fatalf("replay of re-armed log: %v", err)
	}
	if want := n - 1; len(rep.Delivered) < want {
		t.Fatalf("re-armed log has %d deliveries, want >= %d", len(rep.Delivered), want)
	}
}

// TestDurabilityPolicyString pins the flag spellings.
func TestDurabilityPolicyString(t *testing.T) {
	if got := fmt.Sprintf("%v/%v", FailStop, Degrade); got != "failstop/degrade" {
		t.Fatalf("policy strings = %q", got)
	}
}

// TestOutputCommitTelemetry runs a journaled cluster with telemetry and
// tracing on and checks the three instruments of the commit path: the
// records-per-fsync histogram, the per-exit barrier wait, and the commit
// trace event with its record count.
func TestOutputCommitTelemetry(t *testing.T) {
	prevOn := telemetry.Enable(true)
	defer telemetry.Enable(prevOn)
	sink := telemetry.NewMemorySink()
	defer telemetry.SetSink(telemetry.SetSink(sink))
	const n = 4
	procs := make([]dist.Process, n)
	for i := range procs {
		procs[i] = echoOnDeliverProc{newGatherProc(n, nil)}
	}
	c, err := NewChannelCluster(procs, Config{
		Env:      Env{WALDir: "/journals", WALFS: diskfault.NewMemFS()},
		Recovery: RecoveryConfig{Factory: func(i int) dist.Process { return echoOnDeliverProc{newGatherProc(n, nil)} }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	histCount := func(name, label, value string) uint64 {
		t.Helper()
		f := telemetry.Default().Snapshot().Find(name)
		if f == nil {
			t.Fatalf("metric family %s is not registered", name)
		}
		var count uint64
		for _, s := range f.Samples {
			if s.Histogram != nil && (label == "" || s.Labels[label] == value) {
				count += s.Histogram.Count
			}
		}
		return count
	}
	if histCount("chc_wal_commit_records", "", "") == 0 {
		t.Error("chc_wal_commit_records observed no fsync")
	}
	// Every echo is a send behind fresh deliveries, every node decides.
	for _, exit := range []string{"send", "decide"} {
		if histCount("chc_runtime_barrier_wait_seconds", "exit", exit) == 0 {
			t.Errorf("chc_runtime_barrier_wait_seconds{exit=%q} observed nothing", exit)
		}
	}
	var commits, records int
	for _, ev := range sink.Events() {
		if ev.Name == "runtime.durability" && ev.Attrs["action"] == "commit" {
			commits++
			records += int(ev.Attrs["records"].(uint64))
		}
	}
	// A record is covered by at most one commit event (the last deliveries of
	// a run may see none: shutdown flushes them).
	if st := c.Stats(); commits == 0 || records < commits || int64(records) > st.Net.WALAppends {
		t.Errorf("%d commit events covering %d records, journal has %d appends", commits, records, st.Net.WALAppends)
	}
}
