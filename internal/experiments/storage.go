package experiments

import (
	"fmt"
	"time"

	"chc/internal/chaos"
	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/runtime"
	"chc/internal/wal"
)

// E20StorageFaults exercises the storage-fault stack: seeded disk faults
// injected under every WAL write path, composed with the durability
// policies, checkpoint/compaction, lossy links and kill-and-restart faults.
// The paper's fault model counts a node whose disk dies as one of the f
// crash faults (fail-stop), so those cells must stay within the f budget
// and every survivor must decide with full Theorem 2 properties; under the
// Degrade policy the quarantined nodes keep participating and ALL processes
// must decide. The compaction cells additionally assert that rotation +
// compaction bound the on-disk footprint: at most two segments survive per
// node no matter how many rotations the run performs.
func E20StorageFaults(opt Options) (*Table, error) {
	lossy := chaos.Profile{Drop: 0.10, Dup: 0.05}
	sickAtP1 := diskfault.Sick()
	sickAtP1.PathSubstr = "node-001"
	compact := wal.CheckpointPolicy{EveryBytes: 2048}
	// budget bounds fail-stops per run (the f of the fault model); undecided
	// processes beyond the fail-stopped ones are errors.
	storageCheck := func(budget int64) func(*cellRun) error {
		return func(r *cellRun) error {
			if r.net.FailStops > budget {
				return fmt.Errorf("%d fail-stops exceed the f=%d budget", r.net.FailStops, budget)
			}
			if undecided := r.res.Params.N - len(r.res.Outputs); int64(undecided) > r.net.FailStops {
				return fmt.Errorf("%d undecided but only %d fail-stopped", undecided, r.net.FailStops)
			}
			if !r.cfg.Checkpoint.Enabled() {
				return nil
			}
			if r.net.WALCheckpoints == 0 {
				return fmt.Errorf("checkpointing enabled but no snapshot published")
			}
			if segs := maxSegments(r); segs > 2 {
				return fmt.Errorf("%d segments survived compaction (want <= 2)", segs)
			}
			return nil
		}
	}
	return matrix{
		id:     "E20",
		title:  "Storage-fault matrix: disk faults × durability policy × checkpointing × chaos × restarts (n=5, f=1, d=2)",
		labels: []string{"cell"},
		notes: []string{
			"Terminated counts runs where every surviving (non-fail-stopped) process decided. Fail-stop cells must stay within the f crash budget: only fail-stopped nodes may miss a decision. Degrade cells require ALL processes to decide — a quarantined node keeps participating non-durably until a background re-arm restores its log. Checkpointed cells assert compaction bounds the footprint (≤ 2 segments per node) regardless of rotation count.",
		},
		transport: engine.TransportChannel,
		params:    baseParams(5, 1, 2, 0.05),
		seeds:     opt.trials(3, 8),
		seed:      func(s int) int64 { return int64(s*73 + 13) },
		verdicts:  []verdict{vTerminated, vValidity, vAgreement},
		counters: []counter{
			netCounter("dur-faults", func(n *dist.NetStats) int64 { return n.DurabilityFaults }),
			netCounter("fail-stops", func(n *dist.NetStats) int64 { return n.FailStops }),
			netCounter("degradations", func(n *dist.NetStats) int64 { return n.Degradations }),
			netCounter("re-arms", func(n *dist.NetStats) int64 { return n.Rearms }),
			netCounter("checkpoints", func(n *dist.NetStats) int64 { return n.WALCheckpoints }),
			{name: "max segs", of: maxSegments, max: true},
		},
		cells: []cell{
			// No cell declares a faulty process: a fail-stopped node is charged
			// to the f budget by the check, a degraded one must behave as correct.
			{labels: []string{"sick disk at p1, fail-stop"}, disk: sickAtP1, check: storageCheck(1)},
			{labels: []string{"flaky disks, degrade"}, disk: diskfault.Flaky(),
				env: runtime.Env{Durability: runtime.Degrade}, check: storageCheck(0)},
			{labels: []string{"sick disks, degrade"}, disk: diskfault.Sick(),
				env: runtime.Env{Durability: runtime.Degrade}, check: storageCheck(0)},
			{labels: []string{"flaky disks + lossy links, degrade"}, disk: diskfault.Flaky(),
				env: runtime.Env{Durability: runtime.Degrade, Chaos: &lossy}, check: storageCheck(0)},
			{labels: []string{"restart from snapshot + tail"},
				env: runtime.Env{Checkpoint: compact, Restarts: []runtime.RestartPlan{
					{Proc: 2, KillAfterSends: 15, Downtime: 10 * time.Millisecond}}}, check: storageCheck(0)},
			{labels: []string{"flaky disks + compaction, degrade"}, disk: diskfault.Flaky(),
				env: runtime.Env{Durability: runtime.Degrade, Checkpoint: compact}, check: storageCheck(0)},
		},
	}.table()
}

// maxSegments is the largest per-node count of WAL segments the run left on
// disk: compaction must have deleted every segment the previous snapshot
// already covers.
func maxSegments(r *cellRun) int64 {
	fs := r.cfg.WALFS
	if fs == nil {
		fs = wal.OSFS()
	}
	segs := 0
	for i := 0; i < r.res.Params.N; i++ {
		segs = max(segs, wal.SegmentCount(fs, runtime.WALPath(r.cfg.WALDir, dist.ProcID(i))))
	}
	return int64(segs)
}
