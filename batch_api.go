package chc

import (
	"chc/internal/byzantine"
	"chc/internal/diskfault"
	"chc/internal/multiplex"
	"chc/internal/wal"
)

// Batch execution: many independent consensus instances multiplexed over
// one network, the way a deployed system amortises its connections across
// agreement tasks.
type (
	// BatchInstance is one consensus instance of a batch.
	BatchInstance = multiplex.Instance

	// BatchConfig describes a batch execution.
	BatchConfig = multiplex.BatchConfig

	// BatchResult aggregates per-instance outputs (instance index ->
	// process -> decision), decided rounds, and run statistics.
	BatchResult = multiplex.BatchResult

	// BatchProtocol selects the state machine a batch instance runs.
	BatchProtocol = multiplex.ProtocolKind

	// BatchFault assigns a Byzantine behaviour to one process of a
	// BatchCompiledByzantine instance.
	BatchFault = byzantine.Fault

	// WALFileSystem is the filesystem the write-ahead logs write through
	// (Env.WALFS); nil means the host filesystem. See DiskFaultFS.
	WALFileSystem = wal.FS

	// WALCheckpointPolicy configures WAL snapshot + segment rotation
	// (Env.Checkpoint); the zero value disables checkpointing.
	WALCheckpointPolicy = wal.CheckpointPolicy
)

// Protocols a batch instance can run.
const (
	// BatchCC runs Algorithm CC (the default).
	BatchCC = multiplex.ProtocolCC
	// BatchVector runs the approximate vector consensus baseline.
	BatchVector = multiplex.ProtocolVector
	// BatchByzantine runs the crash→Byzantine transformation (n >= 3f+1).
	BatchByzantine = multiplex.ProtocolByzantine
)

// DiskFaultFS wraps the host filesystem in seeded, deterministic storage
// fault injection for Env.WALFS. Requires Env.WALDir.
func DiskFaultFS(plan DiskFaultPlan) WALFileSystem {
	return diskfault.New(wal.OSFS(), plan)
}

// RunBatch executes every instance of the batch concurrently over one
// network. Messages carry their instance index, so the protocols cannot
// interfere; a crash kills every instance hosted by that process, as it
// would in a real deployment. The batch runs over the transport selected by
// cfg.Transport — simulator by default, or the networked runtimes with
// chaos injection, write-ahead logging and crash recovery available.
func RunBatch(cfg BatchConfig) (*BatchResult, error) {
	return multiplex.RunBatch(cfg)
}
