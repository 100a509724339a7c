package chc

import (
	"chc/internal/byzantine"
	"chc/internal/diskfault"
	"chc/internal/engine"
	"chc/internal/multiplex"
	"chc/internal/runtime"
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

	// Env is the cluster environment BatchConfig and ServiceConfig embed:
	// chaos, wire faults and tuning, the WAN model, write-ahead logging,
	// checkpointing, durability and restarts. Its fields are promoted
	// (cfg.WALDir = dir); a keyed literal names it once,
	// BatchConfig{N: 5, Env: Env{WALDir: dir}}. Which transport accepts
	// which field is validated in one place when the cluster starts.
	Env = runtime.Env

	// BatchResult aggregates per-instance outputs (instance index ->
	// process -> decision), decided rounds, and run statistics.
	BatchResult = multiplex.BatchResult

	// BatchProtocol selects the state machine a batch instance runs.
	BatchProtocol = multiplex.ProtocolKind

	// BatchTransport selects the executor a batch runs over.
	BatchTransport = engine.Transport

	// BatchFault assigns a Byzantine behaviour to one process of a
	// BatchCompiledByzantine instance.
	BatchFault = byzantine.Fault

	// WALFileSystem is the filesystem the write-ahead logs write through
	// (BatchConfig.WALFS); nil means the host filesystem. See DiskFaultFS.
	WALFileSystem = wal.FS

	// WALCheckpointPolicy configures WAL snapshot + segment rotation
	// (BatchConfig.Checkpoint); the zero value disables checkpointing.
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

// Transports a batch can run over.
const (
	// BatchSim is the deterministic simulator (the default): delivery order
	// is a reproducible function of BatchConfig.Seed.
	BatchSim = engine.TransportSim
	// BatchInProcess runs one goroutine per process over in-memory
	// mailboxes.
	BatchInProcess = engine.TransportChannel
	// BatchTCP runs one goroutine per process over loopback TCP with the
	// wire codec and the reliable-link layer always active.
	BatchTCP = engine.TransportTCP
)

// DiskFaultFS wraps the host filesystem in seeded, deterministic storage
// fault injection for BatchConfig.WALFS — the batch counterpart of
// WithDiskFaults. Requires BatchConfig.WALDir.
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
