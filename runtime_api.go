package chc

import (
	"chc/internal/chaos"
	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/netfault"
	"chc/internal/runtime"
)

// Transport selects the executor a run or batch executes on
// (RunConfig.Transport, BatchConfig.Transport, ServiceConfig.Transport).
type Transport = engine.Transport

// Available transports.
const (
	// Simulator is the deterministic discrete-event simulator, the zero
	// value of RunConfig.Transport and BatchConfig.Transport: delivery order
	// is a reproducible function of the seed or the Scheduler. A service is
	// a live cluster the simulator cannot host, so on
	// ServiceConfig.Transport it means InProcess.
	Simulator = engine.TransportSim
	// InProcess connects processes with in-memory mailboxes, one goroutine
	// per process (real concurrency, no sockets).
	InProcess = engine.TransportChannel
	// TCP connects processes over loopback TCP sockets using the library's
	// binary wire format, with the reliable-link layer (sequence numbers,
	// acks, retransmission, reconnect) always active.
	TCP = engine.TransportTCP
)

// Env is the cluster environment RunConfig, BatchConfig and ServiceConfig
// embed: chaos, wire faults and tuning, the WAN model, write-ahead logging,
// checkpointing, durability and restarts. Its fields are promoted
// (cfg.WALDir = dir); a keyed literal names it once,
// RunConfig{Transport: InProcess, Env: Env{WALDir: dir}}. Which transport
// accepts which field is validated in one place when the run or cluster
// starts.
type Env = runtime.Env

// RestartPlan is a crash-recovery fault (Env.Restarts): the process is
// killed after KillAfterSends protocol sends — possibly mid-broadcast — kept
// down for Downtime, then relaunched from its write-ahead log with a new
// incarnation epoch. Requires Env.WALDir. A restarted process is a correct
// process: it decides, and every paper guarantee must hold for its output.
type RestartPlan = runtime.RestartPlan

// ChaosProfile describes injected network faults (Env.Chaos): per-frame
// drop and duplication probabilities, bounded random delays, and transient
// link partitions. See LightChaos, HeavyChaos and ParseChaosProfile.
type ChaosProfile = chaos.Profile

// ChaosPartition is a timed link cut inside a ChaosProfile.
type ChaosPartition = chaos.Partition

// NetStats carries the link-layer counters of a networked run: reliability
// work (retransmits, duplicate suppression, reordering), injected chaos
// faults, and TCP link repair.
type NetStats = dist.NetStats

// LightChaos returns a mild fault profile (occasional drops and duplicates,
// sub-millisecond delays).
func LightChaos() ChaosProfile { return chaos.Light() }

// HeavyChaos returns the acceptance profile of the chaos matrix: >= 20%
// drops, duplication, delay jitter and a transient partition of process 0.
func HeavyChaos() ChaosProfile { return chaos.Heavy() }

// ParseChaosProfile parses "off", "light", "heavy", or a custom
// "drop=0.2,dup=0.1,delay=100us-2ms,part=5ms-25ms:0+1" specification
// (presets are refinable: "heavy,drop=0.3").
func ParseChaosProfile(spec string) (ChaosProfile, error) { return chaos.ParseProfile(spec) }

// WireConfig tunes the TCP transport's write path (Env.Wire): the
// flush-deadline batching window of its per-link frame coalescing. The zero
// value is the default production configuration.
type WireConfig = runtime.WireConfig

// DiskFaultPlan describes seeded, deterministic storage-fault injection
// against the write-ahead logs (Env.WALFS = DiskFaultFS(plan)): write errors, ENOSPC, torn writes, fsync
// failures and latency spikes, and a power cut after a byte budget. The
// fate of every I/O operation is a pure function of (seed, file, op kind,
// op index), so a failing run replays exactly. See FlakyDisk, SickDisk and
// ParseDiskFaultPlan.
type DiskFaultPlan = diskfault.Plan

// FlakyDisk returns a mild storage-fault plan (rare write/fsync errors,
// occasional sub-millisecond fsync stalls).
func FlakyDisk() DiskFaultPlan { return diskfault.Flaky() }

// SickDisk returns an aggressive storage-fault plan (frequent write errors,
// torn writes, failing and stalling fsyncs).
func SickDisk() DiskFaultPlan { return diskfault.Sick() }

// ParseDiskFaultPlan parses "off", "flaky", "sick", or a custom
// "werr=0.05,torn=0.02,syncerr=0.1,slow=0.05:1ms-5ms,cut=65536,path=node-001,after=32"
// specification (presets are refinable: "sick,syncerr=0.5").
func ParseDiskFaultPlan(spec string) (DiskFaultPlan, error) { return diskfault.ParsePlan(spec) }

// DurabilityPolicy decides what a node does when its write-ahead log stops
// accepting writes (Env.Durability; requires Env.WALDir). See FailStop and
// Degrade. Nodes still quarantined when the run ends are listed in
// RunResult.Degraded.
type DurabilityPolicy = runtime.DurabilityPolicy

// Durability policies (Env.Durability).
const (
	// FailStop (default): a node that cannot journal crashes on the spot,
	// consuming one of the f crash faults the protocol tolerates.
	FailStop = runtime.FailStop
	// Degrade: the node quarantines into non-durable mode, keeps
	// participating, and a background loop re-arms the WAL with backoff;
	// a successful re-arm restores full durability including the
	// degraded-window deliveries.
	Degrade = runtime.Degrade
)

// NetFaultPlan describes seeded, deterministic byte-stream corruption
// against the TCP links (Env.NetFaults; TCP only): bit flips, garbage injection, length-prefix
// mutation, truncation, mid-frame connection resets and read/write stalls.
// The fate of every byte window on a link is a pure function of
// (seed, link, window index), so a failing run replays exactly. See
// FlakyNet, HostileNet and ParseNetFaultPlan.
type NetFaultPlan = netfault.Plan

// FlakyNet returns a mild wire-fault plan (rare bit flips, occasional lost
// tails and sub-millisecond stalls).
func FlakyNet() NetFaultPlan { return netfault.Flaky() }

// HostileNet returns an aggressive wire-fault plan (frequent flips, garbage
// injection, length-prefix mutation, truncations and mid-frame resets).
func HostileNet() NetFaultPlan { return netfault.Hostile() }

// ParseNetFaultPlan parses "off", "flaky", "hostile", or a custom
// "flip=0.05,garbage=0.02,lenmut=0.01,trunc=0.02,reset=0.005,stall=0.02:100us-2ms,window=256,link=0->1,after=2048"
// specification (presets are refinable: "hostile,reset=0.1").
func ParseNetFaultPlan(spec string) (NetFaultPlan, error) { return netfault.ParsePlan(spec) }
