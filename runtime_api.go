package chc

import (
	"fmt"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/diskfault"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/netfault"
	"chc/internal/runtime"
	"chc/internal/wal"
)

// TransportKind selects how RunNetworked connects the processes.
type TransportKind int

// Available transports.
const (
	// InProcess connects processes with in-memory mailboxes, one goroutine
	// per process (real concurrency, no sockets).
	InProcess TransportKind = iota + 1
	// TCP connects processes over loopback TCP sockets using the library's
	// binary wire format, with the reliable-link layer (sequence numbers,
	// acks, retransmission, reconnect) always active.
	TCP
)

// engineTransport maps the public transport to the engine's executor.
func (t TransportKind) engineTransport() (engine.Transport, error) {
	switch t {
	case InProcess:
		return engine.TransportChannel, nil
	case TCP:
		return engine.TransportTCP, nil
	default:
		return 0, fmt.Errorf("chc: unknown transport %d", int(t))
	}
}

// ChaosProfile describes injected network faults for RunNetworked: per-frame
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

// NetworkOption tunes RunNetworked beyond the RunConfig.
type NetworkOption func(*networkOptions)

// networkOptions is the environment the options assemble (validated by the
// engine), plus the crash-recovery conversion RunNetworked applies itself.
type networkOptions struct {
	env         runtime.Env
	recover     bool
	recoverWait time.Duration
}

// WireConfig tunes the TCP transport's write path: the flush-deadline
// batching window of its per-link frame coalescing, and optional per-batch
// flate compression negotiated in the connection handshake. The zero value is the default
// production configuration. Usable both with WithWire and as
// BatchConfig.Wire.
type WireConfig = runtime.WireConfig

// WithWire applies a wire write-path configuration to the TCP transport.
// Requires the TCP transport — the other transports exchange structured
// messages, not framed bytes.
func WithWire(cfg WireConfig) NetworkOption {
	return func(o *networkOptions) { o.env.Wire = &cfg }
}

// WithNetworkChaos injects seeded network faults below the reliable-link
// layer (which is enabled automatically). The fault plan of every link is a
// deterministic function of the seed, so a failing run can be replayed.
func WithNetworkChaos(profile ChaosProfile, seed int64) NetworkOption {
	return func(o *networkOptions) { o.env.Chaos, o.env.ChaosSeed = &profile, seed }
}

// WithWAL journals every process's protocol-relevant state — input,
// delivered messages, incarnation epochs, decision — to per-process
// write-ahead logs in dir (one node-NNN.wal file each). Journaling forces
// the reliable-link layer: a delivery is fsynced before it is acknowledged,
// so a node killed at any instant can be reconstructed from its log.
func WithWAL(dir string) NetworkOption {
	return func(o *networkOptions) { o.env.WALDir = dir }
}

// WithCrashRecovery converts the RunConfig's crash plans from crash-stop
// faults into crash-recovery faults: each planned crash kills the node
// mid-protocol (possibly mid-broadcast), keeps it down for the given
// downtime, then relaunches it from its write-ahead log with a new
// incarnation epoch. Requires WithWAL. Recovered processes are correct
// processes — they decide, and every paper guarantee must hold for their
// outputs.
func WithCrashRecovery(downtime time.Duration) NetworkOption {
	return func(o *networkOptions) {
		o.recover = true
		o.recoverWait = downtime
	}
}

// DiskFaultPlan describes seeded, deterministic storage-fault injection
// against the write-ahead logs: write errors, ENOSPC, torn writes, fsync
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
// accepting writes. See FailStop and Degrade.
type DurabilityPolicy = runtime.DurabilityPolicy

// Durability policies for WithDurability.
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
// against the TCP links: bit flips, garbage injection, length-prefix
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

// WithNetFaults corrupts the raw byte streams under the wire codec with the
// given seeded plan. Requires the TCP transport — the other transports
// exchange structured messages, not bytes. Composable with WithNetworkChaos
// and WithDiskFaults: wire, link and storage fault schedules are independent
// deterministic functions of their seeds.
func WithNetFaults(plan NetFaultPlan) NetworkOption {
	return func(o *networkOptions) { o.env.NetFaults = &plan }
}

// WithDiskFaults injects seeded storage faults into every WAL write path.
// Requires WithWAL. Composable with WithNetworkChaos: network and storage
// fault schedules are independent deterministic functions of their seeds.
func WithDiskFaults(plan DiskFaultPlan) NetworkOption {
	return func(o *networkOptions) {
		if plan.Enabled() {
			o.env.WALFS = diskfault.New(wal.OSFS(), plan)
		}
	}
}

// WithWALCheckpoint bounds on-disk WAL size: whenever a node's live log
// exceeds everyBytes, it is rotated into a segment and a CRC-framed
// full-history snapshot is published atomically; compaction then deletes
// segments the previous snapshot already covers. Recovery replays snapshot +
// tail, falling back to the previous snapshot if the current one is torn.
// Requires WithWAL.
func WithWALCheckpoint(everyBytes int64) NetworkOption {
	return func(o *networkOptions) { o.env.Checkpoint = wal.CheckpointPolicy{EveryBytes: everyBytes} }
}

// WithDurability selects the degradation policy applied when a node's
// journal fails mid-run (default FailStop). Requires WithWAL. Nodes still
// quarantined when the run ends are listed in RunResult.Degraded.
func WithDurability(policy DurabilityPolicy) NetworkOption {
	return func(o *networkOptions) { o.env.Durability = policy }
}

// RunNetworked executes a convex hull consensus instance under real
// concurrency — one goroutine per process — over the selected transport
// (via the unified engine). Unlike Run, delivery order comes from actual
// goroutine and network scheduling, so executions are not reproducible;
// cfg.Seed and cfg.Scheduler are ignored (chaos fault plans, by contrast,
// are seeded and reproducible per link).
//
// The returned result carries outputs and traces; Crashed marks processes
// that did not finish (a scheduled crash, a dead disk under FailStop, the
// timeout), and a process that ended in failure instead is reported as the
// error, beside the partial result. Stats.Net exposes the link-layer counters
// (retransmits, duplicate suppressions, injected faults, reconnects) when the
// reliable-link layer was active.
func RunNetworked(cfg RunConfig, transport TransportKind, timeout time.Duration, opts ...NetworkOption) (*RunResult, error) {
	var netOpts networkOptions
	for _, o := range opts {
		o(&netOpts)
	}
	if netOpts.recover && netOpts.env.WALDir == "" {
		return nil, fmt.Errorf("chc: WithCrashRecovery requires WithWAL")
	}
	engTransport, err := transport.engineTransport()
	if err != nil {
		return nil, err
	}
	if netOpts.recover {
		// Crash-recovery kills are not crash-stop faults: the node comes
		// back and must behave as a correct process, so its crash plan is
		// detached before validation (which would otherwise require the
		// process to be declared faulty) and turned into restart plans.
		netOpts.env.Restarts = engine.RestartPlans(cfg.Crashes, netOpts.recoverWait)
		cfg.Crashes = nil
	}
	return core.RunOn(cfg, engine.Options{Transport: engTransport, Timeout: timeout, Env: netOpts.env})
}
