package engine

import (
	"fmt"
	"time"

	"chc/internal/chaos"
	"chc/internal/dist"
	"chc/internal/netfault"
	"chc/internal/runtime"
	"chc/internal/wal"
	"chc/internal/wan"
)

// Env is the environment a cluster runs in — the paper's system model made
// adversarial: what the links do to traffic, and what survives a node. It is
// declared here once; Options, ResidentOptions, multiplex.BatchConfig,
// multiplex.SessionConfig and service.Config embed it, so each layer forwards
// it whole (Env: cfg.Env) and callers reach its fields by promotion. Process
// crash-stop faults (Crashes) are the paper's fault budget, not environment,
// and stay on the embedding structs.
//
// A nil plan pointer and a plan that injects nothing (chaos "off", a zero
// WireConfig) both mean absent: they are accepted on every transport and
// insert no machinery.
type Env struct {
	// Chaos injects seeded frame faults (drops, duplication, delays,
	// partitions) below the reliable-link layer. Networked transports.
	Chaos     *chaos.Profile
	ChaosSeed int64

	// NetFaults corrupts the raw byte streams under the wire codec,
	// deterministic per (seed, link, byte window). TCP only — the other
	// transports exchange structured messages, not bytes.
	NetFaults *netfault.Plan

	// Wire tunes the TCP write path: frame coalescing (the default), the
	// flush-deadline batching window, per-batch compression. TCP only.
	Wire *runtime.WireConfig

	// WAN shapes every link through a wide-area model (geo-topology delay
	// matrix, jitter and heavy tails, bandwidth queueing, one-way partition
	// windows). All transports: the simulator runs it as a virtual-time
	// scheduler, bitwise-deterministic per WANSeed; the networked runtimes
	// shape on the wall clock. Delay-only, so it composes with every fault.
	WAN     *wan.Plan
	WANSeed int64

	// WALDir enables write-ahead logging: each node journals its deliveries
	// (and, on a resident cluster, its instance lifecycle) so it can be
	// rebuilt mid-protocol. Networked transports.
	WALDir string
	// WALFS is the filesystem the journals write through (nil = host); a
	// diskfault.FS here injects storage faults. Requires WALDir.
	WALFS wal.FS
	// Checkpoint enables WAL snapshot + segment rotation, bounding replay
	// work and on-disk size. Requires WALDir.
	Checkpoint wal.CheckpointPolicy
	// Durability decides what a node does when its journal stops accepting
	// writes: fail-stop (default) or degrade and re-arm. Requires WALDir.
	Durability runtime.DurabilityPolicy
	// Restarts schedules crash-recovery faults: kill after a send budget,
	// relaunch from the WAL. Requires WALDir.
	Restarts []runtime.RestartPlan
}

func (e Env) hasChaos() bool     { return e.Chaos != nil && e.Chaos.Enabled() }
func (e Env) hasNetFaults() bool { return e.NetFaults != nil && e.NetFaults.Enabled() }
func (e Env) hasWire() bool      { return e.Wire != nil && *e.Wire != runtime.WireConfig{} }
func (e Env) hasWAN() bool       { return e.WAN != nil && e.WAN.Enabled() }

// Validate is the single home of the transport and cross-field rules of an
// environment; Run and StartResident call it, so only a caller with no engine
// entry point to hand the Env to (envflag, for chcrun's single-instance
// simulator path) calls it itself. Configuration is outside input, so every rule rejects
// with an error naming the field.
func (e Env) Validate(t Transport) error {
	if t != TransportSim && t != TransportChannel && t != TransportTCP {
		return fmt.Errorf("engine: unknown transport %d", int(t))
	}
	type rule struct {
		set   bool
		field string
	}
	for _, r := range []rule{{e.hasNetFaults(), "NetFaults"}, {e.hasWire(), "Wire"}} {
		if r.set && t != TransportTCP {
			return fmt.Errorf("engine: %s needs the TCP transport (the %v transport has no byte streams)", r.field, t)
		}
	}
	for _, r := range []rule{{e.hasChaos(), "Chaos"}, {e.WALDir != "", "WALDir"}, {len(e.Restarts) > 0, "Restarts"}} {
		if r.set && t == TransportSim {
			return fmt.Errorf("engine: %s needs a networked transport (the simulator has no link layer and no journals)", r.field)
		}
	}
	for _, r := range []rule{
		{len(e.Restarts) > 0, "Restarts"},
		{e.WALFS != nil, "WALFS"},
		{e.Checkpoint.Enabled(), "Checkpoint"},
		{e.Durability != runtime.FailStop, "Durability"},
	} {
		if r.set && e.WALDir == "" {
			return fmt.Errorf("engine: %s requires WALDir", r.field)
		}
	}
	return nil
}

// options is the one translation of an environment into runtime options,
// shared by Run and StartResident. rc carries the caller's half of the
// recovery configuration (process factory, relaunch hooks); the journal
// settings come from e.
func (e Env) options(sizer func(dist.Message) int, crashes []dist.CrashPlan, rc runtime.RecoveryConfig) []runtime.Option {
	opts := []runtime.Option{runtime.WithSizer(sizer), runtime.WithCrashes(crashes...), runtime.WithRestarts(e.Restarts...)}
	if e.WALDir != "" {
		rc.Dir, rc.FS, rc.Checkpoint, rc.Durability = e.WALDir, e.WALFS, e.Checkpoint, e.Durability
		opts = append(opts, runtime.WithRecovery(rc))
	}
	if e.hasChaos() {
		opts = append(opts, runtime.WithChaos(*e.Chaos, e.ChaosSeed))
	}
	if e.hasNetFaults() {
		opts = append(opts, runtime.WithNetFaults(*e.NetFaults))
	}
	if e.hasWire() {
		opts = append(opts, runtime.WithWire(*e.Wire))
	}
	if e.hasWAN() {
		opts = append(opts, runtime.WithWAN(*e.WAN, e.WANSeed))
	}
	return opts
}

// newCluster builds the networked cluster for a validated transport.
func newCluster(t Transport, procs []dist.Process, opts []runtime.Option) (*runtime.Cluster, error) {
	if t == TransportTCP {
		return runtime.NewTCPCluster(procs, opts...)
	}
	return runtime.NewChannelCluster(procs, opts...)
}

// RestartPlans converts crash plans into crash-recovery faults: each planned
// crash kills the node at the same send budget, and instead of staying down
// it is relaunched from its write-ahead log after downtime.
func RestartPlans(crashes []dist.CrashPlan, downtime time.Duration) []runtime.RestartPlan {
	plans := make([]runtime.RestartPlan, len(crashes))
	for i, cp := range crashes {
		plans[i] = runtime.RestartPlan{Proc: cp.Proc, KillAfterSends: cp.AfterSends, Downtime: downtime}
	}
	return plans
}
