package runtime

import (
	"fmt"

	"chc/internal/chaos"
	"chc/internal/netfault"
	"chc/internal/wal"
	"chc/internal/wan"
)

// Transport selects the executor.
type Transport int

// Available executors. The zero value is the deterministic simulator, so
// configurations that predate the unified engine keep their meaning. The
// simulator lives in package dist; it is named here because Env.Validate
// states its rules too.
const (
	// TransportSim is the single-threaded discrete-event simulator:
	// scheduler-driven delivery order, reproducible per seed.
	TransportSim Transport = iota
	// TransportChannel runs one goroutine per process over in-memory
	// mailboxes (real concurrency, no sockets).
	TransportChannel
	// TransportTCP runs one goroutine per process over loopback TCP with
	// the wire codec and the reliable-link layer always active.
	TransportTCP
)

// String names the transport.
func (t Transport) String() string {
	switch t {
	case TransportSim:
		return "sim"
	case TransportChannel:
		return "channel"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// Env is the environment a cluster runs in — the paper's system model made
// adversarial: what the links do to traffic, and what survives a node. It is
// declared here once; Config, engine.Options, engine.ResidentOptions,
// multiplex.BatchConfig and service.Config embed it, so each layer forwards
// it whole (Env: cfg.Env) and callers reach its fields by promotion; chc.Env
// names it in the public API and envflag.Bound carries the one parsed from
// flags. Process crash-stop faults (Crashes) are the
// paper's fault budget, not environment, and stay on the embedding structs.
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

	// Wire tunes the TCP write path: frame coalescing (the default) and the
	// flush-deadline batching window. TCP only.
	Wire *WireConfig

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
	Durability DurabilityPolicy
	// Restarts schedules crash-recovery faults: kill after a send budget,
	// relaunch from the WAL. Requires WALDir.
	Restarts []RestartPlan
}

// HasWAN reports whether the environment shapes links through a WAN model.
func (e Env) HasWAN() bool { return e.WAN != nil && e.WAN.Enabled() }

func (e Env) hasChaos() bool     { return e.Chaos != nil && e.Chaos.Enabled() }
func (e Env) hasNetFaults() bool { return e.NetFaults != nil && e.NetFaults.Enabled() }
func (e Env) hasWire() bool      { return e.Wire != nil && *e.Wire != WireConfig{} }

// Validate is the single home of the transport and cross-field rules of an
// environment. NewChannelCluster and NewTCPCluster call it, and so do the
// engine entry points, which also cover the simulator; envflag calls it too,
// to refuse a misplaced flag before it creates -wal-dir. Configuration is
// outside input, so every rule rejects with an error naming the field.
func (e Env) Validate(t Transport) error {
	if t != TransportSim && t != TransportChannel && t != TransportTCP {
		return fmt.Errorf("runtime: unknown transport %d", int(t))
	}
	type rule struct {
		set   bool
		field string
	}
	for _, r := range []rule{{e.hasNetFaults(), "NetFaults"}, {e.hasWire(), "Wire"}} {
		if r.set && t != TransportTCP {
			return fmt.Errorf("runtime: %s needs the TCP transport (the %v transport has no byte streams)", r.field, t)
		}
	}
	for _, r := range []rule{{e.hasChaos(), "Chaos"}, {e.WALDir != "", "WALDir"}, {len(e.Restarts) > 0, "Restarts"}} {
		if r.set && t == TransportSim {
			return fmt.Errorf("runtime: %s needs a networked transport (the simulator has no link layer and no journals)", r.field)
		}
	}
	for _, r := range []rule{
		{len(e.Restarts) > 0, "Restarts"},
		{e.WALFS != nil, "WALFS"},
		{e.Checkpoint.Enabled(), "Checkpoint"},
		{e.Durability != FailStop, "Durability"},
	} {
		if r.set && e.WALDir == "" {
			return fmt.Errorf("runtime: %s requires WALDir", r.field)
		}
	}
	return nil
}
