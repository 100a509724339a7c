// Package envflag binds the cluster-environment command-line flags of
// chcrun, chcd and chcsoak once: one name, default, grammar and help string
// per flag, parsed into one runtime.Env.
package envflag

import (
	"flag"
	"fmt"
	"os"
	"time"

	"chc/internal/chaos"
	"chc/internal/diskfault"
	"chc/internal/engine"
	"chc/internal/netfault"
	"chc/internal/runtime"
	"chc/internal/wal"
	"chc/internal/wan"
)

// Group opts a command into flags beyond the three every command has
// (-wan, -wan-seed, -wal-dir).
type Group uint

const (
	// Chaos adds -chaos and -chaos-seed.
	Chaos Group = 1 << iota
	// Checkpoint adds -wal-checkpoint.
	Checkpoint
	// Retire adds -wal-retire, the resident daemons' retention horizon.
	Retire
	// Faults adds chcrun's storage, wire and durability flags: -disk-faults,
	// -disk-seed, -net-faults, -net-seed, -wire-coalesce, -wire-compress,
	// -durability.
	Faults
)

// Bound is what the parsed flags describe.
type Bound struct {
	// Env is validated for the transport; its WALDir exists.
	Env runtime.Env
	// WALRetire is -wal-retire (a service setting, not environment), 0
	// without -wal-dir.
	WALRetire int
	// Disk is -disk-faults as parsed, for callers that hand a plan rather
	// than Env.WALFS on.
	Disk diskfault.Plan
}

// Bind registers the environment flags of the selected groups on fs and
// returns the function that, after fs.Parse, parses the specs, validates the
// environment against the transport the command chose, and creates -wal-dir.
// Disabled plans ("off") stay in the Env: the engine treats them as absent.
func Bind(fs *flag.FlagSet, groups Group) func(engine.Transport) (Bound, error) {
	wanSpec := fs.String("wan", "off", "wide-area link model: off, a topology (3-regions|us-eu-ap|star|clos), or topo,regions=R,delay=S,jitter=J,tail=P,bw=RATE,cut=us->eu@LO-HI (simulator: deterministic virtual-time schedule; inproc/tcp: wall-clock shaping)")
	wanSeed := fs.Int64("wan-seed", 1, "seed for the deterministic WAN delay schedule")
	walDir := fs.String("wal-dir", "", "journal protocol state to per-process write-ahead logs in this directory, created if missing (inproc/tcp only)")
	// A flag outside the selected groups keeps its default.
	var (
		chaosSpec, diskSpec, netSpec = "off", "off", "off"
		chaosSeed, diskSeed, netSeed int64
		walCheckpoint                int64
		walRetire                    int
		wireCoalesce, durability     = "on", "failstop"
		wireCompress                 bool
	)
	if groups&Chaos != 0 {
		fs.StringVar(&chaosSpec, "chaos", "off", "network fault profile: off|light|heavy or drop=P,dup=P,delay=LO-HI,part=LO-HI:ID+ID (inproc/tcp only)")
		fs.Int64Var(&chaosSeed, "chaos-seed", 1, "seed for the deterministic chaos fault plan")
	}
	if groups&Checkpoint != 0 {
		fs.Int64Var(&walCheckpoint, "wal-checkpoint", 0, "rotate each WAL into segments and publish a full-history snapshot whenever its live file exceeds this many bytes; 0 disables (requires -wal-dir)")
	}
	if groups&Retire != 0 {
		fs.IntVar(&walRetire, "wal-retire", 64, "WAL retention horizon: checkpoint and compact every journal after this many retired instances; 0 disables (requires -wal-dir)")
	}
	if groups&Faults != 0 {
		fs.StringVar(&diskSpec, "disk-faults", "off", "storage fault plan against the WALs: off|flaky|sick or werr=P,nospc=P,torn=P,syncerr=P,slow=P:LO-HI,cut=N,path=SUBSTR,after=K (requires -wal-dir)")
		fs.Int64Var(&diskSeed, "disk-seed", 1, "seed for the deterministic storage fault schedule")
		fs.StringVar(&netSpec, "net-faults", "off", "byte-stream corruption against the TCP links: off|flaky|hostile or flip=P,garbage=P,lenmut=P,trunc=P,reset=P,stall=P:LO-HI,window=N,link=SUBSTR,after=K (requires -transport tcp)")
		fs.Int64Var(&netSeed, "net-seed", 1, "seed for the deterministic wire fault schedule")
		fs.StringVar(&wireCoalesce, "wire-coalesce", "on", "TCP frame coalescing: on (flush immediately per writer wakeup) | a flush-deadline duration like 200us that lets batches accumulate (requires -transport tcp when not \"on\")")
		fs.BoolVar(&wireCompress, "wire-compress", false, "negotiate flate compression of coalesced frame batches on the TCP links (requires -transport tcp)")
		fs.StringVar(&durability, "durability", "failstop", "policy when a WAL stops accepting writes: failstop (node becomes a crash fault) | degrade (node quarantines non-durably and re-arms with backoff)")
	}

	return func(t engine.Transport) (Bound, error) {
		chaosProfile, err := chaos.ParseProfile(chaosSpec)
		if err != nil {
			return Bound{}, fmt.Errorf("-chaos: %w", err)
		}
		wanPlan, err := wan.ParsePlan(*wanSpec)
		if err != nil {
			return Bound{}, fmt.Errorf("-wan: %w", err)
		}
		diskPlan, err := diskfault.ParsePlan(diskSpec)
		if err != nil {
			return Bound{}, fmt.Errorf("-disk-faults: %w", err)
		}
		diskPlan.Seed = diskSeed
		netPlan, err := netfault.ParsePlan(netSpec)
		if err != nil {
			return Bound{}, fmt.Errorf("-net-faults: %w", err)
		}
		netPlan.Seed = netSeed
		wireCfg := runtime.WireConfig{Compress: wireCompress}
		if wireCoalesce != "on" {
			dl, derr := time.ParseDuration(wireCoalesce)
			if derr != nil || dl < 0 {
				return Bound{}, fmt.Errorf("-wire-coalesce: want on or a flush-deadline duration, got %q", wireCoalesce)
			}
			wireCfg.FlushDeadline = dl
		}
		b := Bound{Disk: diskPlan, Env: runtime.Env{
			Chaos:      &chaosProfile,
			ChaosSeed:  chaosSeed,
			NetFaults:  &netPlan,
			Wire:       &wireCfg,
			WAN:        &wanPlan,
			WANSeed:    *wanSeed,
			WALDir:     *walDir,
			Checkpoint: wal.CheckpointPolicy{EveryBytes: walCheckpoint},
		}}
		switch durability {
		case "failstop":
		case "degrade":
			b.Env.Durability = runtime.Degrade
		default:
			return Bound{}, fmt.Errorf("-durability: unknown policy %q (failstop|degrade)", durability)
		}
		if diskPlan.Enabled() {
			b.Env.WALFS = diskfault.New(wal.OSFS(), diskPlan)
		}
		if err := b.Env.Validate(t); err != nil {
			return Bound{}, err
		}
		if *walDir != "" {
			b.WALRetire = walRetire
			if err := os.MkdirAll(*walDir, 0o700); err != nil {
				return Bound{}, fmt.Errorf("-wal-dir: %w", err)
			}
		}
		return b, nil
	}
}
