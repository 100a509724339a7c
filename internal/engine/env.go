package engine

import (
	"time"

	"chc/internal/dist"
	"chc/internal/runtime"
)

// Transport selects the executor. It is declared in package runtime, beside
// the environment whose rules depend on it.
type Transport = runtime.Transport

// Available executors (see runtime.Transport).
const (
	TransportSim     = runtime.TransportSim
	TransportChannel = runtime.TransportChannel
	TransportTCP     = runtime.TransportTCP
)

// newCluster builds the networked cluster for a validated transport.
func newCluster(t Transport, procs []dist.Process, cfg runtime.Config) (*runtime.Cluster, error) {
	if t == TransportTCP {
		return runtime.NewTCPCluster(procs, cfg)
	}
	return runtime.NewChannelCluster(procs, cfg)
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
