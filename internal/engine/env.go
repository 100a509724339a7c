package engine

import (
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
