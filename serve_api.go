package chc

import (
	"chc/internal/service"
)

// Consensus as a service: the engine run as a resident daemon. One warm
// cluster serves a stream of heterogeneous instances submitted over Go
// calls or the HTTP/JSON API, with admission control, retention-based
// eviction of finished results, and graceful drain. Command chcd is the
// stand-alone daemon built on this API.
type (
	// ServiceConfig describes a resident service: cluster shape, fault
	// stack, admission limits, and result retention.
	ServiceConfig = service.Config

	// ServiceServer is a running resident service.
	ServiceServer = service.Server

	// ServiceAPIConfig tunes the HTTP front end of a service (bind
	// address, bearer token, TLS key pair).
	ServiceAPIConfig = service.APIConfig

	// ServiceAPI is the bound HTTP front end of a service.
	ServiceAPI = service.API

	// ServiceStatus describes one submission's lifecycle state and result.
	ServiceStatus = service.Status

	// ServiceInstanceState is the service-level lifecycle of a submission:
	// queued → running → decided/failed → evicted.
	ServiceInstanceState = service.InstanceState
)

// Service lifecycle states.
const (
	ServiceQueued  = service.StateQueued
	ServiceRunning = service.StateRunning
	ServiceDecided = service.StateDecided
	ServiceFailed  = service.StateFailed
	ServiceEvicted = service.StateEvicted
)

// Service admission errors. The HTTP layer maps ErrServiceOverloaded to
// status 429 and ErrServiceDraining to 503.
var (
	ErrServiceOverloaded = service.ErrOverloaded
	ErrServiceDraining   = service.ErrDraining
)

// Serve starts a resident consensus service: a warm cluster of cfg.N
// processes that accepts instances until Drain. Submissions run immediately
// while fewer than cfg.MaxActive are in flight, queue up to cfg.MaxQueue,
// and are rejected with ErrServiceOverloaded beyond that.
//
//	srv, err := chc.Serve(chc.ServiceConfig{N: 5, Transport: chc.TCP})
//	id, _, err := srv.Submit(chc.BatchInstance{Params: params, Inputs: inputs})
//	status, _, err := srv.Watch(id, time.Minute)   // status.Result.Outputs
//	err = srv.Drain(0)                             // graceful shutdown
//	err = srv.Close()
func Serve(cfg ServiceConfig) (*ServiceServer, error) {
	return service.New(cfg)
}
