// Command chcd runs the consensus engine as a resident daemon: one warm
// cluster of n processes serving a stream of consensus instances over an
// HTTP/JSON API, with admission control, result retention, optional bearer
// auth and TLS, and graceful drain on SIGTERM/SIGINT.
//
// Usage examples:
//
//	chcd -n 5 -addr 127.0.0.1:8080
//	chcd -n 5 -transport tcp -wal-dir /var/lib/chc -addr :8080
//	chcd -n 5 -addr :8443 -cert server.pem -key server.key -token $TOKEN
//	chcd -n 5 -addr :8080 -metrics-addr :9100 -max-active 32 -max-queue 128
//	chcd -n 6 -addr :8080 -wan us-eu-ap -wan-seed 3 -instance-deadline 2m
//
// The API:
//
//	POST /v1/instances             submit an instance (JSON body), 202 with {id}
//	GET  /v1/instances/{id}        current status (+ result once decided)
//	GET  /v1/instances/{id}/watch  long-poll until terminal (timeout_ms=N)
//	GET  /v1/healthz               admission funnel counters (503 while draining)
//
// On SIGTERM/SIGINT the daemon stops admitting (503), finishes queued and
// running instances, closes the cluster's instance stream — checkpointing
// WALs when journaling is on — and exits 0. A second signal forces exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"chc/internal/engine"
	"chc/internal/envflag"
	"chc/internal/service"
	"chc/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "chcd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal drains it.
// When ready is non-nil, the bound API address is sent on it once the
// daemon is accepting submissions (the smoke test uses this).
func run(args []string, w io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("chcd", flag.ContinueOnError)
	var (
		n            = fs.Int("n", 5, "number of processes in the resident cluster")
		transport    = fs.String("transport", "inproc", "cluster transport: inproc|tcp")
		addr         = fs.String("addr", "127.0.0.1:8080", "service API bind address (host:port; port 0 picks a free port)")
		token        = fs.String("token", "", "require `Authorization: Bearer <token>` on every API request")
		certFile     = fs.String("cert", "", "serve the API over TLS with this certificate (requires -key)")
		keyFile      = fs.String("key", "", "TLS private key for -cert")
		maxActive    = fs.Int("max-active", 64, "maximum concurrently running instances")
		maxQueue     = fs.Int("max-queue", 256, "maximum queued instances; submissions beyond active+queued get 429")
		retention    = fs.Duration("retention", 10*time.Minute, "how long finished results stay queryable before eviction")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain after SIGTERM")
		deadline     = fs.Duration("instance-deadline", 0, "abort instances still undecided after this long (outcome \"deadline\"); 0 disables")
		metricsAddr  = fs.String("metrics-addr", "", "enable telemetry and serve /metrics, /runs, /debug/pprof on this address")
		metricsToken = fs.String("metrics-token", "", "bearer token for the telemetry server (defaults to -token)")
	)
	bindEnv := envflag.Bind(fs, envflag.Chaos|envflag.Checkpoint|envflag.Retire)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := service.Config{
		N:                *n,
		MaxActive:        *maxActive,
		MaxQueue:         *maxQueue,
		Retention:        *retention,
		DrainTimeout:     *drainTimeout,
		InstanceDeadline: *deadline,
	}
	switch *transport {
	case "inproc":
		cfg.Transport = engine.TransportChannel
	case "tcp":
		cfg.Transport = engine.TransportTCP
	default:
		return fmt.Errorf("-transport: unknown transport %q (inproc|tcp)", *transport)
	}
	bound, err := bindEnv(cfg.Transport)
	if err != nil {
		return err
	}
	cfg.Env, cfg.WALRetire = bound.Env, bound.WALRetire

	if *metricsAddr != "" {
		mtok := *metricsToken
		if mtok == "" {
			mtok = *token
		}
		msrv, err := telemetry.EnsureServerWith(telemetry.ServerConfig{
			Addr: *metricsAddr, Token: mtok, CertFile: *certFile, KeyFile: *keyFile,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "chcd: telemetry on %s\n", msrv.URL())
	}

	srv, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	api, err := srv.ServeAPI(service.APIConfig{
		Addr: *addr, Token: *token, CertFile: *certFile, KeyFile: *keyFile,
	})
	if err != nil {
		return err
	}
	defer api.Close()

	fmt.Fprintf(w, "chcd: n=%d transport=%s serving on %s\n", *n, *transport, api.URL())
	if cfg.WAN.Enabled() {
		fmt.Fprintf(w, "chcd: wan model %s seed=%d\n", cfg.WAN.String(), cfg.WANSeed)
	}
	if ready != nil {
		ready <- api.Addr()
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigs)
	sig := <-sigs
	fmt.Fprintf(w, "chcd: %v, draining (timeout %v)\n", sig, *drainTimeout)

	// A second signal aborts the drain.
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(*drainTimeout) }()
	select {
	case err := <-drained:
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	case sig := <-sigs:
		return fmt.Errorf("forced shutdown on second signal %v", sig)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintln(w, "chcd: drained, bye")
	return nil
}
