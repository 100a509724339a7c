package telemetry

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"crypto/tls"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// Server exposes a registry over HTTP: /metrics in Prometheus text format,
// /runs as a JSON snapshot of tracked runs, and the standard pprof handlers
// under /debug/pprof/.
type Server struct {
	reg  *Registry
	ln   net.Listener
	srv  *http.Server
	tls  bool
	done chan struct{}
}

// ServerConfig tunes the exposition server beyond the bind address.
type ServerConfig struct {
	// Addr is the host:port to bind; port 0 picks a free port.
	Addr string

	// Token, when non-empty, requires `Authorization: Bearer <token>` on
	// every request (compared in constant time; mismatches get 401).
	Token string

	// CertFile/KeyFile, when both set, serve TLS with that key pair.
	CertFile string
	KeyFile  string
}

// Handler builds the exposition mux for reg. The pprof handlers are wired
// explicitly so nothing registers on http.DefaultServeMux.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteText(w)
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(SnapshotRuns())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "chc telemetry\n\n/metrics\n/runs\n/debug/pprof/\n")
	})
	return mux
}

// RequireBearer wraps next so every request must carry
// `Authorization: Bearer <token>`. The comparison runs in constant time over
// SHA-256 digests, so neither token length nor a prefix match leaks through
// timing. An empty token returns next unwrapped.
func RequireBearer(token string, next http.Handler) http.Handler {
	if token == "" {
		return next
	}
	want := sha256.Sum256([]byte(token))
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		auth := r.Header.Get("Authorization")
		const prefix = "Bearer "
		if !strings.HasPrefix(auth, prefix) {
			w.Header().Set("WWW-Authenticate", `Bearer realm="chc"`)
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		got := sha256.Sum256([]byte(strings.TrimPrefix(auth, prefix)))
		if subtle.ConstantTimeCompare(want[:], got[:]) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="chc", error="invalid_token"`)
			http.Error(w, "unauthorized", http.StatusUnauthorized)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// ServeWith binds cfg.Addr (host:port; port 0 picks a free port), enables
// the registry, and serves the exposition endpoints, behind cfg's bearer
// token and TLS when set, until Close.
func ServeWith(reg *Registry, cfg ServerConfig) (*Server, error) {
	if (cfg.CertFile == "") != (cfg.KeyFile == "") {
		return nil, fmt.Errorf("telemetry: CertFile and KeyFile must be set together")
	}
	var tlsCfg *tls.Config
	if cfg.CertFile != "" {
		cert, err := tls.LoadX509KeyPair(cfg.CertFile, cfg.KeyFile)
		if err != nil {
			return nil, fmt.Errorf("telemetry: load key pair: %w", err)
		}
		tlsCfg = &tls.Config{Certificates: []tls.Certificate{cert}, MinVersion: tls.VersionTLS12}
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", cfg.Addr, err)
	}
	reg.SetEnabled(true)
	s := &Server{
		reg: reg,
		ln:  ln,
		srv: &http.Server{
			Handler:           RequireBearer(cfg.Token, Handler(reg)),
			ReadHeaderTimeout: 5 * time.Second,
			TLSConfig:         tlsCfg,
		},
		tls:  tlsCfg != nil,
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		if s.tls {
			_ = s.srv.ServeTLS(ln, "", "")
		} else {
			_ = s.srv.Serve(ln)
		}
	}()
	return s, nil
}

// Addr returns the bound address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base URL of the server.
func (s *Server) URL() string {
	if s.tls {
		return "https://" + s.Addr()
	}
	return "http://" + s.Addr()
}

// Close gracefully stops the server: it drains in-flight requests (bounded
// by a 5-second deadline, after which remaining connections are severed) and
// waits for the serve goroutine to exit, so a Close-then-assert test cannot
// observe the listener goroutine still running.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		// Deadline hit with connections still open: sever them.
		err = s.srv.Close()
	}
	<-s.done
	return err
}

var (
	serverMu     sync.Mutex
	activeServer *Server
)

// EnsureServer starts the process-wide exposition server for the default
// registry if none is running, and returns it. A second call returns the
// existing server regardless of addr, so every RunConfig/flag that mounts
// telemetry shares one listener.
func EnsureServer(addr string) (*Server, error) {
	return EnsureServerWith(ServerConfig{Addr: addr})
}

// EnsureServerWith is EnsureServer with auth and TLS options. The options
// apply only when this call starts the server; an already-running server is
// returned as-is.
func EnsureServerWith(cfg ServerConfig) (*Server, error) {
	serverMu.Lock()
	defer serverMu.Unlock()
	if activeServer != nil {
		return activeServer, nil
	}
	s, err := ServeWith(Default(), cfg)
	if err != nil {
		return nil, err
	}
	activeServer = s
	return s, nil
}

// ActiveServer returns the process-wide server, or nil when none has been
// started. Tests use it to discover the resolved port of a ":0" mount.
func ActiveServer() *Server {
	serverMu.Lock()
	defer serverMu.Unlock()
	return activeServer
}

// ShutdownServer closes and forgets the process-wide server (test helper).
func ShutdownServer() {
	serverMu.Lock()
	defer serverMu.Unlock()
	if activeServer != nil {
		_ = activeServer.Close()
		activeServer = nil
	}
}
