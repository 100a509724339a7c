package telemetry

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	crand "crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/json"
	"encoding/pem"
	"io"
	"math/big"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("served_total", "a counter").Add(0)
	srv, err := ServeWith(r, ServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !r.Enabled() {
		t.Error("ServeWith must enable the registry")
	}
	r.Counter("served_total", "a counter").Add(5)

	code, body := get(t, srv.URL()+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, "served_total 5") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if _, err := ParseText(strings.NewReader(body)); err != nil {
		t.Errorf("/metrics not valid exposition: %v", err)
	}

	code, body = get(t, srv.URL()+"/runs")
	if code != 200 {
		t.Fatalf("/runs status %d", code)
	}
	var snap RunsSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Errorf("/runs not valid JSON: %v", err)
	}

	code, _ = get(t, srv.URL()+"/debug/pprof/cmdline")
	if code != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
	code, body = get(t, srv.URL()+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = get(t, srv.URL()+"/")
	if code != 200 {
		t.Errorf("/ status %d", code)
	}
	code, _ = get(t, srv.URL()+"/nope")
	if code != 404 {
		t.Errorf("unknown path status %d, want 404", code)
	}
}

func TestEnsureServerIsIdempotent(t *testing.T) {
	defer ShutdownServer()
	defer Enable(Enable(false)) // restore whatever the enabled state was
	s1, err := EnsureServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := EnsureServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("EnsureServer must reuse the existing server")
	}
	if ActiveServer() != s1 {
		t.Error("ActiveServer mismatch")
	}
	code, _ := get(t, s1.URL()+"/metrics")
	if code != 200 {
		t.Errorf("/metrics status %d", code)
	}
	ShutdownServer()
	if ActiveServer() != nil {
		t.Error("ShutdownServer did not clear the active server")
	}
}

// TestServerCloseStopsServeGoroutine is the regression test for the old
// Close, which severed connections but never waited for the serve goroutine:
// a Close-then-assert caller could still observe the listener goroutine.
func TestServerCloseStopsServeGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		srv, err := ServeWith(NewRegistry(), ServerConfig{Addr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		if code, _ := get(t, srv.URL()+"/metrics"); code != 200 {
			t.Fatalf("/metrics status %d", code)
		}
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
	// The serve goroutines must be gone; allow unrelated runtime noise.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: before=%d after=%d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerBearerAuth(t *testing.T) {
	srv, err := ServeWith(NewRegistry(), ServerConfig{Addr: "127.0.0.1:0", Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// No credentials: 401 with a challenge.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate challenge")
	}

	// Wrong token: 401.
	req, _ := http.NewRequest("GET", srv.URL()+"/metrics", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token status %d, want 401", resp.StatusCode)
	}

	// Right token: 200.
	req, _ = http.NewRequest("GET", srv.URL()+"/metrics", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated status %d, want 200", resp.StatusCode)
	}
}

func TestServerTLS(t *testing.T) {
	dir := t.TempDir()
	certFile, keyFile := writeSelfSigned(t, dir)
	srv, err := ServeWith(NewRegistry(), ServerConfig{Addr: "127.0.0.1:0", CertFile: certFile, KeyFile: keyFile})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !strings.HasPrefix(srv.URL(), "https://") {
		t.Fatalf("URL = %s, want https scheme", srv.URL())
	}
	client := &http.Client{Transport: &http.Transport{
		TLSClientConfig: &tls.Config{InsecureSkipVerify: true},
	}}
	resp, err := client.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatalf("TLS GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("TLS /metrics status %d", resp.StatusCode)
	}
	if resp.TLS == nil {
		t.Fatal("response did not use TLS")
	}
}

func TestServeWithRejectsHalfKeyPair(t *testing.T) {
	if _, err := ServeWith(NewRegistry(), ServerConfig{Addr: "127.0.0.1:0", CertFile: "only-cert.pem"}); err == nil {
		t.Fatal("ServeWith accepted CertFile without KeyFile")
	}
}

// writeSelfSigned generates a throwaway self-signed certificate for
// 127.0.0.1 and writes the PEM pair under dir.
func writeSelfSigned(t *testing.T, dir string) (certFile, keyFile string) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber: big.NewInt(1),
		Subject:      pkix.Name{CommonName: "chc-test"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:  []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(crand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	keyDER, err := x509.MarshalECPrivateKey(key)
	if err != nil {
		t.Fatal(err)
	}
	certFile = filepath.Join(dir, "cert.pem")
	keyFile = filepath.Join(dir, "key.pem")
	certPEM := pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: der})
	keyPEM := pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: keyDER})
	if err := os.WriteFile(certFile, certPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(keyFile, keyPEM, 0o600); err != nil {
		t.Fatal(err)
	}
	return certFile, keyFile
}
