package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"chc/internal/chaos"
	"chc/internal/core"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/multiplex"
	"chc/internal/runtime"
)

// testInstance builds one valid CC instance for n processes.
func testInstance(n int, seed int64) multiplex.Instance {
	inputs := make([]geom.Point, n)
	for i := range inputs {
		inputs[i] = geom.Point{float64((seed*7+int64(i)*3)%11) + 1}
	}
	return multiplex.Instance{
		Params: core.Params{N: n, F: 1, D: 1, Epsilon: 0.05, InputLower: 0, InputUpper: 12},
		Inputs: inputs,
	}
}

func waitDecided(t *testing.T, s *Server, id int, timeout time.Duration) Status {
	t.Helper()
	st, terminal, err := s.Watch(id, timeout)
	if err != nil {
		t.Fatalf("Watch %d: %v", id, err)
	}
	if !terminal {
		t.Fatalf("instance %d not terminal after %v (state %v)", id, timeout, st.State)
	}
	return st
}

func TestServiceSubmitDecide(t *testing.T) {
	s, err := New(Config{N: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	const count = 6
	for k := 0; k < count; k++ {
		id, state, err := s.Submit(testInstance(4, int64(k+1)))
		if err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
		if id != k {
			t.Fatalf("Submit %d returned id %d", k, id)
		}
		if state != StateRunning && state != StateQueued {
			t.Fatalf("Submit %d state %v", k, state)
		}
	}
	for k := 0; k < count; k++ {
		st := waitDecided(t, s, k, 60*time.Second)
		if st.State != StateDecided {
			t.Fatalf("instance %d state %v, err %v", k, st.State, st.Err)
		}
		if len(st.Result.Outputs) != 4 {
			t.Fatalf("instance %d: %d outputs", k, len(st.Result.Outputs))
		}
	}
	if err := s.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServiceRejectsMalformedSynchronously(t *testing.T) {
	s, err := New(Config{N: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	bad := testInstance(4, 1)
	bad.Inputs = bad.Inputs[:2] // wrong arity
	if _, _, err := s.Submit(bad); err == nil {
		t.Fatal("Submit accepted an instance with missing inputs")
	}
	if total, _, _, _ := s.Counts(); total != 0 {
		t.Fatalf("malformed submission occupied a record (total=%d)", total)
	}
}

// slowService builds a service whose instances take >=minDelay to decide,
// so admission states are observable deterministically.
func slowService(t *testing.T, n, maxActive, maxQueue int, minDelay time.Duration) *Server {
	t.Helper()
	s, err := New(Config{
		N:         n,
		MaxActive: maxActive,
		MaxQueue:  maxQueue,
		Env: runtime.Env{
			Chaos:     &chaos.Profile{DelayMin: minDelay, DelayMax: minDelay + 50*time.Millisecond},
			ChaosSeed: 11,
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestServiceAdmissionControl(t *testing.T) {
	s := slowService(t, 4, 1, 2, 300*time.Millisecond)
	defer s.Close()

	// Slot 1 runs, 2 and 3 queue, 4 is rejected.
	states := make([]InstanceState, 0, 3)
	for k := 0; k < 3; k++ {
		_, state, err := s.Submit(testInstance(4, int64(k+1)))
		if err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
		states = append(states, state)
	}
	if states[0] != StateRunning || states[1] != StateQueued || states[2] != StateQueued {
		t.Fatalf("states = %v, want [running queued queued]", states)
	}
	if _, _, err := s.Submit(testInstance(4, 9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overload err = %v, want ErrOverloaded", err)
	}

	// Queued instances still finish once slots free up.
	for k := 0; k < 3; k++ {
		st := waitDecided(t, s, k, 60*time.Second)
		if st.State != StateDecided {
			t.Fatalf("instance %d state %v err %v", k, st.State, st.Err)
		}
	}
	if err := s.Drain(0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestServiceDrainFinishesInFlight(t *testing.T) {
	s := slowService(t, 4, 1, 8, 100*time.Millisecond)
	defer s.Close()

	const count = 3
	for k := 0; k < count; k++ {
		if _, _, err := s.Submit(testInstance(4, int64(k+1))); err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
	}
	// Drain must finish the running AND the queued instances.
	if err := s.Drain(60 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for k := 0; k < count; k++ {
		st, err := s.Status(k)
		if err != nil {
			t.Fatalf("Status %d: %v", k, err)
		}
		if st.State != StateDecided {
			t.Fatalf("after drain, instance %d state %v (err %v)", k, st.State, st.Err)
		}
	}
	if _, _, err := s.Submit(testInstance(4, 9)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain err = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

// TestServiceCloseFailsInFlight: Close without a prior Drain must leave
// every record terminal — queued ones failed with ErrClosed, the running one
// failed by the engine shutdown — so Watch callers unblock instead of
// hanging for their full timeout on a torn-down cluster.
func TestServiceCloseFailsInFlight(t *testing.T) {
	s := slowService(t, 4, 1, 8, 300*time.Millisecond)

	const count = 3
	for k := 0; k < count; k++ {
		if _, _, err := s.Submit(testInstance(4, int64(k+1))); err != nil {
			t.Fatalf("Submit %d: %v", k, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	sawClosed := false
	for k := 0; k < count; k++ {
		// Terminal already: a long watch timeout must not block.
		start := time.Now()
		st, terminal, err := s.Watch(k, 60*time.Second)
		if err != nil {
			t.Fatalf("Watch %d: %v", k, err)
		}
		if !terminal {
			t.Fatalf("instance %d not terminal after Close (state %v)", k, st.State)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Watch %d took %v on a closed server", k, d)
		}
		if st.State == StateRunning || st.State == StateQueued {
			t.Fatalf("instance %d state %v after Close", k, st.State)
		}
		if st.State == StateDecided {
			continue // a fast instance may legitimately have finished
		}
		if st.Err == nil {
			t.Fatalf("instance %d failed without an error", k)
		}
		if errors.Is(st.Err, ErrClosed) {
			sawClosed = true
		}
	}
	if !sawClosed {
		t.Fatal("no queued record was failed with ErrClosed")
	}
}

// TestServiceWatchContextCancel: a severed client (cancelled request
// context) frees its long-poll instead of pinning it for the full timeout.
func TestServiceWatchContextCancel(t *testing.T) {
	s := slowService(t, 4, 1, 8, 300*time.Millisecond)
	defer s.Close()
	id, _, err := s.Submit(testInstance(4, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, terminal, err := s.WatchContext(ctx, id, 60*time.Second)
	if err != nil {
		t.Fatalf("WatchContext: %v", err)
	}
	if terminal {
		t.Fatal("watch reported terminal on a cancelled context")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("WatchContext held for %v after cancellation", d)
	}
}

func TestServiceEviction(t *testing.T) {
	s, err := New(Config{N: 4, Retention: 30 * time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	id, _, err := s.Submit(testInstance(4, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitDecided(t, s, id, 60*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st.State == StateEvicted {
			if len(st.Result.Outputs) != 0 {
				t.Fatal("evicted record still holds results")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance not evicted (state %v)", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// --- HTTP API ---

func postJSON(t *testing.T, client *http.Client, url, token string, body any) (int, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	_ = json.Unmarshal(raw, &out)
	return resp.StatusCode, out
}

func getJSON(t *testing.T, client *http.Client, url, token string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	_ = json.Unmarshal(raw, &out)
	return resp.StatusCode, out
}

func submitBody(n int, seed int64) submitRequest {
	inst := testInstance(n, seed)
	inputs := make([][]float64, len(inst.Inputs))
	for i, p := range inst.Inputs {
		inputs[i] = []float64(p)
	}
	return submitRequest{
		F: 1, D: 1, Epsilon: 0.05, InputUpper: 12,
		Inputs: inputs,
	}
}

func TestServiceHTTPAPI(t *testing.T) {
	s, err := New(Config{N: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	api, err := s.ServeAPI(APIConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeAPI: %v", err)
	}
	defer api.Close()
	client := &http.Client{}

	code, body := postJSON(t, client, api.URL()+"/v1/instances", "", submitBody(4, 3))
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d: %v", code, body)
	}
	id := int(body["id"].(float64))

	code, body = getJSON(t, client, fmt.Sprintf("%s/v1/instances/%d/watch?timeout_ms=60000", api.URL(), id), "")
	if code != http.StatusOK {
		t.Fatalf("watch status %d: %v", code, body)
	}
	if body["state"] != "decided" {
		t.Fatalf("watch state %v (error %v)", body["state"], body["error"])
	}
	outputs, ok := body["outputs"].(map[string]any)
	if !ok || len(outputs) != 4 {
		t.Fatalf("watch outputs = %v", body["outputs"])
	}

	code, body = getJSON(t, client, fmt.Sprintf("%s/v1/instances/%d", api.URL(), id), "")
	if code != http.StatusOK || body["state"] != "decided" {
		t.Fatalf("GET status %d state %v", code, body["state"])
	}

	code, body = getJSON(t, client, api.URL()+"/v1/instances/999", "")
	if code != http.StatusNotFound {
		t.Fatalf("missing instance status %d: %v", code, body)
	}

	code, body = getJSON(t, client, api.URL()+"/v1/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz %d: %v", code, body)
	}

	// Malformed bodies are rejected.
	code, _ = postJSON(t, client, api.URL()+"/v1/instances", "", map[string]any{"protocol": "nope"})
	if code != http.StatusBadRequest {
		t.Fatalf("bad protocol status %d", code)
	}
}

func TestServiceHTTPAuth(t *testing.T) {
	s, err := New(Config{N: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	api, err := s.ServeAPI(APIConfig{Addr: "127.0.0.1:0", Token: "hunter2"})
	if err != nil {
		t.Fatalf("ServeAPI: %v", err)
	}
	defer api.Close()
	client := &http.Client{}

	code, _ := getJSON(t, client, api.URL()+"/v1/healthz", "")
	if code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status %d, want 401", code)
	}
	code, _ = getJSON(t, client, api.URL()+"/v1/healthz", "wrong")
	if code != http.StatusUnauthorized {
		t.Fatalf("wrong-token status %d, want 401", code)
	}
	code, body := getJSON(t, client, api.URL()+"/v1/healthz", "hunter2")
	if code != http.StatusOK {
		t.Fatalf("authenticated status %d: %v", code, body)
	}
}

func TestServiceHTTPOverloadAndDrain(t *testing.T) {
	s := slowService(t, 4, 1, 1, 300*time.Millisecond)
	defer s.Close()
	api, err := s.ServeAPI(APIConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeAPI: %v", err)
	}
	defer api.Close()
	client := &http.Client{}

	// Fill the one running slot and the one queue slot.
	for k := 0; k < 2; k++ {
		code, body := postJSON(t, client, api.URL()+"/v1/instances", "", submitBody(4, int64(k+1)))
		if code != http.StatusAccepted {
			t.Fatalf("POST %d status %d: %v", k, code, body)
		}
	}
	code, body := postJSON(t, client, api.URL()+"/v1/instances", "", submitBody(4, 9))
	if code != http.StatusTooManyRequests {
		t.Fatalf("overload status %d: %v", code, body)
	}

	if err := s.Drain(60 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	code, body = postJSON(t, client, api.URL()+"/v1/instances", "", submitBody(4, 9))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d: %v", code, body)
	}
	// A draining node is not ready: probes must see 503 so traffic stops
	// being routed to it, while the body still reports the drain.
	code, body = getJSON(t, client, api.URL()+"/v1/healthz", "")
	if code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("healthz after drain %d: %v", code, body)
	}
}

// TestServiceHundredInstancesTCP is the acceptance scenario: a live TCP
// daemon sustains 100 heterogeneous instances — sequential and concurrent
// bursts — without restart, and drains to zero undecided.
func TestServiceHundredInstancesTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("100 instances over live TCP")
	}
	const n = 4
	s, err := New(Config{N: n, Transport: engine.TransportTCP, MaxActive: 16, MaxQueue: 128})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()

	const total = 100
	ids := make([]int, 0, total)
	var mu sync.Mutex
	var wg sync.WaitGroup
	submit := func(seed int64) {
		defer wg.Done()
		inst := testInstance(n, seed)
		if seed%3 == 1 {
			inst.Protocol = multiplex.ProtocolVector
		}
		for {
			id, _, err := s.Submit(inst)
			if errors.Is(err, ErrOverloaded) {
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			mu.Lock()
			ids = append(ids, id)
			mu.Unlock()
			return
		}
	}
	// Half sequential, half concurrent bursts.
	for k := 0; k < total/2; k++ {
		wg.Add(1)
		submit(int64(k + 1))
	}
	for k := total / 2; k < total; k++ {
		wg.Add(1)
		go submit(int64(k + 1))
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if err := s.Drain(120 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	decided := 0
	for _, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("Status %d: %v", id, err)
		}
		if st.State != StateDecided && st.State != StateEvicted {
			t.Fatalf("instance %d undecided after drain: %v (err %v)", id, st.State, st.Err)
		}
		decided++
	}
	if decided != total {
		t.Fatalf("decided %d of %d", decided, total)
	}
}
