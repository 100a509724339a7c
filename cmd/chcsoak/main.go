// Command chcsoak load-tests a resident consensus daemon (chcd): it drives
// a sustained stream of mixed CC / vector / Byzantine instances through the
// HTTP/JSON API for a configured duration and rate, audits every decided
// instance client-side (Theorem 2 validity + ε-agreement), and reports
// decide-latency percentiles, per-region latency when a WAN model is active,
// and steady-state instance throughput. It exits nonzero on any audit
// violation, failed instance, or instance left undecided after drain.
//
// Usage examples:
//
//	chcsoak -self -duration 10s -rate 8 -wan us-eu-ap       # in-process daemon
//	chcsoak -addr 127.0.0.1:8080 -duration 30s -rate 16     # live chcd
//	chcsoak -self -mesh 64 -duration 5s -wan 3-regions      # + WAN sim-mesh gate
//	chcsoak -mesh 128 -duration 0                           # mesh gate only
//
// The -mesh gate exercises the WAN subsystem at scale before the soak: it
// pumps full-mesh rounds of an n-process virtual-time schedule through the
// seeded model twice and requires complete delivery and a bitwise-identical
// delivery order across the two runs.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"chc"
	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/envflag"
	"chc/internal/telemetry"
	"chc/internal/wan"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chcsoak:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("chcsoak", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "", "host:port (or full URL) of a running chcd; empty requires -self or a mesh-only run")
		token     = fs.String("token", "", "bearer token for the daemon API")
		self      = fs.Bool("self", false, "start an in-process daemon and soak it (no external chcd needed)")
		n         = fs.Int("n", 6, "process count of the -self daemon's cluster")
		transport = fs.String("transport", "inproc", "-self cluster transport: inproc|tcp")
		deadline  = fs.Duration("instance-deadline", 2*time.Minute, "per-instance deadline of the -self daemon (0 disables)")
		duration  = fs.Duration("duration", 10*time.Second, "submission window of the soak (0 skips the soak; useful with -mesh)")
		rate      = fs.Float64("rate", 8, "target submissions per second")
		conc      = fs.Int("concurrency", 16, "maximum in-flight instances the harness holds open")
		f         = fs.Int("f", 1, "per-instance fault tolerance")
		d         = fs.Int("d", 2, "input dimension")
		eps       = fs.Float64("eps", 0.05, "per-instance agreement parameter ε")
		mix       = fs.String("mix", "cc,vector,byzantine", "comma-separated protocol rotation for the stream")
		seed      = fs.Int64("seed", 1, "input-generation seed")
		mesh      = fs.Int("mesh", 0, "run the WAN sim-mesh gate at this many processes before the soak (0 skips)")
		meshRound = fs.Int("mesh-rounds", 3, "full-mesh exchange rounds the gate pumps through the virtual-time schedule")
		watchMax  = fs.Duration("watch-timeout", 2*time.Minute, "bound on waiting for any one instance to reach a terminal state")
		metrics   = fs.String("metrics-url", "", "scrape this Prometheus /metrics endpoint after the soak for per-region decide latency (self mode reads the in-process registry instead)")
	)
	bindEnv := envflag.Bind(fs, envflag.Retire)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The environment is the -self daemon's; the -mesh gate borrows its WAN
	// plan.
	cfg := chc.ServiceConfig{
		N:                *n,
		InstanceDeadline: *deadline,
		Retention:        -1, // every record must survive to the post-drain audit
	}
	switch *transport {
	case "inproc":
		cfg.Transport = chc.BatchInProcess
	case "tcp":
		cfg.Transport = chc.BatchTCP
	default:
		return fmt.Errorf("-transport: unknown transport %q (inproc|tcp)", *transport)
	}
	bound, err := bindEnv(cfg.Transport)
	if err != nil {
		return err
	}
	cfg.Env, cfg.WALRetire = bound.Env, bound.WALRetire

	if *mesh > 0 {
		if err := meshGate(w, *mesh, *meshRound, *cfg.WAN, cfg.WANSeed); err != nil {
			return err
		}
	}
	if *duration <= 0 {
		if *mesh > 0 {
			return nil
		}
		return fmt.Errorf("-duration 0 without -mesh: nothing to do")
	}

	base := strings.TrimSuffix(*addr, "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var srv *chc.ServiceServer
	if *self {
		if base != "" {
			return fmt.Errorf("-self and -addr are mutually exclusive")
		}
		chc.EnableTelemetry(true)
		srv, err = chc.Serve(cfg)
		if err != nil {
			return err
		}
		defer srv.Close()
		api, err := srv.ServeAPI(chc.ServiceAPIConfig{Addr: "127.0.0.1:0", Token: *token})
		if err != nil {
			return err
		}
		defer api.Close()
		base = api.URL()
		fmt.Fprintf(w, "soak target : in-process daemon n=%d transport=%s on %s\n", *n, *transport, base)
		if cfg.WAN.Enabled() {
			fmt.Fprintf(w, "wan         : %s seed=%d\n", cfg.WAN.String(), cfg.WANSeed)
		}
	}
	if base == "" {
		return fmt.Errorf("need -addr or -self")
	}

	cl := &client{base: base, token: *token, hc: &http.Client{Timeout: *watchMax + 10*time.Second}}
	nn, err := cl.clusterN()
	if err != nil {
		return fmt.Errorf("probe %s: %w", base, err)
	}

	protocols := strings.Split(*mix, ",")
	for i, p := range protocols {
		protocols[i] = strings.TrimSpace(p)
		switch protocols[i] {
		case "cc", "vector", "byzantine":
		default:
			return fmt.Errorf("-mix: unknown protocol %q", protocols[i])
		}
	}

	st := &soakState{watchMax: *watchMax, eps: *eps}
	rng := rand.New(rand.NewSource(*seed))
	sem := make(chan struct{}, *conc)
	interval := time.Duration(float64(time.Second) / *rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	start := time.Now()
	end := start.Add(*duration)
	var wg sync.WaitGroup
	for k := 0; time.Now().Before(end); k++ {
		sub := buildInstance(nn, *f, *d, *eps, protocols[k%len(protocols)], k, rng)
		sem <- struct{}{}
		id, rejected, err := cl.submit(sub)
		if err != nil {
			<-sem
			return fmt.Errorf("submit %d: %w", k, err)
		}
		st.addRejects(rejected)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			st.observe(cl, id, sub)
		}()
		time.Sleep(time.Until(minTime(time.Now().Add(interval), end)))
	}
	wg.Wait()

	undecided := 0
	if srv != nil {
		if err := srv.Drain(0); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		total, _, _, finished := srv.Counts()
		undecided = total - finished
	}
	elapsed := time.Since(start)

	st.report(w, elapsed, undecided)
	if *self {
		reportRegions(w, chc.TelemetrySnapshot())
	} else if *metrics != "" {
		snap, err := scrapeRegions(cl.hc, *metrics, *token)
		if err != nil {
			fmt.Fprintf(w, "regions     : scrape failed: %v\n", err)
		} else {
			reportRegions(w, snap)
		}
	}
	return st.verdict(undecided)
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// meshGate pumps rounds of an n-process full mesh through the WAN
// virtual-time scheduler twice and requires complete delivery plus a
// bitwise-identical delivery order across the runs.
func meshGate(w io.Writer, n, rounds int, plan chc.WANPlan, seed int64) error {
	if !plan.Enabled() {
		var err error
		if plan, err = chc.ParseWANPlan("3-regions"); err != nil {
			return err
		}
	}
	if rounds <= 0 {
		rounds = 1
	}
	want := rounds * n * (n - 1)
	runOnce := func() (uint64, time.Duration, int64, error) {
		sched, err := wan.NewSimScheduler(plan, n, seed)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("-mesh: %w", err)
		}
		channels := make([]dist.ChannelState, 0, n*(n-1))
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					channels = append(channels, dist.ChannelState{
						From: dist.ProcID(i), To: dist.ProcID(j), Pending: rounds, Kind: "mesh",
					})
				}
			}
		}
		h := fnv.New64a()
		rng := rand.New(rand.NewSource(seed))
		var buf [8]byte
		// The scheduler contract lists only non-empty queues, so present a
		// filtered view each pick and map the choice back.
		view := make([]dist.ChannelState, 0, len(channels))
		idxs := make([]int, 0, len(channels))
		for delivered := 0; delivered < want; delivered++ {
			view, idxs = view[:0], idxs[:0]
			for i := range channels {
				if channels[i].Pending > 0 {
					view = append(view, channels[i])
					idxs = append(idxs, i)
				}
			}
			pick := sched.Pick(view, rng)
			if pick < 0 || pick >= len(view) {
				return 0, 0, 0, fmt.Errorf("-mesh: scheduler picked invalid channel %d", pick)
			}
			ch := &channels[idxs[pick]]
			ch.Pending--
			// Hash the delivered edge, not the view index, so the fingerprint
			// is a property of the schedule itself.
			binaryPutEdge(&buf, ch.From, ch.To, delivered)
			h.Write(buf[:])
		}
		return h.Sum64(), sched.Elapsed(), sched.Delivered(), nil
	}
	start := time.Now()
	h1, virt, delivered, err := runOnce()
	if err != nil {
		return err
	}
	h2, _, _, err := runOnce()
	if err != nil {
		return err
	}
	if delivered != int64(want) {
		return fmt.Errorf("-mesh: %d of %d deliveries", delivered, want)
	}
	if h1 != h2 {
		return fmt.Errorf("-mesh: same seed produced different delivery orders (%#x vs %#x)", h1, h2)
	}
	fmt.Fprintf(w, "mesh gate   : n=%d %s: %d delivered in %v virtual time (%v wall), schedule %#x reproduced\n",
		n, plan.String(), delivered, virt.Round(time.Microsecond), time.Since(start).Round(time.Millisecond), h1)
	return nil
}

// binaryPutEdge encodes one delivery (ordinal plus directed edge) for the
// schedule fingerprint.
func binaryPutEdge(buf *[8]byte, from, to dist.ProcID, ordinal int) {
	buf[0] = byte(from)
	buf[1] = byte(from >> 8)
	buf[2] = byte(to)
	buf[3] = byte(to >> 8)
	buf[4] = byte(ordinal)
	buf[5] = byte(ordinal >> 8)
	buf[6] = byte(ordinal >> 16)
	buf[7] = byte(ordinal >> 24)
}

// submitReq mirrors the chcd POST /v1/instances body.
type submitReq struct {
	Protocol   string      `json:"protocol,omitempty"`
	F          int         `json:"f"`
	D          int         `json:"d"`
	Epsilon    float64     `json:"epsilon"`
	InputLower float64     `json:"input_lower"`
	InputUpper float64     `json:"input_upper"`
	Inputs     [][]float64 `json:"inputs"`
	Faults     []faultReq  `json:"faults,omitempty"`
}

type faultReq struct {
	Proc     int       `json:"proc"`
	Behavior string    `json:"behavior"`
	Input    []float64 `json:"input,omitempty"`
}

// statusResp mirrors the chcd instance status JSON.
type statusResp struct {
	ID       int                    `json:"id"`
	State    string                 `json:"state"`
	Protocol string                 `json:"protocol"`
	Error    string                 `json:"error,omitempty"`
	Outputs  map[string][][]float64 `json:"outputs,omitempty"`
	Points   map[string][]float64   `json:"points,omitempty"`
	Rounds   map[string]int         `json:"rounds,omitempty"`
}

var byzBehaviors = []string{"silent", "incorrect-input", "equivocator", "garbler"}

// buildInstance makes the kth instance of the stream: the requested
// protocol, seeded random inputs, and (for Byzantine cells) one rotating
// adversary at the last process.
func buildInstance(n, f, d int, eps float64, protocol string, k int, rng *rand.Rand) submitReq {
	req := submitReq{
		F: f, D: d, Epsilon: eps,
		InputLower: 0, InputUpper: 10,
		Inputs: make([][]float64, n),
	}
	if protocol != "cc" {
		req.Protocol = protocol
	}
	for i := range req.Inputs {
		pt := make([]float64, d)
		for j := range pt {
			pt[j] = rng.Float64() * 10
		}
		req.Inputs[i] = pt
	}
	if protocol == "byzantine" {
		req.Faults = []faultReq{{
			Proc:     n - 1,
			Behavior: byzBehaviors[(k/3)%len(byzBehaviors)],
			Input:    make([]float64, d),
		}}
	}
	return req
}

// client is the thin chcd API client.
type client struct {
	base  string
	token string
	hc    *http.Client
}

func (c *client) do(method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return c.hc.Do(req)
}

// clusterN probes /v1/healthz for the daemon's process count.
func (c *client) clusterN() (int, error) {
	resp, err := c.do(http.MethodGet, "/v1/healthz", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		N      int    `json:"n"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("daemon %s (status %d)", h.Status, resp.StatusCode)
	}
	if h.N <= 0 {
		return 0, fmt.Errorf("daemon reported n=%d", h.N)
	}
	return h.N, nil
}

// submit POSTs one instance, retrying through 429 backpressure; it returns
// the instance id and how many 429s it absorbed.
func (c *client) submit(req submitReq) (id, rejected int, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, 0, err
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.do(http.MethodPost, "/v1/instances", body)
		if err != nil {
			return 0, rejected, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			rejected++
			if attempt > 200 {
				return 0, rejected, fmt.Errorf("still overloaded after %d retries", attempt)
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		var acc struct {
			ID    int    `json:"id"`
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&acc)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return 0, rejected, fmt.Errorf("submit: status %d: %s", resp.StatusCode, acc.Error)
		}
		if derr != nil {
			return 0, rejected, derr
		}
		return acc.ID, rejected, nil
	}
}

// watch long-polls one instance until it reaches a terminal state or the
// harness's watch budget runs out.
func (c *client) watch(id int, budget time.Duration) (statusResp, error) {
	deadline := time.Now().Add(budget)
	for {
		poll := 5 * time.Second
		if rem := time.Until(deadline); rem < poll {
			if rem <= 0 {
				return statusResp{}, fmt.Errorf("instance %d not terminal after %v", id, budget)
			}
			poll = rem
		}
		resp, err := c.do(http.MethodGet,
			fmt.Sprintf("/v1/instances/%d/watch?timeout_ms=%d", id, poll.Milliseconds()), nil)
		if err != nil {
			return statusResp{}, err
		}
		var st statusResp
		derr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return statusResp{}, fmt.Errorf("watch %d: status %d", id, resp.StatusCode)
		}
		if derr != nil {
			return statusResp{}, derr
		}
		switch st.State {
		case "decided", "failed", "evicted":
			return st, nil
		}
	}
}

// soakState aggregates outcomes across the watcher goroutines.
type soakState struct {
	watchMax time.Duration
	eps      float64

	mu         sync.Mutex
	submitted  int
	decided    int
	failed     int
	deadlined  int
	rejects    int
	latencies  []time.Duration
	violations []string
}

func (s *soakState) addRejects(k int) {
	s.mu.Lock()
	s.rejects += k
	s.mu.Unlock()
}

func (s *soakState) violation(format string, args ...any) {
	s.mu.Lock()
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// observe waits for one instance and audits its decision.
func (s *soakState) observe(cl *client, id int, sub submitReq) {
	start := time.Now()
	s.mu.Lock()
	s.submitted++
	s.mu.Unlock()
	st, err := cl.watch(id, s.watchMax)
	if err != nil {
		s.violation("instance %d: %v", id, err)
		return
	}
	switch st.State {
	case "decided":
		lat := time.Since(start)
		if err := auditInstance(sub, st, s.eps); err != nil {
			s.violation("instance %d: %v", id, err)
			return
		}
		s.mu.Lock()
		s.decided++
		s.latencies = append(s.latencies, lat)
		s.mu.Unlock()
	default:
		s.mu.Lock()
		if strings.Contains(st.Error, "deadline") {
			s.deadlined++
		} else {
			s.failed++
		}
		s.mu.Unlock()
		s.violation("instance %d: state %s: %s", id, st.State, st.Error)
	}
}

// auditInstance re-checks the paper's guarantees client-side with the audit
// the library itself uses (core.AuditOutputs): every decided value lies in
// the hull of the correct inputs (Theorem 2 validity) and the decisions
// pairwise agree within ε.
func auditInstance(sub submitReq, st statusResp, eps float64) error {
	correct := make([]chc.Point, 0, len(sub.Inputs))
	for i, in := range sub.Inputs {
		if !slices.ContainsFunc(sub.Faults, func(f faultReq) bool { return f.Proc == i }) {
			correct = append(correct, chc.Point(in))
		}
	}
	hull, err := chc.NewPolytope(correct, chc.DefaultEps)
	if err != nil {
		return fmt.Errorf("input hull: %w", err)
	}
	outs := make([]*chc.Polytope, 0, len(st.Outputs)+len(st.Points))
	for proc, verts := range st.Outputs {
		pts := make([]chc.Point, len(verts))
		for i, v := range verts {
			pts[i] = chc.Point(v)
		}
		poly, perr := chc.NewPolytope(pts, chc.DefaultEps)
		if perr != nil {
			return fmt.Errorf("p%s output: %w", proc, perr)
		}
		outs = append(outs, poly)
	}
	for _, pt := range st.Points {
		outs = append(outs, chc.PointPolytope(chc.Point(pt)))
	}
	audit, err := core.AuditOutputs(hull, outs, eps)
	if err != nil {
		return err
	}
	if !audit.Valid {
		return fmt.Errorf("validity: a decision lies outside the correct-input hull")
	}
	if !audit.Agree {
		return fmt.Errorf("ε-agreement: max d_H = %g > ε = %g", audit.MaxHausdorff, eps)
	}
	return nil
}

// report prints the aggregate soak outcome.
func (s *soakState) report(w io.Writer, elapsed time.Duration, undecided int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Fprintf(w, "soak        : %d submitted, %d decided, %d failed, %d deadlined, %d rejected (429) in %v\n",
		s.submitted, s.decided, s.failed, s.deadlined, s.rejects, elapsed.Round(time.Millisecond))
	if elapsed > 0 {
		fmt.Fprintf(w, "throughput  : %.2f instances/sec decided\n", float64(s.decided)/elapsed.Seconds())
	}
	if len(s.latencies) > 0 {
		lat := append([]time.Duration(nil), s.latencies...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		q := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
		fmt.Fprintf(w, "latency     : p50=%v p90=%v p99=%v max=%v (client-side submit→decided)\n",
			q(0.50).Round(time.Millisecond), q(0.90).Round(time.Millisecond),
			q(0.99).Round(time.Millisecond), lat[len(lat)-1].Round(time.Millisecond))
	}
	if undecided > 0 {
		fmt.Fprintf(w, "drain       : %d instances NOT terminal after drain\n", undecided)
	} else {
		fmt.Fprintln(w, "drain       : zero undecided instances")
	}
	for i, v := range s.violations {
		if i == 8 {
			fmt.Fprintf(w, "violation   : ... %d more\n", len(s.violations)-i)
			break
		}
		fmt.Fprintf(w, "violation   : %s\n", v)
	}
}

// verdict converts the aggregate outcome into the process exit status.
func (s *soakState) verdict(undecided int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case len(s.violations) > 0:
		return fmt.Errorf("%d violations (audit failures, failed or unfinished instances)", len(s.violations))
	case undecided > 0:
		return fmt.Errorf("%d instances undecided after drain", undecided)
	case s.decided == 0:
		return fmt.Errorf("no instance decided")
	}
	return nil
}

// reportRegions prints per-region decide-latency percentiles from a
// telemetry snapshot (populated when the daemon runs a WAN model).
func reportRegions(w io.Writer, snap *chc.Telemetry) {
	if snap == nil {
		return
	}
	fam := snap.Find("chc_wan_region_decide_seconds")
	if fam == nil || len(fam.Samples) == 0 {
		return
	}
	type row struct {
		region string
		h      *chc.TelemetryHistogram
	}
	rows := make([]row, 0, len(fam.Samples))
	for i := range fam.Samples {
		sm := &fam.Samples[i]
		if sm.Histogram == nil || sm.Histogram.Count == 0 {
			continue
		}
		rows = append(rows, row{region: sm.Labels["region"], h: sm.Histogram})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].region < rows[j].region })
	for _, r := range rows {
		fmt.Fprintf(w, "region %-5s: %d decides, p50=%s p95=%s\n", r.region, r.h.Count,
			fmtSeconds(r.h.Quantile(0.50)), fmtSeconds(r.h.Quantile(0.95)))
	}
}

func fmtSeconds(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Millisecond).String()
}

// scrapeRegions fetches a Prometheus text exposition and reconstructs the
// chc_wan_region_decide_seconds histograms, so a remote soak reports the
// same per-region rows a self soak reads from the in-process registry.
func scrapeRegions(hc *http.Client, url, token string) (*chc.Telemetry, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	samples, err := telemetry.ParseText(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	const name = "chc_wan_region_decide_seconds"
	hists := make(map[string]*chc.TelemetryHistogram)
	order := []string{}
	get := func(region string) *chc.TelemetryHistogram {
		h, ok := hists[region]
		if !ok {
			h = &chc.TelemetryHistogram{}
			hists[region] = h
			order = append(order, region)
		}
		return h
	}
	for _, s := range samples {
		region := s.Labels["region"]
		switch s.Name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.Labels["le"], 64) // "+Inf" included
			if err != nil {
				return nil, fmt.Errorf("%s: bucket bound %q: %w", name, s.Labels["le"], err)
			}
			h := get(region)
			h.Buckets = append(h.Buckets, telemetry.Bucket{UpperBound: le, CumulativeCount: uint64(s.Value)})
		case name + "_sum":
			get(region).Sum = s.Value
		case name + "_count":
			get(region).Count = uint64(s.Value)
		}
	}
	snap := &chc.Telemetry{}
	fam := chc.TelemetryMetric{Name: name}
	for _, region := range order {
		h := hists[region]
		sort.Slice(h.Buckets, func(i, j int) bool { return h.Buckets[i].UpperBound < h.Buckets[j].UpperBound })
		fam.Samples = append(fam.Samples, chc.TelemetrySample{
			Labels: map[string]string{"region": region}, Histogram: h,
		})
	}
	snap.Metrics = append(snap.Metrics, fam)
	return snap, nil
}
