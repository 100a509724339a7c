package main

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/wal"
)

// Tracing is done from outside the program: every span and count below is
// taken by a wrapper in this package around a layer's public entry point
// (an http.Handler, a dist.Process, a dist.Context, a wal.FS). Nothing in
// the measured packages knows it is being traced.

// span is one timed interval at a layer boundary. Spans of one instance
// share its index; parent is the id of the span that caused this one.
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	Parent   int    `json:"parent"`
	Instance int    `json:"instance"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not kept.
const maxSpans = 400_000

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 when the trace is full).
func (r *recorder) begin(name string, parent, instance int) int {
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		r.dropped++
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, StartUS: now, Parent: parent, Instance: instance})
	return id
}

func (r *recorder) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(r.t0).Microseconds()
	r.mu.Lock()
	r.spans[id-1].EndUS = now
	r.mu.Unlock()
}

func (r *recorder) write(path, workload string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, r.dropped, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// instanceTrace is what one traced instance leaves behind for the kernel
// replay: the per-process execution records and the decided outputs.
type instanceTrace struct {
	k      int
	traces map[dist.ProcID]core.Trace
}

// Bounds on what a traced pass keeps for the replay passes.
const (
	maxHarvest  = 6    // instances whose operands are replayed through the kernels
	maxCaptured = 4096 // protocol messages replayed through wire and rlink
)

// reqTimes joins the client's view of one instance's two HTTP requests with
// the handler's view of the same requests.
type reqTimes struct {
	clientPost, clientWatch   time.Duration
	handlerPost, handlerWatch time.Duration
	// From the POST handler's first instruction to the watch handler's
	// last: what service, multiplex and engine take together, client and
	// HTTP server excluded.
	postStart, watchEnd time.Time
}

// tracer owns everything a traced pass collects. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	rec *recorder
	col *collector

	mu       sync.Mutex
	reqs     map[int]*reqTimes
	harvest  []instanceTrace
	captured []dist.Message
	ncap     atomic.Int64

	walSyncs, walSyncNS, walBytes atomic.Int64

	// elideSync turns the wrapped journal's fsync into a no-op. Only the
	// ablation pass sets it: what an instance no longer waits for once the
	// barrier is gone is the fsync's share of the decide latency, stalls and
	// retransmissions it induces included.
	elideSync bool
}

func newTracer(rec *recorder) *tracer {
	return &tracer{rec: rec, col: newCollector(), reqs: make(map[int]*reqTimes)}
}

// reset forgets what the warm-up instances left behind.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.col.reset()
	t.mu.Lock()
	t.reqs = make(map[int]*reqTimes)
	t.harvest = nil
	t.captured = nil
	t.mu.Unlock()
	t.ncap.Store(0)
	t.walSyncs.Store(0)
	t.walSyncNS.Store(0)
	t.walBytes.Store(0)
}

func (t *tracer) begin(name string, parent, instance int) int {
	if t == nil {
		return 0
	}
	return t.rec.begin(name, parent, instance)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.rec.end(id)
	}
}

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.col.add(name, v)
	}
}

func (t *tracer) req(k int) *reqTimes {
	r := t.reqs[k]
	if r == nil {
		r = &reqTimes{}
		t.reqs[k] = r
	}
	return r
}

// Headers the traced client adds so the handler-side span can name its
// instance and its parent span.
const (
	hdrInstance = "X-Bench-Instance"
	hdrSpan     = "X-Bench-Span"
)

// middleware times the service's HTTP handler from outside: the handler
// span covers JSON parse + admission + Submit (POST) or the long poll
// (watch), and nothing of the HTTP server or the client.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, err := strconv.Atoi(r.Header.Get(hdrInstance))
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
		name := "service.watch"
		if r.Method == http.MethodPost {
			name = "service.post"
		}
		id := t.rec.begin(name, parent, k)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		t.rec.end(id)
		t.mu.Lock()
		if r.Method == http.MethodPost {
			t.req(k).handlerPost, t.req(k).postStart = d, t0
		} else {
			t.req(k).handlerWatch, t.req(k).watchEnd = d, t0.Add(d)
		}
		t.mu.Unlock()
	})
}

// procAcc accumulates one instance's time inside its n state machines.
// Atomics because a resident cluster drives the machines from n goroutines.
type procAcc struct {
	deliverNS atomic.Int64 // inside Init/Deliver, sends included
	sendNS    atomic.Int64 // inside ctx.Send/Broadcast (the network layer's send path)
	calls     atomic.Int64
}

// timedProc decorates a core.Process: same behaviour, with the time spent
// in each call accumulated and the delivered messages sampled.
type timedProc struct {
	inner *core.Process
	acc   *procAcc
	tr    *tracer
}

var _ dist.Process = (*timedProc)(nil)

func (p *timedProc) Init(ctx dist.Context) {
	t0 := time.Now()
	p.inner.Init(timedCtx{ctx, p.acc})
	p.acc.deliverNS.Add(int64(time.Since(t0)))
}

func (p *timedProc) Deliver(ctx dist.Context, msg dist.Message) {
	p.tr.capture(msg)
	t0 := time.Now()
	p.inner.Deliver(timedCtx{ctx, p.acc}, msg)
	p.acc.deliverNS.Add(int64(time.Since(t0)))
	p.acc.calls.Add(1)
}

func (p *timedProc) Done() bool { return p.inner.Done() }

// SetTraceInstance keeps the engine's instance stamping working through the
// decorator.
func (p *timedProc) SetTraceInstance(k int) { p.inner.SetTraceInstance(k) }

// timedCtx times the network layer's send path as seen by the protocol.
type timedCtx struct {
	dist.Context
	acc *procAcc
}

func (c timedCtx) Send(to dist.ProcID, kind string, round int, payload any) {
	t0 := time.Now()
	c.Context.Send(to, kind, round, payload)
	c.acc.sendNS.Add(int64(time.Since(t0)))
}

func (c timedCtx) Broadcast(kind string, round int, payload any) {
	t0 := time.Now()
	c.Context.Broadcast(kind, round, payload)
	c.acc.sendNS.Add(int64(time.Since(t0)))
}

// capture samples delivered protocol messages for the wire/rlink replay.
func (t *tracer) capture(msg dist.Message) {
	if t.ncap.Add(1) > maxCaptured {
		return
	}
	t.mu.Lock()
	t.captured = append(t.captured, msg)
	t.mu.Unlock()
}

// noteInstance records what the decorators saw of one decided instance.
func (t *tracer) noteInstance(k int, wall time.Duration, acc *procAcc, procs []*core.Process) map[dist.ProcID]core.Trace {
	deliver := time.Duration(acc.deliverNS.Load())
	send := time.Duration(acc.sendNS.Load())
	t.add("inst.wall_ms", ms(wall))
	t.add("core.busy_ms", ms(deliver-send))
	t.add("net.send_ms", ms(send))
	t.add("core.calls", float64(acc.calls.Load()))
	traces := make(map[dist.ProcID]core.Trace, len(procs))
	for id, p := range procs {
		if p == nil {
			continue
		}
		if r := p.DecidedRound(); r > 0 {
			t.add("core.rounds", float64(r))
		}
		traces[dist.ProcID(id)] = p.TraceData()
	}
	t.mu.Lock()
	if len(t.harvest) < maxHarvest {
		t.harvest = append(t.harvest, instanceTrace{k: k, traces: traces})
	}
	t.mu.Unlock()
	return traces
}

// walFS wraps the workload's journal filesystem so every fsync and write the
// journals issue is counted and timed. Same bytes, same fsyncs, nothing
// skipped.
func (t *tracer) walFS() wal.FS {
	return fileWrapFS{flooredFS(), func(f wal.File) wal.File { return timedFile{f, t} }}
}

type timedFile struct {
	wal.File
	tr *tracer
}

func (f timedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.tr.walBytes.Add(int64(n))
	return n, err
}

func (f timedFile) Sync() error {
	if f.tr.elideSync {
		return nil
	}
	id := f.tr.rec.begin("wal.sync", 0, -1)
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.tr.rec.end(id)
	f.tr.walSyncs.Add(1)
	f.tr.walSyncNS.Add(int64(d))
	f.tr.add("wal.sync_us", us(d))
	return err
}
