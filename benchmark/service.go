package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"syscall"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/runtime"
	"chc/internal/service"
	"chc/internal/wal"
)

// decideTimeout bounds the wait for any one service instance; an instance
// still undecided after it counts as failed.
const decideTimeout = 10 * time.Second

// svcDriver is a tenant of the resident service: it starts service.New with
// chcd's defaults, mounts the service's handler on its own http.Server and
// talks to it over loopback HTTP with keep-alive connections.
type svcDriver struct {
	w    *workload
	seed int64
	tr   *tracer

	srv    *service.Server
	hs     *http.Server
	served chan struct{}
	base   string
	hc     *http.Client
	walDir string
}

func newSvcDriver(w *workload, o options, tr *tracer) (*svcDriver, error) {
	d := &svcDriver{w: w, seed: o.seed, tr: tr, served: make(chan struct{})}
	cfg := service.Config{N: w.params.N, Transport: w.transport}
	if w.durable {
		dir, err := newWALDir(o.outDir)
		if err != nil {
			return nil, err
		}
		d.walDir = dir
		cfg.WALDir, cfg.WALRetire, cfg.WALFS = dir, walRetire, flooredFS()
		if tr != nil {
			cfg.WALFS = tr.walFS()
		}
	}
	srv, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(d.walDir)
		return nil, err
	}
	d.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, d.close())
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.middleware(h)
	}
	d.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	d.base = "http://" + ln.Addr().String()
	d.hc = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: openLoopClients, MaxIdleConnsPerHost: openLoopClients},
		Timeout:   decideTimeout + 5*time.Second,
	}
	return d, nil
}

// fsyncFloor is the least time one journal fsync takes in the durable
// workload. The journals are real files and every fsync is really issued;
// a call the device finishes sooner than the floor waits out the rest. The
// reference box's virtual disk answers in 140-250 us at the median and moves
// between those within minutes, which moved the workload's median by a third
// between two ten-run sets; under the floor the device's mood mostly
// disappears while the number of fsyncs, which is what the journal controls,
// still sets the latency. It plays the part an injected message delay plays
// for a network.
const fsyncFloor = 400 * time.Microsecond

// fileWrapFS is a wal.FS whose writable files pass through wrap; read-only
// opens and directory operations go straight to the FS underneath.
type fileWrapFS struct {
	wal.FS
	wrap func(wal.File) wal.File
}

func (fs fileWrapFS) Create(path string) (wal.File, error) {
	f, err := fs.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return fs.wrap(f), nil
}

func (fs fileWrapFS) OpenRW(path string) (wal.File, error) {
	f, err := fs.FS.OpenRW(path)
	if err != nil {
		return nil, err
	}
	return fs.wrap(f), nil
}

// flooredFS is the host filesystem with fsyncFloor applied to every Sync.
func flooredFS() wal.FS {
	return fileWrapFS{wal.OSFS(), func(f wal.File) wal.File { return flooredFile{f} }}
}

type flooredFile struct{ wal.File }

func (f flooredFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if rest := fsyncFloor - time.Since(t0); rest > 0 {
		// Blocks the thread in a system call, as the fsync itself does.
		ts := syscall.NsecToTimespec(int64(rest))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only shortens the pad
	}
	return err
}

// newWALDir makes a fresh journal directory inside the output directory, so
// fsyncs hit the filesystem the checkout lives on.
func newWALDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "wal-")
}

func (d *svcDriver) netStats() runtime.ClusterStats { return d.srv.Session().Stats() }

func (d *svcDriver) close() error {
	var errs []error
	if d.hs != nil {
		errs = append(errs, d.hs.Close())
		<-d.served
		d.hc.CloseIdleConnections()
	}
	errs = append(errs, d.srv.Drain(decideTimeout), d.srv.Close())
	if d.walDir != "" {
		errs = append(errs, os.RemoveAll(d.walDir))
	}
	return errors.Join(errs...)
}

// submitRequest and statusResponse mirror the service's JSON API.
type submitRequest struct {
	F          int         `json:"f"`
	D          int         `json:"d"`
	Epsilon    float64     `json:"epsilon"`
	InputLower float64     `json:"input_lower"`
	InputUpper float64     `json:"input_upper"`
	Inputs     [][]float64 `json:"inputs"`
}

type statusResponse struct {
	ID      int                    `json:"id"`
	State   string                 `json:"state"`
	Error   string                 `json:"error"`
	Outputs map[string][][]float64 `json:"outputs"`
}

// do sends one request and decodes the JSON reply into v, reading the body
// to the end so the keep-alive connection is reused.
func (d *svcDriver) do(method, path string, body []byte, k, parent int, v any) (int, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if d.tr != nil {
		req.Header.Set(hdrInstance, strconv.Itoa(k))
		req.Header.Set(hdrSpan, strconv.Itoa(parent))
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	derr := json.NewDecoder(resp.Body).Decode(v)
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, derr
}

// errRefused marks an instance shed by admission control (HTTP 429).
var errRefused = errors.New("refused by admission control")

func (d *svcDriver) decide(k int) (map[int][]geom.Point, error) {
	p := d.w.params
	sub := submitRequest{F: p.F, D: p.D, Epsilon: p.Epsilon, InputLower: p.InputLower, InputUpper: p.InputUpper}
	for _, x := range genInputs(d.seed, d.w.name, k, p.N, p.D) {
		sub.Inputs = append(sub.Inputs, x)
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return nil, err
	}
	root := d.tr.begin("instance", 0, k)
	defer d.tr.end(root)

	var acc statusResponse
	sp := d.tr.begin("http.post", root, k)
	t0 := time.Now()
	code, err := d.do(http.MethodPost, "/v1/instances", body, k, sp, &acc)
	postTook := time.Since(t0)
	d.tr.end(sp)
	switch {
	case err != nil:
		return nil, fmt.Errorf("submit: %w", err)
	case code == http.StatusTooManyRequests:
		d.tr.add("service.rejects", 1)
		return nil, errRefused
	case code != http.StatusAccepted:
		return nil, fmt.Errorf("submit: status %d: %s", code, acc.Error)
	}

	var st statusResponse
	sp = d.tr.begin("http.watch", root, k)
	t0 = time.Now()
	path := fmt.Sprintf("/v1/instances/%d/watch?timeout_ms=%d", acc.ID, decideTimeout.Milliseconds())
	code, err = d.do(http.MethodGet, path, nil, k, sp, &st)
	watchTook := time.Since(t0)
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("watch: %w", err)
	}
	if code != http.StatusOK || st.State != "decided" {
		return nil, fmt.Errorf("watch: status %d, state %q: %s", code, st.State, st.Error)
	}
	if d.tr != nil {
		d.tr.mu.Lock()
		r := d.tr.req(k)
		r.clientPost, r.clientWatch = postTook, watchTook
		d.tr.mu.Unlock()
	}
	outs := make(map[int][]geom.Point, len(st.Outputs))
	for proc, verts := range st.Outputs {
		id, err := strconv.Atoi(proc)
		if err != nil {
			return nil, fmt.Errorf("watch: process id %q", proc)
		}
		pts := make([]geom.Point, len(verts))
		for i, v := range verts {
			pts[i] = geom.Point(v)
		}
		outs[id] = pts
	}
	return outs, nil
}

// engDriver opens the same instances straight on the resident engine, below
// the service and multiplex layers, with every core.Process wrapped in the
// timing decorator. It exists only in the traced pass.
type engDriver struct {
	w    *workload
	seed int64
	tr   *tracer

	eng    *engine.Resident
	walDir string
}

func newEngDriver(w *workload, o options, tr *tracer) (*engDriver, error) {
	d := &engDriver{w: w, seed: o.seed, tr: tr}
	opts := engine.ResidentOptions{Transport: w.transport}
	if w.durable {
		dir, err := newWALDir(o.outDir)
		if err != nil {
			return nil, err
		}
		d.walDir = dir
		opts.WALDir, opts.RetireEvery, opts.WALFS = dir, walRetire, flooredFS()
	}
	eng, err := engine.StartResident(w.params.N, opts)
	if err != nil {
		os.RemoveAll(d.walDir)
		return nil, err
	}
	d.eng = eng
	return d, nil
}

func (d *engDriver) netStats() runtime.ClusterStats { return d.eng.Stats() }

func (d *engDriver) close() error {
	errs := []error{d.eng.Drain(decideTimeout), d.eng.Close()}
	if d.walDir != "" {
		errs = append(errs, os.RemoveAll(d.walDir))
	}
	return errors.Join(errs...)
}

func (d *engDriver) decide(k int) (map[int][]geom.Point, error) {
	n := d.w.params.N
	inputs := genInputs(d.seed, d.w.name, k, n, d.w.params.D)
	// Odd instances run decorated and feed the core.* numbers and the
	// replay; even ones run bare and feed the engine.* timings, which the
	// decorator's four clock reads per delivery would otherwise inflate.
	decorate := k%2 != 0
	acc := &procAcc{}
	var (
		mu      sync.Mutex
		procs   = make([]*core.Process, n)
		decided int
		failure error
		done    = make(chan struct{})
		once    sync.Once
	)
	spec := engine.InstanceSpec{New: func(id dist.ProcID) (dist.Process, error) {
		p, err := core.NewProcess(d.w.params, id, inputs[id])
		if err != nil || !decorate {
			return p, err
		}
		return &timedProc{inner: p, acc: acc, tr: d.tr}, nil
	}}
	sink := engine.InstanceSink{
		OnProcDecided: func(id dist.ProcID, sub dist.Process) {
			mu.Lock()
			defer mu.Unlock()
			if tp, ok := sub.(*timedProc); ok {
				procs[id] = tp.inner
			} else {
				procs[id] = sub.(*core.Process)
			}
			if decided++; decided == n {
				once.Do(func() { close(done) })
			}
		},
		OnFailed: func(err error) {
			mu.Lock()
			defer mu.Unlock()
			failure = err
			once.Do(func() { close(done) })
		},
	}
	root := d.tr.begin("engine.decide", 0, k)
	defer d.tr.end(root)
	sp := d.tr.begin("engine.open", root, k)
	t0 := time.Now()
	_, err := d.eng.Open(spec, sink)
	opened := time.Since(t0)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	select {
	case <-done:
	case <-time.After(decideTimeout):
		return nil, fmt.Errorf("instance not decided within %v", decideTimeout)
	}
	wall := time.Since(t0)
	mu.Lock()
	defer mu.Unlock()
	if failure != nil {
		return nil, failure
	}
	if decorate {
		d.tr.noteInstance(k, wall, acc, procs)
	} else {
		d.tr.add("engine.open_us", us(opened))
		d.tr.add("engine.decide_ms", ms(wall))
	}
	return decidedVertices(procs), nil
}
