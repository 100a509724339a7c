package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
	"chc/internal/geom"
	"chc/internal/polytope"
	"chc/internal/runtime"
)

// options are the settings of one invocation.
type options struct {
	seed    int64
	seconds float64 // length of the timed window at -scale full
	smoke   bool    // -scale smoke: a few instances per workload, no clock
	outDir  string
}

// driver decides one instance at a time; a pass schedules calls to it.
// decide returns the output vertices of every process that decided.
type driver interface {
	decide(k int) (map[int][]geom.Point, error)
	// netStats reports the cluster's transport counters (zero on the
	// simulator, which has no link layer).
	netStats() runtime.ClusterStats
	close() error
}

// libDriver runs instances through core.Run on the deterministic simulator.
// Traced, it runs the same engine call core.Run makes, with each
// core.Process wrapped in the timing decorator.
type libDriver struct {
	w    *workload
	seed int64
	tr   *tracer
}

func (d *libDriver) netStats() runtime.ClusterStats { return runtime.ClusterStats{} }
func (d *libDriver) close() error                   { return nil }

func (d *libDriver) decide(k int) (map[int][]geom.Point, error) {
	cfg := d.w.runConfig(d.seed, k)
	if d.tr != nil {
		return d.decideTraced(cfg, k)
	}
	res, err := core.Run(cfg)
	if err != nil {
		return nil, err
	}
	outs := make(map[int][]geom.Point, len(res.Outputs))
	for id, p := range res.Outputs {
		outs[int(id)] = p.Vertices()
	}
	return outs, nil
}

func (d *libDriver) decideTraced(cfg core.RunConfig, k int) (map[int][]geom.Point, error) {
	n := cfg.Params.N
	acc := &procAcc{}
	procs := make([]*core.Process, n)
	spec := engine.Spec{N: n, Instances: []engine.InstanceSpec{{
		New: func(id dist.ProcID) (dist.Process, error) {
			p, err := core.NewProcess(cfg.Params, id, cfg.Inputs[id])
			if err != nil {
				return nil, err
			}
			procs[id] = p
			return &timedProc{inner: p, acc: acc, tr: d.tr}, nil
		},
	}}}
	sp := d.tr.begin("core.run", 0, k)
	t0 := time.Now()
	res, err := engine.Run(spec, engine.Options{Seed: cfg.Seed, Crashes: cfg.Crashes})
	wall := time.Since(t0)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	d.tr.noteInstance(k, wall, acc, procs)
	d.tr.add("dist.sends", float64(res.Stats.Sends))
	d.tr.add("dist.bytes", float64(res.Stats.Bytes))
	return decidedVertices(procs), nil
}

// decidedVertices extracts the output vertices of every decided process.
func decidedVertices(procs []*core.Process) map[int][]geom.Point {
	outs := make(map[int][]geom.Point, len(procs))
	for id, p := range procs {
		if p == nil || p.DecidedRound() == 0 {
			continue
		}
		if out, err := p.Output(); err == nil {
			outs[id] = out.Vertices()
		}
	}
	return outs
}

// resetMemo empties the process-wide hull/combine memo without changing
// whether it is on, so no pass starts with another pass's results cached.
func resetMemo() { polytope.SetHullCaching(polytope.SetHullCaching(false)) }

// mkDriver brings one kind of system under test up.
type mkDriver func(w *workload, o options, tr *tracer) (driver, error)

// stdDriver is the workload as its users reach it: the HTTP API of the
// resident service, or core.Run.
func stdDriver(w *workload, o options, tr *tracer) (driver, error) {
	if w.service {
		return newSvcDriver(w, o, tr)
	}
	return &libDriver{w: w, seed: o.seed, tr: tr}, nil
}

func engineDriver(w *workload, o options, tr *tracer) (driver, error) {
	return newEngDriver(w, o, tr)
}

// setUp brings the workload's system up and decides the warm-up instances
// (negative indices: never one of the measured instances).
func setUp(w *workload, o options, tr *tracer, mk mkDriver) (driver, time.Duration, error) {
	resetMemo()
	t0 := time.Now()
	d, err := mk(w, o, tr)
	if err != nil {
		return nil, 0, err
	}
	warm := w.warmup
	if o.smoke {
		warm = 0
	}
	for i := 1; i <= warm; i++ {
		if _, err := d.decide(-i); err != nil {
			return nil, 0, errors.Join(fmt.Errorf("warm-up instance %d: %w", -i, err), d.close())
		}
	}
	return d, time.Since(t0), nil
}

// pass is one timed window over a driver.
type pass struct {
	outcomes []outcome
	wall     time.Duration
	cpu      time.Duration
	setup    []float64 // seconds, one per set-up repetition
	lateMS   []float64 // open loop: how late the generator issued each instance
	net      runtime.ClusterStats

	allocBytes, gcCPUSeconds float64
	lpSolves                 float64 // needs telemetry on
	hullHits, hullMisses     int64
	combHits, combMisses     int64

	decided, failed int
	failures        []string
}

// latenciesMS returns the decide latency of every decided, audited instance.
func (p *pass) latenciesMS() []float64 {
	var xs []float64
	for _, o := range p.outcomes {
		if o.err == nil {
			xs = append(xs, ms(o.latency))
		}
	}
	return xs
}

// sloMissShare is the share of attempted instances not decided within the
// workload's limit; failed and refused instances count as misses.
func (p *pass) sloMissShare(limit time.Duration) float64 {
	miss := 0
	for _, o := range p.outcomes {
		if o.err != nil || o.latency > limit {
			miss++
		}
	}
	return ratio(float64(miss), float64(len(p.outcomes)))
}

// runWindow drives d for the window (or exactly ops instances when ops > 0)
// and returns the raw outcomes. Open-loop workloads issue instance k at
// start + k/rate whatever the server does and time it from that due moment;
// closed-loop workloads issue k+1 when k completes.
func runWindow(w *workload, d driver, window time.Duration, ops int) (outs []outcome, lateMS []float64) {
	start := time.Now()
	if w.rate == 0 {
		for k := 0; (ops > 0 && k < ops) || (ops == 0 && time.Since(start) < window); k++ {
			t0 := time.Now()
			out, err := d.decide(k)
			outs = append(outs, outcome{k: k, latency: time.Since(t0), err: err, outputs: out})
		}
		return outs, nil
	}
	total := ops
	if total == 0 {
		total = int(w.rate * window.Seconds())
	}
	type job struct {
		k   int
		due time.Time
	}
	// Sized to the number of sends, so the generator never blocks on a slow
	// server: lateness is then the generator's own.
	jobs := make(chan job, total)
	outs = make([]outcome, total)
	var wg sync.WaitGroup
	for c := 0; c < openLoopClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out, err := d.decide(j.k)
				outs[j.k] = outcome{k: j.k, latency: time.Since(j.due), err: err, outputs: out}
			}
		}()
	}
	gap := time.Duration(w.gapMS() * float64(time.Millisecond))
	for k := 0; k < total; k++ {
		due := start.Add(time.Duration(k) * gap)
		time.Sleep(time.Until(due))
		lateMS = append(lateMS, ms(time.Since(due)))
		jobs <- job{k, due}
	}
	close(jobs)
	wg.Wait()
	return outs, lateMS
}

// setupReps is how many times an end-to-end run brings the system up; the
// reported setup_s is the median, the last bring-up serves the timed window.
const setupReps = 3

// measure sets the workload up reps times, runs one timed window on the last
// bring-up, tears down and audits the stored results. The hull memo setting
// is restored on every exit path.
func measure(w *workload, o options, tr *tracer, window time.Duration, mk mkDriver, reps int) (*pass, error) {
	if w.cold {
		prev := polytope.SetHullCaching(false)
		defer polytope.SetHullCaching(prev)
	}
	ops := 0
	if o.smoke {
		reps, ops = 1, w.smokeOps
	}
	p := &pass{}
	var d driver
	for i := 0; i < reps; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
			}
		}
		var took time.Duration
		var err error
		d, took, err = setUp(w, o, tr, mk)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		p.setup = append(p.setup, took.Seconds())
	}
	tr.reset()

	netBefore := d.netStats()
	lp0 := lpSolves()
	hullHit0, hullMiss0 := polytope.HullCacheStats()
	combHit0, combMiss0 := polytope.CombineCacheStats()
	alloc0, gc0 := heapCounters()
	cpu0 := cpuTime()
	t0 := time.Now()
	p.outcomes, p.lateMS = runWindow(w, d, window, ops)
	p.wall = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	alloc1, gc1 := heapCounters()
	p.allocBytes, p.gcCPUSeconds = alloc1-alloc0, gc1-gc0
	p.lpSolves = lpSolves() - lp0
	hullHit1, hullMiss1 := polytope.HullCacheStats()
	combHit1, combMiss1 := polytope.CombineCacheStats()
	p.hullHits, p.hullMisses = hullHit1-hullHit0, hullMiss1-hullMiss0
	p.combHits, p.combMisses = combHit1-combHit0, combMiss1-combMiss0
	p.net = netDelta(netBefore, d.netStats())

	if err := d.close(); err != nil {
		return nil, fmt.Errorf("%s: tear-down: %w", w.name, err)
	}
	p.decided, p.failed, p.failures = auditAll(w, o.seed, p.outcomes)
	if p.decided == 0 {
		return nil, fmt.Errorf("%s: no instance decided: %v", w.name, p.failures)
	}
	return p, nil
}

// netDelta subtracts the counters this benchmark reports.
func netDelta(a, b runtime.ClusterStats) runtime.ClusterStats {
	d := runtime.ClusterStats{Sends: b.Sends - a.Sends, Bytes: b.Bytes - a.Bytes}
	d.Net.FramesSent = b.Net.FramesSent - a.Net.FramesSent
	d.Net.Retransmits = b.Net.Retransmits - a.Net.Retransmits
	d.Net.AcksSent = b.Net.AcksSent - a.Net.AcksSent
	d.Net.WALAppends = b.Net.WALAppends - a.Net.WALAppends
	d.Net.WALSyncs = b.Net.WALSyncs - a.Net.WALSyncs
	return d
}

// Guard thresholds of the open-loop workload: a run in which the generator
// itself could not keep up, or too few instances completed, measures the
// benchmark and not the server, and is refused. An instance is "late" when
// the generator issued it more than one inter-arrival gap after it was due,
// a whole instance behind schedule. Lateness below that is the clock's (Go's
// netpoller sleeps in whole milliseconds while sockets are open) and the
// scheduler's. The share limit separates a generator that cannot keep up,
// which is late on most instances, from a frozen host: about one 20 s run in
// twenty on the reference box loses 1-1.5 s to the hypervisor (7.3 % of
// instances more than 5 ms late in such a run, under 0.1 % in the others),
// and the instances due meanwhile are issued in a burst afterwards. Those
// runs stay valid — the freeze shows in slo_miss_share and in
// service.gen_late_share, and does not move the median.
const (
	maxGenLateShare = 0.25
	minCompleted    = 0.95
)

// failedShare is the share of attempted instances that failed, were refused,
// timed out or failed the audit.
func (p *pass) failedShare() float64 {
	return ratio(float64(p.failed), float64(len(p.outcomes)))
}

// genLate reports the share of instances the open-loop generator issued
// late (more than gapMS behind) and the worst lateness.
func (p *pass) genLate(gapMS float64) (share, maxMS float64) {
	late := 0
	for _, l := range p.lateMS {
		if l > gapMS {
			late++
		}
		if l > maxMS {
			maxMS = l
		}
	}
	return ratio(float64(late), float64(len(p.lateMS))), maxMS
}

// validate refuses a saturated open-loop run (see the guard thresholds). A
// smoke run is too short for shares to mean anything and is not judged.
func (p *pass) validate(w *workload, o options) error {
	if w.rate == 0 || o.smoke {
		return nil
	}
	if share, _ := p.genLate(w.gapMS()); share > maxGenLateShare {
		return fmt.Errorf("%s: invalid run: generator issued %.1f%% of instances more than %.0f ms late (limit %.0f%%)",
			w.name, 100*share, w.gapMS(), 100*maxGenLateShare)
	}
	if done := ratio(float64(p.decided), float64(len(p.outcomes))); done < minCompleted {
		return fmt.Errorf("%s: invalid run: only %.1f%% of offered instances completed (need %.0f%%)",
			w.name, 100*done, 100*minCompleted)
	}
	return nil
}
