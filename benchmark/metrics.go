package main

import (
	"fmt"
	"path/filepath"
	"time"

	"chc/internal/polytope"
	"chc/internal/telemetry"
)

// metric is one reported number. Samples is the number of observations
// behind a percentile or a per-instance mean (0 for plain counters).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Scale     string            `json:"scale"`
	Trace     int               `json:"trace"`
	Seconds   float64           `json:"window_seconds"`
	Attempted int               `json:"attempted"`
	Decided   int               `json:"decided"`
	Failed    int               `json:"failed"`
	Correct   bool              `json:"correct"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet assembles metrics against a fixed list of definitions, so a
// name that is not declared (or a declared one left unset) is a bug caught
// at once instead of a silently missing number.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, v float64, samples int) {
	for _, d := range s.defs {
		if d.name == name {
			s.m[name] = metric{Value: v, Unit: d.unit, Samples: samples}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

// finish fills every declared metric the workload did not exercise with 0.
func (s *metricSet) finish() map[string]metric {
	for _, d := range s.defs {
		if _, ok := s.m[d.name]; !ok {
			s.m[d.name] = metric{Unit: d.unit}
		}
	}
	return s.m
}

// p50 sets name to the median of the collector series src.
func (s *metricSet) p50(name string, t *tracer, src string) {
	xs := t.col.values(src)
	s.set(name, median(xs), len(xs))
}

// perInstance sets name to the series total divided by the instance count.
func (s *metricSet) perInstance(name string, t *tracer, src string, instances int) {
	s.set(name, ratio(sum(t.col.values(src)), float64(instances)), instances)
}

// window returns the timed window of a run: the whole of -seconds for an
// end-to-end run, a share of it for each pass of a traced run.
func window(o options, share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

func newResult(w *workload, o options, trace int, p *pass) *runResult {
	scale := "full"
	if o.smoke {
		scale = "smoke"
	}
	return &runResult{
		Workload: w.name, Seed: o.seed, Scale: scale, Trace: trace, Seconds: o.seconds,
		Attempted: len(p.outcomes), Decided: p.decided, Failed: p.failed,
		Correct: p.failed == 0, Failures: p.failures,
	}
}

// runEndToEnd is the untraced run: set-up, one timed window, audit.
func runEndToEnd(w *workload, o options) (*runResult, error) {
	p, err := measure(w, o, nil, window(o, 1), stdDriver, setupReps)
	if err != nil {
		return nil, err
	}
	res := newResult(w, o, 0, p)
	if err := p.validate(w, o); err != nil {
		return nil, err
	}
	lat := p.latenciesMS()
	s := newMetricSet(endToEnd)
	s.set("setup_s", median(p.setup), len(p.setup))
	s.set("decide_p50_ms", median(lat), len(lat))
	s.set("throughput_ips", float64(p.decided)/p.wall.Seconds(), p.decided)
	res.Metrics = s.finish()
	// Reported next to the end-to-end metrics, but not gated. The two shares
	// are 0 on a healthy run, and a relative bound cannot gate a metric
	// whose median is 0; the top-level attempted/failed counts carry the
	// failures. CPU per instance does not repeat on svc-durable (idle
	// spinning between fsyncs: 136-244 ms over ten runs).
	res.Metrics["process.cpu_ms_per_instance"] = metric{Value: ms(p.cpu) / float64(p.decided), Unit: "ms", Samples: p.decided}
	res.Metrics["slo_miss_share"] = metric{Value: p.sloMissShare(w.slo), Unit: "ratio", Samples: len(p.outcomes)}
	res.Metrics["failed_share"] = metric{Value: p.failedShare(), Unit: "ratio", Samples: len(p.outcomes)}
	return res, nil
}

// Shares of -seconds the passes of a traced run get. The untraced reference
// and the traced pass get the same window, so their medians compare.
const (
	tracedShare = 0.3
	engineShare = 0.15
)

// runTraced is the per-layer run: an untraced reference pass, the same pass
// again with every layer wrapped, for service workloads a pass straight on
// the resident engine, then the kernel replays on the harvested operands.
func runTraced(w *workload, o options) (*runResult, error) {
	ref, err := measure(w, o, nil, window(o, tracedShare), stdDriver, 1)
	if err != nil {
		return nil, err
	}

	prevTel := telemetry.Enable(true)
	defer telemetry.Enable(prevTel)
	rec := newRecorder()
	tr := newTracer(rec)
	p, err := measure(w, o, tr, window(o, tracedShare), stdDriver, 1)
	if err != nil {
		return nil, err
	}
	if err := p.validate(w, o); err != nil {
		return nil, err
	}

	res := newResult(w, o, 1, p)
	s := newMetricSet(perLayer)
	n := p.decided
	lat := p.latenciesMS()
	cpuPer := ms(p.cpu) / float64(n)

	s.set("trace.overhead_share", ratio(median(lat)-median(ref.latenciesMS()), median(ref.latenciesMS())), len(lat))
	s.set("slo_miss_share", p.sloMissShare(w.slo), len(p.outcomes))
	s.set("failed_share", p.failedShare(), len(p.outcomes))
	s.set("process.cpu_ms_per_instance", cpuPer, n)
	s.set("process.alloc_kb_per_instance", p.allocBytes/1024/float64(n), n)
	s.set("process.gc_cpu_share", ratio(p.gcCPUSeconds, p.cpu.Seconds()), 0)
	s.set("polytope.hull_cache_hit_ratio", ratio(float64(p.hullHits), float64(p.hullHits+p.hullMisses)), 0)
	s.set("polytope.combine_cache_hit_ratio", ratio(float64(p.combHits), float64(p.combHits+p.combMisses)), 0)
	s.set("lp.solves_per_instance", p.lpSolves/float64(n), n)

	// proto is the tracer whose decorators saw the protocol layer: the
	// traced pass itself for library workloads, the engine pass for service
	// workloads (the service builds its own processes, out of reach).
	proto := tr
	if w.service {
		serviceMetrics(s, w, p, tr)
		if w.durable {
			ablate := newTracer(rec)
			ablate.elideSync = true
			ap, err := measure(w, o, ablate, window(o, engineShare), stdDriver, 1)
			if err != nil {
				return nil, err
			}
			s.set("wal.decide_share", 1-ratio(median(ap.latenciesMS()), median(lat)), ap.decided)
		}
		proto = newTracer(rec)
		ep, err := measure(w, o, proto, window(o, engineShare), engineDriver, 1)
		if err != nil {
			return nil, err
		}
		if ep.failed > 0 {
			return nil, fmt.Errorf("%s: engine pass: %v", w.name, ep.failures)
		}
		s.p50("engine.open_call_us_p50", proto, "engine.open_us")
		s.p50("engine.open_to_decided_ms_p50", proto, "engine.decide_ms")
		s.set("multiplex.overhead_ms_p50",
			s.m["multiplex.overhead_ms_p50"].Value-s.m["engine.open_to_decided_ms_p50"].Value, ep.decided)
		// Against the engine pass's own CPU: the decorators ran there.
		cpuPer = ms(ep.cpu) / float64(ep.decided)
	} else {
		s.perInstance("dist.sends_per_instance", tr, "dist.sends", n)
		s.perInstance("dist.bytes_per_instance", tr, "dist.bytes", n)
		// The simulator is single-threaded: what is left of the run's wall
		// time outside the state machines, plus the send path they call
		// into, is the simulator's own.
		wall, busy := sum(tr.col.values("inst.wall_ms")), sum(tr.col.values("core.busy_ms"))
		s.set("dist.self_ms_per_instance", (wall-busy)/float64(n), n)
		s.set("dist.self_share", ratio(wall-busy, wall), n)
	}
	insts := len(proto.col.values("inst.wall_ms"))
	s.perInstance("core.deliver_busy_ms_per_instance", proto, "core.busy_ms", insts)
	s.perInstance("core.deliver_calls_per_instance", proto, "core.calls", insts)
	s.p50("core.rounds_p50", proto, "core.rounds")
	s.set("core.busy_cpu_share", ratio(s.m["core.deliver_busy_ms_per_instance"].Value, cpuPer), insts)

	if err := replayAll(s, w, o, proto, cpuPer); err != nil {
		return nil, fmt.Errorf("%s: replay: %w", w.name, err)
	}
	s.set("process.peak_rss_mb", peakRSSMB(), 0)
	res.Metrics = s.finish()
	if err := rec.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), w.name); err != nil {
		return nil, err
	}
	return res, nil
}

// lpSolves reads the process-wide simplex counter from the registry.
func lpSolves() float64 {
	if f := telemetry.Default().Snapshot().Find("chc_lp_solves_total"); f != nil {
		return f.Total()
	}
	return 0
}

// serviceMetrics fills the layers only a service pass exercises: the HTTP
// front end, the journal, and the cluster's transport counters.
func serviceMetrics(s *metricSet, w *workload, p *pass, tr *tracer) {
	n := p.decided
	lat := p.latenciesMS()
	s.set("service.decide_p90_ms", quantile(lat, 0.9), len(lat))
	s.set("service.decide_p99_ms", quantile(lat, 0.99), len(lat))
	share, worst := p.genLate(w.gapMS())
	s.set("service.gen_late_share", share, len(p.lateMS))
	s.set("service.gen_late_max_ms", worst, len(p.lateMS))
	s.set("service.admission_rejects", sum(tr.col.values("service.rejects")), 0)

	var post, watch, overhead, inService []float64
	tr.mu.Lock()
	for _, r := range tr.reqs {
		if r.clientWatch == 0 || r.handlerWatch == 0 {
			continue
		}
		post = append(post, us(r.handlerPost))
		watch = append(watch, ms(r.handlerWatch))
		overhead = append(overhead, us(r.clientPost-r.handlerPost), us(r.clientWatch-r.handlerWatch))
		inService = append(inService, ms(r.watchEnd.Sub(r.postStart)))
	}
	tr.mu.Unlock()
	s.set("service.handler_post_us_p50", median(post), len(post))
	s.set("service.handler_watch_ms_p50", median(watch), len(watch))
	s.set("service.http_overhead_us_p50", median(overhead), len(overhead))
	// Completed by the engine pass: minus the engine's own open-to-decided.
	s.set("multiplex.overhead_ms_p50", median(inService), len(inService))

	syncs, syncNS := float64(tr.walSyncs.Load()), float64(tr.walSyncNS.Load())
	s.set("wal.syncs_per_instance", syncs/float64(n), n)
	s.p50("wal.sync_us_p50", tr, "wal.sync_us")
	s.set("wal.sync_busy_ms_per_instance", syncNS/1e6/float64(n), n)
	s.set("wal.write_bytes_per_instance", float64(tr.walBytes.Load())/float64(n), n)
	s.set("wal.netstats_syncs_per_instance", float64(p.net.Net.WALSyncs)/float64(n), n)

	s.set("runtime.sends_per_instance", float64(p.net.Sends)/float64(n), n)
	s.set("rlink.frames_per_instance", float64(p.net.Net.FramesSent)/float64(n), n)
	s.set("rlink.acks_per_instance", float64(p.net.Net.AcksSent)/float64(n), n)
	s.set("rlink.retransmit_ratio", ratio(float64(p.net.Net.Retransmits), float64(p.net.Net.FramesSent)), 0)
}

// replayAll runs the replay passes over what proto harvested.
func replayAll(s *metricSet, w *workload, o options, proto *tracer, cpuPer float64) error {
	params := w.params.WithDefaults()
	if w.cold {
		prev := polytope.SetHullCaching(false)
		defer polytope.SetHullCaching(prev)
	}
	var replayCPU time.Duration
	for _, it := range proto.harvest {
		took, err := replayInstance(params, it)
		if err != nil {
			return err
		}
		replayCPU += took
		if err := proto.replayStableVector(w, o.seed, it.k); err != nil {
			return err
		}
	}
	h := len(proto.harvest)
	replayPer := ratio(ms(replayCPU), float64(h))
	s.set("polytope.replay_cpu_ms_per_instance", replayPer, h)
	s.set("polytope.replay_cpu_share", ratio(replayPer, cpuPer), h)
	s.p50("stablevector.round0_ms_p50", proto, "stablevector.round0_ms")
	s.perInstance("stablevector.msgs_per_instance", proto, "stablevector.msgs", h)

	if err := proto.replayKernels(params); err != nil {
		return err
	}
	s.p50("core.initial_polytope_ms_p50", proto, "core.initial_polytope_ms")
	s.p50("polytope.intersect_ms_p50", proto, "polytope.intersect_ms")
	s.p50("polytope.average_ms_p50", proto, "polytope.average_ms")
	s.p50("polytope.hausdorff_us_p50", proto, "polytope.hausdorff_us")
	s.p50("hull.convex_hull_us_p50", proto, "hull.convex_hull_us")
	s.p50("hull.facets_us_p50", proto, "hull.facets_us")
	s.p50("lp.convex_weights_us_p50", proto, "lp.convex_weights_us")
	s.p50("lp.chebyshev_us_p50", proto, "lp.chebyshev_us")

	encNS, decNS, bytes, err := proto.replayWire()
	if err != nil {
		return err
	}
	linkNS, err := proto.replayRlink()
	if err != nil {
		return err
	}
	msgs := len(proto.captured)
	s.set("wire.encode_ns_per_msg", encNS, msgs)
	s.set("wire.decode_ns_per_msg", decNS, msgs)
	s.set("wire.bytes_per_msg", bytes, msgs)
	s.set("rlink.send_deliver_ns_per_msg", linkNS, msgs)
	return nil
}
