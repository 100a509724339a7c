package main

import (
	"time"

	"chc/internal/core"
	"chc/internal/dist"
	"chc/internal/engine"
)

// workload is one named set of inputs plus the way it is driven. Each one
// exists so that a different layer does most of the work (see README.md).
type workload struct {
	name string
	why  string

	params core.Params

	// service workloads run behind the HTTP API of a resident service;
	// library workloads call core.Run on the deterministic simulator.
	service   bool
	transport engine.Transport // service only
	durable   bool             // service only: WAL on a real directory
	rate      float64          // open-loop instances/s; 0 = closed loop, one in flight

	cold  bool // library only: process-wide hull/combine memo off
	crash bool // library only: process n-1 is faulty and crashes mid-broadcast

	warmup   int           // instances decided before the timed window
	slo      time.Duration // fixed latency limit of slo_miss_share
	smokeOps int           // op count at -scale smoke
}

// openLoopClients caps the open-loop generator's keep-alive connections (and
// so its in-flight instances): two are ~3x the mean concurrency at the
// offered rate, enough that the generator does not throttle the server.
const openLoopClients = 2

// walRetire is chcd's default -wal-retire horizon.
const walRetire = 64

// The service workloads run n=6, one process more than chcd's default: at
// n = (d+2)f+1 = 5 a process that hears from only n-f = 4 others computes the
// Radon point of four inputs, and the 2-D clip returns "empty" on 119 of
// 1 000 000 such views, failing the instance. At n=6 no view of 200 000
// generated instances fails, so no operation of the benchmark does.
var workloads = []workload{
	{
		name: "svc-open",
		why:  "tenant-facing hot path: HTTP, admission, journaled open, stable vector, 37 rounds on channels; 2-D exact geometry, memo warm; open loop 100/s",
		params: core.Params{
			N: 6, F: 1, D: 2, Epsilon: 0.1, InputLower: 0, InputUpper: inputUpper,
		},
		service: true, transport: engine.TransportChannel, rate: 100,
		warmup: 50, slo: 25 * time.Millisecond, smokeOps: 30,
	},
	{
		name: "svc-durable",
		why:  "chcd durable configuration: loopback TCP plus one real fsync (400 us floor) per journaled delivery; wal dominates, rlink/wire/runtime under it; closed loop, 1 in flight",
		params: core.Params{
			N: 6, F: 1, D: 2, Epsilon: 0.1, InputLower: 0, InputUpper: inputUpper,
		},
		service: true, transport: engine.TransportTCP, durable: true,
		warmup: 3, slo: 1000 * time.Millisecond, smokeOps: 3,
	},
	{
		name: "geom-cold",
		why:  "per-node geometry cost with the process-wide memo off: n=6 f=1 d=3 on the simulator, N-D LP path under hull and polytope.Average; one crash mid-broadcast",
		params: core.Params{
			N: 6, F: 1, D: 3, Epsilon: 2, InputLower: 0, InputUpper: inputUpper,
		},
		cold: true, crash: true,
		// Ten, not three: an instance costs 80 to 200 ms (p10 to p90) with its
		// inputs, and set-up time over three spread by a quarter across seeds.
		warmup: 10, slo: 1500 * time.Millisecond, smokeOps: 2,
	},
	{
		name: "scale-n16",
		why:  "message-count scaling: n=16 f=2 d=2, ~25k messages per instance on the simulator; dist scheduling, stablevector and per-message core work dominate, geometry is small",
		params: core.Params{
			N: 16, F: 2, D: 2, Epsilon: 0.5, InputLower: 0, InputUpper: inputUpper,
		},
		warmup: 3, slo: 2000 * time.Millisecond, smokeOps: 1,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// gapMS is the open loop's inter-arrival gap in milliseconds.
func (w *workload) gapMS() float64 { return 1000 / w.rate }

// crashAfterSends lands the crash inside the faulty process's first
// broadcast (n-1 sends), so only a prefix of the cluster hears from it.
func (w *workload) crashAfterSends() int { return w.params.N / 2 }

// faulty returns the fault set F of the workload's instances.
func (w *workload) faulty() []dist.ProcID {
	if !w.crash {
		return nil
	}
	return []dist.ProcID{dist.ProcID(w.params.N - 1)}
}

// runConfig builds the simulator execution of instance k.
func (w *workload) runConfig(seed int64, k int) core.RunConfig {
	cfg := core.RunConfig{
		Params: w.params,
		Inputs: genInputs(seed, w.name, k, w.params.N, w.params.D),
		Faulty: w.faulty(),
		Seed:   schedSeed(seed, w.name, k),
	}
	for _, id := range cfg.Faulty {
		cfg.Crashes = append(cfg.Crashes, dist.CrashPlan{Proc: id, AfterSends: w.crashAfterSends()})
	}
	return cfg
}

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names; main_test.go checks the two agree.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a tenant (or a caller of core.Run) would see.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"decide_p50_ms", "ms"},
	{"throughput_ips", "1/s"},
}

// perLayer are the metrics of single layers, taken in the traced pass from
// the benchmark's own wrappers around each layer's public functions. A layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"service.handler_post_us_p50", "us"},
	{"service.handler_watch_ms_p50", "ms"},
	{"service.http_overhead_us_p50", "us"},
	{"service.decide_p90_ms", "ms"},
	{"service.decide_p99_ms", "ms"},
	{"service.gen_late_share", "ratio"},
	{"service.gen_late_max_ms", "ms"},
	{"service.admission_rejects", "count"},
	{"engine.open_call_us_p50", "us"},
	{"engine.open_to_decided_ms_p50", "ms"},
	{"multiplex.overhead_ms_p50", "ms"},
	{"core.deliver_busy_ms_per_instance", "ms"},
	{"core.deliver_calls_per_instance", "count"},
	{"core.rounds_p50", "count"},
	{"core.initial_polytope_ms_p50", "ms"},
	{"core.busy_cpu_share", "ratio"},
	{"stablevector.round0_ms_p50", "ms"},
	{"stablevector.msgs_per_instance", "count"},
	{"dist.self_ms_per_instance", "ms"},
	{"dist.self_share", "ratio"},
	{"dist.sends_per_instance", "count"},
	{"dist.bytes_per_instance", "B"},
	{"polytope.average_ms_p50", "ms"},
	{"polytope.intersect_ms_p50", "ms"},
	{"polytope.hausdorff_us_p50", "us"},
	{"polytope.hull_cache_hit_ratio", "ratio"},
	{"polytope.combine_cache_hit_ratio", "ratio"},
	{"polytope.replay_cpu_ms_per_instance", "ms"},
	{"polytope.replay_cpu_share", "ratio"},
	{"hull.convex_hull_us_p50", "us"},
	{"hull.facets_us_p50", "us"},
	{"lp.convex_weights_us_p50", "us"},
	{"lp.chebyshev_us_p50", "us"},
	{"lp.solves_per_instance", "count"},
	{"wal.syncs_per_instance", "count"},
	{"wal.sync_us_p50", "us"},
	{"wal.sync_busy_ms_per_instance", "ms"},
	{"wal.write_bytes_per_instance", "B"},
	{"wal.netstats_syncs_per_instance", "count"},
	{"wal.decide_share", "ratio"},
	{"runtime.sends_per_instance", "count"},
	{"rlink.frames_per_instance", "count"},
	{"rlink.acks_per_instance", "count"},
	{"rlink.retransmit_ratio", "ratio"},
	{"rlink.send_deliver_ns_per_msg", "ns"},
	{"wire.encode_ns_per_msg", "ns"},
	{"wire.decode_ns_per_msg", "ns"},
	{"wire.bytes_per_msg", "B"},
	{"process.cpu_ms_per_instance", "ms"},
	{"process.alloc_kb_per_instance", "kB"},
	{"process.gc_cpu_share", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"trace.overhead_share", "ratio"},
	{"slo_miss_share", "ratio"},
	{"failed_share", "ratio"},
}
