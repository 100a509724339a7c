GO ?= go

.PHONY: build test check loc race soak soak-smoke disk-torture wire-torture fuzz-smoke serve-smoke bench bench-json bench-check bench-telemetry bench-transport bench-wan experiments

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the tier-1 gate plus static analysis and the race detector over
# the concurrency-heavy packages (networked runtime, reliable links, chaos
# injection, simulator, wire codec, telemetry registry), the packages the
# simulator's per-message path runs through (stable vector, WAN scheduler)
# and the geometry kernels, whose determinism tests DESIGN.md §7 promises
# under -race and whose pooled scratch (LP workspaces, the extreme-point
# filter's frame) is shared across the worker pool's goroutines.
check: build
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) test -race ./internal/runtime/... ./internal/rlink/... ./internal/chaos/... ./internal/dist/... ./internal/wire/... ./internal/wal/... ./internal/engine/... ./internal/multiplex/... ./internal/telemetry/... ./internal/stablevector/... ./internal/wan/... ./internal/hull/... ./internal/lp/... ./internal/polytope/...

# loc is the size the simplicity aim is judged by: lines of tracked non-test
# Go source outside the benchmark harness and its build cache.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^benchmark/' -e '^\.bench_build/' | xargs wc -l | tail -1

race:
	$(GO) test -race ./...

# soak runs the long chaos matrix (many seeds x heavy profile x crash
# plans) under the race detector. Opt-in: it is too slow for tier-1.
soak:
	CHC_CHAOS_SOAK=1 $(GO) test -race -v -run TestChaosSoak -timeout 20m ./internal/runtime/

# soak-smoke is the WAN/soak gate: the WAN model and scheduler suites, the
# chcsoak harness tests, and a short bounded chcsoak against an in-process
# daemon under a geo topology — preceded by the 64-process sim-mesh gate
# (full delivery + bitwise-reproduced schedule) and followed by a drain that
# must leave zero undecided instances — all under the race detector.
soak-smoke: build
	$(GO) test -race -timeout 10m ./internal/wan/ ./cmd/chcsoak/
	$(GO) run -race ./cmd/chcsoak -self -n 5 -duration 5s -rate 8 \
		-wan 3-regions,delay=0.002 -wan-seed 3 -mesh 64 -instance-deadline 2m

# disk-torture is the storage-fault gate: the deterministic fault injector,
# the full WAL suite (torn checkpoints, mid-rotation crashes, compaction
# bounds, byte-identical checkpointed replay), the runtime durability
# policies (fail-stop within the f budget, degrade + re-arm), the monotone
# Stats() poll across WAL relaunches, and the
# lost-tail crash test of the output-commit barrier (every exit of a node
# judged against a filesystem that keeps only what was synced: the kill-point
# sweep in runtime, the held-ack contract in rlink, the sink and Open exits
# in engine), all under the race detector.
disk-torture: build
	$(GO) test -race -timeout 10m ./internal/diskfault/ ./internal/wal/
	$(GO) test -race -timeout 10m -run 'Durab|FailStop|Degrad|DiskFault|WALReplay|LostTail|OutputCommit|StatsMonotone' ./internal/runtime/
	$(GO) test -race -timeout 10m -run 'LostTail' ./internal/rlink/ ./internal/engine/

# wire-torture is the adversarial-wire gate: the deterministic byte-stream
# fault injector, the hardened frame codec (CRC, caps, resync), the bounded
# reliable-link buffers, and the live-TCP netfault matrix (corruption,
# quarantine/readmit, handshake-under-corruption), all under the race
# detector.
wire-torture: build
	$(GO) test -race -timeout 10m ./internal/netfault/ ./internal/wire/
	$(GO) test -race -timeout 10m -run 'Bound|Inflight|Reorder' ./internal/rlink/
	$(GO) test -race -timeout 10m -run 'NetFault|Wire|Quarantine|Handshake|Coalesce' ./internal/runtime/

# fuzz-smoke runs each codec fuzzer briefly — long enough to shake out
# shallow decoder regressions on every commit; deep fuzzing stays offline.
FUZZ_TIME ?= 30s
fuzz-smoke: build
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzStreamDecoder -fuzztime $(FUZZ_TIME) ./internal/wire/

# serve-smoke is the resident-service gate: the resident engine (dynamic
# instance lifecycle over a live cluster, including the WAL-relaunch-mid-
# stream scenario), the session/ticket layer, the service daemon (admission
# control, retention eviction, HTTP API, auth) and the chcd smoke test
# (submit over HTTP, SIGTERM, graceful drain), all under the race detector.
serve-smoke: build
	$(GO) test -race -timeout 10m -run 'Resident|Session' ./internal/engine/ ./internal/multiplex/
	$(GO) test -race -timeout 10m ./internal/service/ ./cmd/chcd/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-json runs the curated benchmark suite and writes
# BENCH_<git-sha>.json (ns/op, allocs/op, B/op per case) so the perf
# trajectory of the repo is recorded commit by commit.
bench-json: build
	$(GO) run ./cmd/chcbench -benchjson BENCH_$$(git rev-parse --short HEAD).json

# The newest committed benchmark baseline; bump when a fresh BENCH_<sha>.json
# lands.
BENCH_BASELINE ?= BENCH_8af5106.json

# bench-check is the regression gate: re-measure the suite and fail when any
# case is more than 25% slower (ns/op) — or, for cases reporting msgs/sec,
# more than 25% below — the committed baseline. The baseline defaults to the
# newest committed BENCH_<sha>.json so the transport throughput cases (absent
# from the original seed file) are gated too.
bench-check: build
	$(GO) run ./cmd/chcbench -benchjson /tmp/chc-bench-check.json -baseline $(BENCH_BASELINE)
# Allowed ns/op regression of the telemetry-disabled consensus case. 2% is
# the overhead budget of DESIGN.md §9 (every instrument's disabled path is a
# single atomic load); CI overrides this with a coarser bound because shared
# runners are noisy.
TELEMETRY_MAX_REGRESS ?= 0.02

# bench-telemetry is the observability overhead gate: the telemetry-disabled
# consensus case must stay within TELEMETRY_MAX_REGRESS of the committed
# baseline, and the telemetry-enabled twin is measured alongside so the
# BENCH_*.json trajectory records the enabled overhead commit by commit.
bench-telemetry: build
	$(GO) run ./cmd/chcbench -benchjson /tmp/chc-bench-telemetry.json \
		-bench ConsensusN10F2D3,ConsensusN10F2D3Telemetry \
		-baseline $(BENCH_BASELINE) -max-regress $(TELEMETRY_MAX_REGRESS)

# Allowed msgs/sec regression of the saturated-link transport cases. Loopback
# TCP throughput is noisier than in-process microbenchmarks, so the bound is
# coarse.
TRANSPORT_MAX_REGRESS ?= 0.25

# bench-transport is the wire throughput gate: the two saturated-link cases
# (coalesced default, compressed batches) must hold their msgs/sec against
# the committed baseline.
bench-transport: build
	$(GO) run ./cmd/chcbench -benchjson /tmp/chc-bench-transport.json \
		-bench TransportSaturatedLink,TransportSaturatedLinkCompressed \
		-baseline $(BENCH_BASELINE) -max-regress $(TRANSPORT_MAX_REGRESS)

# Allowed instances/sec regression of the WAN/soak service cases. These go
# through a live multi-goroutine daemon, so the bound matches the transport
# gate's coarseness.
WAN_MAX_REGRESS ?= 0.25

# bench-wan is the WAN throughput gate: the shaped submit→decide case and the
# steady-state soak-burst case must hold their instances/sec against the
# committed baseline (skipped silently against baselines that predate them).
bench-wan: build
	$(GO) run ./cmd/chcbench -benchjson /tmp/chc-bench-wan.json \
		-bench WANRegionalDecide,SoakSteadyState \
		-baseline $(BENCH_BASELINE) -max-regress $(WAN_MAX_REGRESS)

experiments:
	$(GO) run ./cmd/chcbench -quick
