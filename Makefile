GO ?= go

.PHONY: build test check loc race soak soak-smoke disk-torture wire-torture fuzz-smoke serve-smoke bench bench-pairs experiments

# The -run regexes the disk-torture, wire-torture and serve-smoke gates pick
# tests by, and (GATE_RUNS, regex@package,...) the packages each one targets,
# which check holds them against.
DISK_RUN     := Durab|FailStop|Degrad|WALReplay|LostTail|OutputCommit|StatsMonotone
LOSTTAIL_RUN := LostTail
LINK_RUN     := Bound|Inflight|Reorder
WIRE_RUN     := NetFault|Wire|Quarantine|Handshake|Coalesce
SERVE_RUN    := Resident
GATE_RUNS    := '$(DISK_RUN)@./internal/runtime/' '$(LOSTTAIL_RUN)@./internal/rlink/,./internal/engine/' \
	'$(LINK_RUN)@./internal/rlink/' '$(WIRE_RUN)@./internal/runtime/' \
	'$(SERVE_RUN)@./internal/engine/'

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the tier-1 gate plus static analysis and the race detector over
# the concurrency-heavy packages (networked runtime, reliable links, chaos
# injection, simulator, wire codec, telemetry registry), the packages the
# simulator's per-message path runs through (stable vector, WAN scheduler),
# the geometry packages (hull, lp, polytope), whose pooled scratch (the depth
# halfspaces' cofactor buffers, LP workspaces) and lazily memoized facets
# are shared by concurrently running processes, and the CC processes (core,
# vector consensus), whose state vertex lists are shared, not copied, with
# every receiver. It first fails on any tracked Go file gofmt would rewrite,
# on any non-test Go file outside the benchmark harness that imports
# "testing" (benchmarks and their helpers live in _test.go files), and on
# any non-test Go file outside the benchmark harness and internal/lp itself
# that imports internal/lp (the library solves no linear program; the LP is
# a test oracle and a benchmark metric). It also fails when a -run regex of
# the disk-torture, wire-torture or serve-smoke gate, or one of its
# alternatives, selects no test in the packages it targets (go test -list),
# so a renamed test cannot silently drop out of a gate.
check: build
	@files=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi
	@files=$$(git grep -l '"testing"' -- '*.go' ':!*_test.go' ':!benchmark/'); \
	if [ -n "$$files" ]; then echo "non-test files import \"testing\":"; echo "$$files"; exit 1; fi
	@files=$$(git grep -l '"chc/internal/lp"' -- '*.go' ':!*_test.go' ':!benchmark/' ':!internal/lp/'); \
	if [ -n "$$files" ]; then echo "non-test files outside benchmark/ import chc/internal/lp:"; echo "$$files"; exit 1; fi
	$(GO) vet ./...
	@for gate in $(GATE_RUNS); do \
		re=$${gate%%@*}; pkgs=$$(echo $${gate#*@} | tr , ' '); all=; \
		for pkg in $$pkgs; do \
			tests=$$($(GO) test -list . $$pkg | grep -E '^(Test|Example|Fuzz)') || exit 1; \
			echo "$$tests" | grep -qE "$$re" || { echo "-run '$$re' selects no test in $$pkg"; exit 1; }; \
			all="$$all $$tests"; \
		done; \
		for alt in $$(echo "$$re" | tr '|' ' '); do \
			echo "$$all" | grep -qE "$$alt" || { echo "-run '$$re': '$$alt' selects no test in $$pkgs"; exit 1; }; \
		done; \
	done
	$(GO) test ./...
	$(GO) test -race ./internal/runtime/... ./internal/rlink/... ./internal/chaos/... ./internal/dist/... ./internal/wire/... ./internal/wal/... ./internal/engine/... ./internal/multiplex/... ./internal/telemetry/... ./internal/stablevector/... ./internal/wan/... ./internal/hull/... ./internal/lp/... ./internal/polytope/... \
		./internal/core/... ./internal/vectorconsensus/...

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
	$(GO) test -race -timeout 10m -run '$(DISK_RUN)' ./internal/runtime/
	$(GO) test -race -timeout 10m -run '$(LOSTTAIL_RUN)' ./internal/rlink/ ./internal/engine/

# wire-torture is the adversarial-wire gate: the deterministic byte-stream
# fault injector, the hardened frame codec (CRC, caps, resync), the bounded
# reliable-link buffers, and the live-TCP netfault matrix (corruption,
# quarantine/readmit, handshake-under-corruption), all under the race
# detector.
wire-torture: build
	$(GO) test -race -timeout 10m ./internal/netfault/ ./internal/wire/
	$(GO) test -race -timeout 10m -run '$(LINK_RUN)' ./internal/rlink/
	$(GO) test -race -timeout 10m -run '$(WIRE_RUN)' ./internal/runtime/

# fuzz-smoke runs each codec fuzzer and the round-0 depth-region fuzzer
# (d = 2 and d = 3 views held to the exact subset-hull oracle) briefly —
# long enough to shake out shallow decoder and geometry regressions on every
# commit; deep fuzzing stays offline.
FUZZ_TIME ?= 30s
fuzz-smoke: build
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzStreamDecoder -fuzztime $(FUZZ_TIME) ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDepthRegion -fuzztime $(FUZZ_TIME) ./internal/polytope/

# serve-smoke is the resident-service gate: the resident engine (dynamic
# instance lifecycle over a live cluster, including the WAL-relaunch-mid-
# stream scenario), the service daemon (heterogeneous instance streams,
# admission control, retention eviction, HTTP API, auth) and the chcd smoke
# test (submit over HTTP, SIGTERM, graceful drain), all under the race
# detector.
serve-smoke: build
	$(GO) test -race -timeout 10m -run '$(SERVE_RUN)' ./internal/engine/
	$(GO) test -race -timeout 10m ./internal/service/ ./cmd/chcd/

# bench runs one iteration of every Benchmark* in the module, so the
# benchmarks keep compiling and running; numbers come from benchmark/.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# bench-pairs runs PAIRS alternating BASE/change pairs of each workload in
# WORKLOADS (default: every workload of BENCHMARK.json), BASE being a git
# revision and the change this checkout, and prints per end-to-end metric
# both medians, the base's IQR and the change's win count
# (scripts/bench-pairs.sh; needs jq).
BASE      ?= HEAD
PAIRS     ?= 10
WORKLOADS ?=
bench-pairs:
	bash scripts/bench-pairs.sh '$(BASE)' '$(WORKLOADS)' '$(PAIRS)'

experiments:
	$(GO) run ./cmd/chcbench -quick
