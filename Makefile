GO ?= go

.PHONY: all build vet test test-race fuzz-short bench-smoke metrics-smoke slo slo-smoke chaos-smoke ci bench bench-engine bench-netsim bench-treewidth bench-logic bench-obs bench-large bench-gate bench-json bench-compare fmt-check lint cover clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# test-race re-runs the suite under the race detector with shuffled test
# order: the sharded simulator and the batch pipeline are the most
# concurrency-heavy code in the repo and must stay clean under both.
test-race:
	$(GO) test -race -shuffle=on ./...

# fuzz-short is the hostile-input gate on the decoders that read network
# bytes: formulas, wire-v2 graph streams (/certify) and submitted
# certificate strings (/verify, /simulate). Every ci run hammers each for a
# few seconds on top of the committed regression corpora (which plain
# `go test` replays).
fuzz-short:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=5s ./internal/logic
	$(GO) test -run=FuzzDecodeGraphStream -fuzz=FuzzDecodeGraphStream -fuzztime=5s ./internal/wire
	$(GO) test -run=FuzzAssignmentFromStrings -fuzz=FuzzAssignmentFromStrings -fuzztime=5s ./internal/wire

# bench-smoke compiles and runs every benchmark exactly once: benchmarks
# are the perf PRs' acceptance instruments, so they must not bit-rot
# between those PRs. One iteration keeps ci fast while still executing
# every benchmark body.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# metrics-smoke is the observability gate: boot a real certserver on a
# loopback port, drive one request, scrape /metrics and validate every
# exposition line through cmd/promcheck (which shares the parser with the
# unit tests). The -series pins assert the admission-control and
# queue-depth series are exported from boot — shedding visibility must
# not depend on a shed having happened. The server is always killed,
# even when the check fails.
metrics-smoke:
	@$(GO) build -o /tmp/certserver-smoke ./cmd/certserver
	@/tmp/certserver-smoke -addr 127.0.0.1:18080 -quiet & \
	pid=$$!; \
	$(GO) run ./cmd/promcheck \
		-url http://127.0.0.1:18080/metrics \
		-probe http://127.0.0.1:18080/healthz \
		-series 'http_requests_shed_total{path="/certify"}' \
		-series 'http_inflight_requests{path="/certify"}' \
		-series 'http_requests_shed_total{path="/batch"}' \
		-series engine_queue_depth; \
	rc=$$?; \
	kill $$pid 2>/dev/null; \
	rm -f /tmp/certserver-smoke; \
	exit $$rc

# slo runs the full sustained-load measurement against a locally booted
# certserver and writes the committed SLO trajectory point. Rerun it on
# PRs that may move service latency, then gate with:
#   go run ./cmd/slojson -compare SLO_PR8.json SLO_PR<n>.json
SLO_OUT ?= SLO_PR8.json
slo:
	@$(GO) build -o /tmp/certserver-slo ./cmd/certserver
	@/tmp/certserver-slo -addr 127.0.0.1:18081 -quiet & \
	pid=$$!; \
	$(GO) run ./cmd/certload \
		-url http://127.0.0.1:18081 \
		-rate 120 -warmup 3s -duration 15s -arrival poisson -seed 8 \
		-o $(SLO_OUT); \
	rc=$$?; \
	kill -INT $$pid 2>/dev/null; \
	rm -f /tmp/certserver-slo; \
	[ $$rc -eq 0 ] && echo "wrote $(SLO_OUT)"; \
	exit $$rc

# slo-smoke is the seconds-long ci variant: a short certload run against
# a throwaway server, then slojson validates the report and self-compares
# it (which must pass — the gate's zero point). Keeps the whole harness —
# generator, report schema, scrape delta, gate — from bit-rotting between
# SLO PRs.
slo-smoke:
	@$(GO) build -o /tmp/certserver-slosmoke ./cmd/certserver
	@/tmp/certserver-slosmoke -addr 127.0.0.1:18082 -quiet & \
	pid=$$!; \
	$(GO) run ./cmd/certload \
		-url http://127.0.0.1:18082 \
		-rate 40 -warmup 1s -duration 3s -seed 8 \
		-o /tmp/slo-smoke.json \
	&& $(GO) run ./cmd/slojson /tmp/slo-smoke.json \
	&& $(GO) run ./cmd/slojson -compare /tmp/slo-smoke.json /tmp/slo-smoke.json; \
	rc=$$?; \
	kill -INT $$pid 2>/dev/null; \
	rm -f /tmp/certserver-slosmoke /tmp/slo-smoke.json; \
	exit $$rc

# chaos-smoke boots a server with a seeded fault plan armed (errors,
# panics and delays across the engine fault points) and drives the
# standard mix through certload -chaos for a few seconds: the server must
# survive, and every error response must carry the JSON envelope.
chaos-smoke:
	@$(GO) build -o /tmp/certserver-chaossmoke ./cmd/certserver
	@/tmp/certserver-chaossmoke -addr 127.0.0.1:18083 -quiet \
		-fault-plan 'seed=42;engine.prove.pre:error@0.3;engine.compile.build:panic@0.1;engine.decomp.compute:delay=5ms@0.5' & \
	pid=$$!; \
	$(GO) run ./cmd/certload \
		-url http://127.0.0.1:18083 \
		-rate 40 -warmup 500ms -duration 3s -seed 9 -chaos; \
	rc=$$?; \
	kill -INT $$pid 2>/dev/null; \
	rm -f /tmp/certserver-chaossmoke; \
	exit $$rc

# ci is the tier-1 gate: everything must be gofmt-clean, build, vet clean,
# lint clean (certlint runs before the tests: an invariant violation should
# fail fast, not hide behind a long test run), and pass — including under
# the race detector, a short parser fuzz, a one-iteration benchmark smoke
# run, the committed benchmark-snapshot gate, a live /metrics exposition
# check, a short sustained-load SLO smoke, a seeded fault-injection
# smoke, and the internal/lint coverage floor.
ci: fmt-check build vet lint test test-race fuzz-short bench-smoke bench-gate metrics-smoke slo-smoke chaos-smoke cover

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# lint runs the project-invariant analyzers (internal/lint) over every
# module package. Exit 1 on any finding; suppressions need a written
# reason (`//certlint:ignore <reason>`).
lint:
	$(GO) run ./cmd/certlint ./...

# cover holds internal/lint to the standard it enforces on everything
# else: the analyzers' own statement coverage must stay at or above the
# threshold, so an analyzer branch nobody tests cannot silently rot.
LINT_COVER_FLOOR ?= 90.0
cover:
	@$(GO) test -coverprofile=lint-cover.tmp ./internal/lint > /dev/null
	@total=$$($(GO) tool cover -func=lint-cover.tmp | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f lint-cover.tmp; \
	echo "internal/lint coverage: $$total% (floor $(LINT_COVER_FLOOR)%)"; \
	awk "BEGIN { exit !($$total >= $(LINT_COVER_FLOOR)) }" || \
		{ echo "coverage below floor"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem -run=NONE ./...

# bench-engine runs only the certification-engine benchmarks: cached vs
# uncached compilation and batch pipeline throughput at 1/4/8 workers.
bench-engine:
	$(GO) test -bench=. -benchmem -run=NONE ./internal/engine

# bench-netsim compares the sharded round engine against the legacy
# goroutine-per-vertex simulator (allocations, wall time, n up to 1e5).
bench-netsim:
	$(GO) test -bench=. -benchmem -run=NONE ./internal/netsim

# bench-treewidth measures the decomposition heuristics, the exact solver,
# and the tw-mso prove/verify round trip.
bench-treewidth:
	$(GO) test -bench=. -benchmem -run=NONE ./internal/treewidth

# bench-logic measures the formula pipeline: parse, canonicalize,
# compile-from-formula cached vs uncached, the EMSO clique-locality
# compiler and the generalized Courcelle DP (the E13 timing set).
bench-logic:
	$(GO) test -bench=. -benchmem -run=NONE ./internal/logic
	$(GO) test -bench='CompileFromFormula|FormulaKey' -benchmem -run=NONE ./internal/engine
	$(GO) test -bench='EMSO' -benchmem -run=NONE ./internal/treewidth

# bench-obs runs this PR's benchmark set — the PR5 packages plus the
# observability primitives and the instrumented-vs-bare pipeline pair —
# and emits BENCH_PR6.json, then gates it against the committed
# BENCH_PR5.json snapshot (>25% ns/op regression on any shared benchmark
# fails), so the metrics layer proves it did not tax the hot paths.
bench-obs:
	$(GO) test -bench=. -benchmem -run=NONE \
		./internal/logic ./internal/engine ./internal/treewidth ./internal/obs > bench-raw.tmp
	$(GO) run ./cmd/benchjson < bench-raw.tmp > BENCH_PR6.json
	@rm -f bench-raw.tmp
	@echo wrote BENCH_PR6.json
	$(GO) run ./cmd/benchjson -compare BENCH_PR5.json BENCH_PR6.json

# bench-large is the million-vertex acceptance instrument: the shared
# benchmark set (the BENCH_PR6 packages) plus the large-n raw-speed
# benchmarks — O(n+m) generators, stream encode/decode, parallel sparse
# decomposition and the tw-mso prove+verify round trip at n=1e5 and
# (ungated by BENCH_LARGE=1) n=1e6 — emitting BENCH_PR9.json, then the
# regression gate against the committed BENCH_PR6.json snapshot.
bench-large:
	BENCH_LARGE=1 $(GO) test -p 1 -bench=. -benchmem -run=NONE \
		-benchtime=3s -timeout=60m \
		./internal/logic ./internal/engine ./internal/treewidth ./internal/obs \
		./internal/wire ./internal/graphgen > bench-raw.tmp
	$(GO) run ./cmd/benchjson < bench-raw.tmp > BENCH_PR9.json
	@rm -f bench-raw.tmp
	@echo wrote BENCH_PR9.json
	$(GO) run ./cmd/benchjson -compare BENCH_PR6.json BENCH_PR9.json

# bench-gate re-checks the committed snapshots without re-running the
# benchmarks (seconds, so ci affords it on every run): any shared
# benchmark that regressed >25% ns/op between the PR6 and PR9 artifacts
# fails. Rerun `make bench-large` to refresh BENCH_PR9.json on perf PRs.
bench-gate:
	$(GO) run ./cmd/benchjson -compare BENCH_PR6.json BENCH_PR9.json

# bench-json runs the logic, engine and treewidth benchmarks and emits
# machine-readable BENCH_PR5.json, so the perf trajectory accumulates as
# data across PRs (BENCH_PR3/4.json stay committed as history). The raw
# output goes through a temp file (not a pipe) so a benchmark failure
# fails the target instead of being swallowed.
bench-json:
	$(GO) test -bench=. -benchmem -run=NONE \
		./internal/logic ./internal/engine ./internal/treewidth > bench-raw.tmp
	$(GO) run ./cmd/benchjson < bench-raw.tmp > BENCH_PR5.json
	@rm -f bench-raw.tmp
	@echo wrote BENCH_PR5.json

# bench-compare is the regression gate between committed snapshots: a
# per-benchmark delta table, non-zero exit when any shared benchmark's
# ns/op regressed by more than 25%. Run it after bench-json to prove a
# perf PR did not pay for one hot path with another.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_PR4.json BENCH_PR5.json

clean:
	$(GO) clean ./...
	rm -f bench-raw.tmp
