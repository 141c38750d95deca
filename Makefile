GO ?= go

.PHONY: all build vet vet-bench test test-bench test-race fuzz-short bench-smoke metrics-smoke slo slo-smoke chaos-smoke ci bench fmt-check lint cover clean

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# vet-bench compiles and vets cmd/certbench, the benchmark's nested
# module, which the root ./... patterns never reach: an API change that
# breaks the benchmark fails here instead of when the benchmark runs.
# Its go.mod replaces repro with this checkout, so nothing is downloaded.
vet-bench:
	$(GO) -C cmd/certbench vet ./...

test:
	$(GO) test ./...

# test-bench runs the benchmark module's own tests, offline like
# vet-bench: a change that breaks a workload's verdicts or its metric
# tables fails here instead of when the benchmark runs. -short skips the
# service-mix workload, which boots a certserver.
test-bench:
	$(GO) -C cmd/certbench test -short ./...

# test-race re-runs the suite under the race detector with shuffled test
# order: the sharded simulator and the batch pipeline are the most
# concurrency-heavy code in the repo and must stay clean under both.
test-race:
	$(GO) test -race -shuffle=on ./...

# fuzz-short is the hostile-input gate on the decoders that read network
# bytes: formulas, wire-v2 graph streams (/certify), JSON graph bodies
# (every JSON endpoint), submitted certificate strings (/verify,
# /simulate) and the certificate decoders those certificates reach:
# tw-mso, treedepth (also under kernel-mso, pt-minor-free and every
# ct-minor-free block), ct-minor-free and the spanning-tree labels (also
# under core's existential-FO and depth-2 schemes). FuzzVerifyHostile
# plants hostile bits in an honest assignment of every registry scheme
# and runs a whole verification round, which also reaches the decoders
# with no target of their own: core's graph, existential-FO and depth-2
# certificates, the kernel-mso trailer and the tree-mso/tree-fo
# automata. FuzzValidate differentially checks the tree-decomposition
# validator the prover runs on every decomposition it uses against its
# reference. FuzzReader holds bitio's whole-field Reader, which every
# certificate decoder reads its fields through, to the per-bit reference
# reader on arbitrary bytes, and FuzzGuard holds the tw-mso guard's
# eight-bit steps to the per-bit FNV-1a reference on arbitrary bodies and
# owners. FuzzCliqueTable compiles arbitrary formula text and holds each
# compiled sentence's clique table, which the tw-mso verifier and the
# EMSO DP read instead of evaluating the matrix, to the reference AST
# walker on every clique of at most 3 points. FuzzSolveEMSO compiles
# arbitrary formula text, decodes a graph on at most 8 vertices and holds
# the EMSO DP's verdict and witness words to its reference solver. Every
# ci run hammers each for a few seconds on top of the committed
# regression corpora (which plain `go test` replays).
fuzz-short:
	$(GO) test -run=FuzzParse -fuzz=FuzzParse -fuzztime=5s ./internal/logic
	$(GO) test -run=FuzzDecodeGraphStream -fuzz=FuzzDecodeGraphStream -fuzztime=5s ./internal/wire
	$(GO) test -run=FuzzGraphJSON -fuzz=FuzzGraphJSON -fuzztime=5s ./internal/wire
	$(GO) test -run=FuzzAssignmentFromStrings -fuzz=FuzzAssignmentFromStrings -fuzztime=5s ./internal/wire
	$(GO) test -run=FuzzDecodePayload -fuzz=FuzzDecodePayload -fuzztime=5s ./internal/treewidth
	$(GO) test -run=FuzzDecodePayload -fuzz=FuzzDecodePayload -fuzztime=5s ./internal/treedepth
	$(GO) test -run=FuzzDecodeEntries -fuzz=FuzzDecodeEntries -fuzztime=5s ./internal/minor
	$(GO) test -run=FuzzDecodeLabel -fuzz=FuzzDecodeLabel -fuzztime=5s ./internal/spanning
	$(GO) test -run=FuzzVerifyHostile -fuzz=FuzzVerifyHostile -fuzztime=5s ./internal/registry
	$(GO) test -run=FuzzValidate -fuzz=FuzzValidate -fuzztime=5s ./internal/treewidth
	$(GO) test -run=FuzzReader -fuzz=FuzzReader -fuzztime=5s ./internal/bitio
	$(GO) test -run=FuzzGuard -fuzz=FuzzGuard -fuzztime=5s ./internal/treewidth
	$(GO) test -run=FuzzCliqueTable -fuzz=FuzzCliqueTable -fuzztime=5s ./internal/treewidth
	$(GO) test -run=FuzzSolveEMSO -fuzz=FuzzSolveEMSO -fuzztime=5s ./internal/treewidth

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

# ci is the tier-1 gate: everything must be gofmt-clean, build, vet clean
# (the benchmark module included), lint clean (certlint runs before the
# tests: an invariant violation should fail fast, not hide behind a long
# test run), and pass — including the benchmark module's tests, the
# suite under the race detector, a short decoder fuzz, a one-iteration
# benchmark smoke run, a live /metrics exposition check, a short
# sustained-load SLO smoke, a seeded fault-injection smoke, and the
# internal/lint coverage floor.
# Performance regressions are gated by cmd/certbench, which runs the
# parent commit and the change fresh, side by side.
ci: fmt-check build vet vet-bench lint test test-bench test-race fuzz-short bench-smoke metrics-smoke slo-smoke chaos-smoke cover

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

# bench runs the benchmarks of PKGS (default: every package), one
# package at a time (-p 1) so they do not skew each other; BENCH_LARGE=1
# in the environment ungates the n=10⁶ benchmarks. Regressions are
# judged by cmd/certbench, which runs the parent commit and the change
# fresh, side by side.
#
#   make bench PKGS=./internal/netsim
PKGS ?= ./...
bench:
	$(GO) test -p 1 -bench=. -benchmem -run=NONE -timeout=60m $(PKGS)

clean:
	$(GO) clean ./...
