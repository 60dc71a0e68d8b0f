GO ?= go

# staticcheck is version-pinned so `make lint` (and therefore `make
# check`) runs the exact binary CI runs — a lint disagreement between a
# laptop and a runner is always a version skew bug. `go run` fetches it
# on first use and caches it in the module cache.
STATICCHECK_VERSION ?= 2024.1.1

# The workload slice the bench gate measures: small enough for CI, wide
# enough to cover every cascade stage.
BENCH_ROWS    = sock,ctrace,autofs,raid,mt_daapd
BENCH_SCALE   = 0.12
BENCHTAB_ARGS = -rows $(BENCH_ROWS) -scale $(BENCH_SCALE) -cache-dir .benchcache

# The serve bench boots a chaos-enabled aliasd on a synthetic workload
# and drives it with aliasload (cold, warm, then chaos: 20% injected
# faults + a live reload mid-burst). -assert fails on any 5xx, counter
# drift, or a warm-phase shed.
SERVE_ADDR  = 127.0.0.1:7411
SERVE_BENCH = sock

# The shard bench distributes the eager solve across worker processes
# and gates on the coordinator's accounting: every cluster completed,
# results bit-identical to a single-process solve, the eager-phase
# speedup floor held, and work stealing never behind static binning.
SHARD_ROWS  = autofs
SHARD_SCALE = 0.5

.PHONY: all build test race vet fmt staticcheck lint check perfbench-test bench bench-baseline serve-bench shard-bench shard-baseline checker-bench checker-baseline incremental-bench incremental-baseline examples

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# lint is CI's lint job: formatting, vet and the pinned staticcheck.
lint: fmt vet staticcheck

# check is what CI's check job runs: lint, build, the full suite under
# the race detector, and the nested perfbench module's vet and tests
# (the build check for every program name the benchmark calls).
check: lint build race perfbench-test

# perfbench-test vets and tests the nested perfbench module, which has
# its own go.mod, so the root ./... patterns skip it. It is the build
# check for every program name the benchmark calls, and its TestGolden
# pins the seed-0 answers.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# bench smoke-runs every benchmark once (catching bit-rot without the
# cost of real measurement), measures the FSCS perf trajectory into
# BENCH_fresh.json, and gates it against the committed BENCH_fscs.json.
# benchtab runs twice against the same cache directory: the first run is
# cold (cache_hit_rate 0.0) and populates it, the second must start
# fully warm (cache_hit_rate 1.0) — the gate asserts exactly that on the
# second run's JSON, plus that no machine-independent speedup ratio fell
# more than 15% below the baseline's.
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -count=1 -benchmem ./...
	rm -rf .benchcache
	$(GO) run ./cmd/benchtab $(BENCHTAB_ARGS) -fscs-json BENCH_fresh.json
	$(GO) run ./cmd/benchtab $(BENCHTAB_ARGS) -fscs-json BENCH_fresh.json
	$(GO) run ./cmd/benchtab -assert -baseline BENCH_fscs.json -fresh BENCH_fresh.json

# bench-baseline re-measures and promotes the fresh report to the
# committed baseline — run it (and commit the result) when a PR changes
# the performance shape on purpose.
bench-baseline: bench
	mv BENCH_fresh.json BENCH_fscs.json

# shard-bench is CI's distributed-execution gate: a fresh 2-shard
# work-stealing run (real worker processes over the shared result
# cache) on one large workload, asserted for completion, bit-identity
# and the speedup/steal floors. Cheap enough for every push.
shard-bench:
	$(GO) run ./cmd/benchtab -rows $(SHARD_ROWS) -scale $(SHARD_SCALE) -shards 2 -assert

# shard-baseline re-measures the committed BENCH_shard.json: the full
# shards 1/2/4/8 × steal/greedy sweep over the four large workloads.
shard-baseline:
	$(GO) run ./cmd/benchtab -scale $(SHARD_SCALE) -shard-json BENCH_shard.json -assert

# checker-bench is CI's static-analysis gate: every lockheavy preset
# runs every registered pass cold then warm, and the fresh report is
# asserted for full seeded-bug recall, zero cold/warm findings drift, a
# fully-cached warm rerun, and per-rule findings counts equal to the
# committed BENCH_check.json.
checker-bench:
	$(GO) run ./cmd/benchtab -check -assert -baseline BENCH_check.json

# checker-baseline re-measures and commits the checker baseline — run
# it when a PR changes what the passes find on purpose.
checker-baseline:
	$(GO) run ./cmd/benchtab -check -check-json BENCH_check.json

# incremental-bench is CI's streaming-mode gate: a deterministic storm
# of single-statement edits per workload through core.ApplyEdit, with
# every edit timed edit-to-answer and every Nth edited program
# differentially checked against a from-scratch analysis. The fresh
# report is asserted for the p50 latency budget, the dirty-cluster
# reuse floor, zero fallbacks, identity, and workload-set equality with
# the committed BENCH_incremental.json.
incremental-bench:
	$(GO) run ./cmd/benchtab -incremental -scale $(BENCH_SCALE) -incr-json BENCH_incr_fresh.json -assert -baseline BENCH_incremental.json

# incremental-baseline re-measures and commits the incremental baseline
# — run it when a PR changes the edit path's shape on purpose.
incremental-baseline:
	$(GO) run ./cmd/benchtab -incremental -scale $(BENCH_SCALE) -incr-json BENCH_incremental.json

# examples builds and runs every examples/ binary — the consumer-facing
# API smoke test. Each example must exit 0.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done

# serve-bench measures (and refreshes) BENCH_serve.json: boot the
# daemon in the background, let aliasload wait for /readyz, run the
# three phases, then drain the daemon with SIGTERM. The daemon's exit
# status is checked too — a crash under chaos fails the target even if
# the driver's invariants all passed.
serve-bench:
	$(GO) build -o .bin/aliasd ./cmd/aliasd
	$(GO) build -o .bin/aliasload ./cmd/aliasload
	@./.bin/aliasd -addr $(SERVE_ADDR) -synth $(SERVE_BENCH) -synth-scale $(BENCH_SCALE) -chaos & \
	pid=$$!; status=0; \
	./.bin/aliasload -addr $(SERVE_ADDR) -phases cold,warm,chaos -assert -out BENCH_serve.json || status=$$?; \
	kill -TERM $$pid 2>/dev/null; \
	wait $$pid || status=$$?; \
	exit $$status
