GO ?= go

# staticcheck is version-pinned so `make lint` (and therefore `make
# check`) runs the exact binary CI runs — a lint disagreement between a
# laptop and a runner is always a version skew bug. `go run` fetches it
# on first use and caches it in the module cache.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race vet fmt staticcheck lint check perfbench-test bench examples

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

# bench smoke-runs every benchmark once, catching bit-rot without the
# cost of real measurement. Latency is the perfbench module's job
# (BENCHMARK.json: cold, warm and edit).
bench:
	$(GO) test -run '^$$' -bench . -benchtime=1x -count=1 -benchmem ./...

# examples builds and runs every examples/ binary — the consumer-facing
# API smoke test. Each example must exit 0.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d || exit 1; \
	done
