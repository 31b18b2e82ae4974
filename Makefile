# Developer entry points; CI runs the same commands (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: build test race bench bench-diff bench-smoke fuzz-smoke scale-smoke loadtest-smoke streambench-check verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench writes the next numbered BENCH_<N>.json benchmark baseline (fixed
# iteration counts, min of 3 repetitions; format documented in the README).
# Committing the new file blesses the current performance as the baseline.
bench:
	$(GO) run ./cmd/bench

# bench-diff gates a fresh benchmark run against the latest committed
# baseline and fails on regressions. The ns/op tolerance is sized to noisy
# shared hardware (suite-median drift is normalized out first); allocs/op
# must match the baseline exactly. To bless an intentional regression, run
# `make bench` and commit the new BENCH_<N>.json it writes.
bench-diff:
	$(GO) run ./cmd/bench -diff latest -tolerance 50

# bench-smoke runs every benchmark once — the CI guard that benchmarks
# still compile and complete, without timing anything meaningful.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# fuzz-smoke briefly cross-checks the differential fast-vs-reference pairs:
# the desim leap engine against the unit-stepping reference loop, and the
# incremental Algorithm 1 partitioner against its executable specification.
fuzz-smoke:
	$(GO) test ./internal/desim -run '^$$' -fuzz FuzzDesimLeapVsReference -fuzztime 20s
	$(GO) test ./internal/schedule -run '^$$' -fuzz FuzzAlgorithm1FastVsReference -fuzztime 20s

# scale-smoke drives the 10^5-task pipeline (partition, schedule, leap-engine
# desim) and the ~10^6-task deep-MLP partition+schedule under generous
# wall-clock budgets; plain `go test ./...` skips it (SCALE_SMOKE gate).
scale-smoke:
	SCALE_SMOKE=1 $(GO) test -run TestScaleSmokePipeline -v -timeout 15m .

# loadtest-smoke drives a short fixed-seed open-loop load test against an
# in-process scheduling service and fails on any error or dropped accepted
# job (docs/SERVICE.md gives the recipe of the committed LOAD_<N>.json
# artifact).
loadtest-smoke:
	$(GO) run ./cmd/streamsched -loadtest -rate 50 -requests 100 -seed 7 -workload synth:fft -pes 8

# streambench-check vets and tests the end-to-end benchmark, a module of
# its own that `go build ./...` and `go test ./...` do not reach; it
# imports the service client and the sweep agent, so a break there must
# fail here.
streambench-check:
	cd cmd/streambench && $(GO) vet ./... && $(GO) test ./...

verify: build test bench-smoke streambench-check
