# Build / verification entry points. `make verify` is the CI gate:
# gofmt, vet, build, and the full test suite under the race detector
# (the parallel experiment runner executes 8-wide inside it).

GO ?= go

.PHONY: build vet test race verify bench bench-smoke bench-runner

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detect the parallel runner and its CLI quickly.
race:
	$(GO) test -race ./internal/runner/... ./cmd/octl/...

verify:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l flags:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./... && $(GO) build ./... && $(GO) test -race ./...

# Full benchmark sweep (kernel, queueing hot path, fleet control loop,
# serving path, snapshot publication, and every figure / table
# regeneration) with allocation stats, parsed into BENCH_10.json
# (benchmark -> ns/op, allocs/op, B/op, custom metrics) with the
# checked-in pre-change baseline embedded alongside. Micro-benchmarks
# get pinned iteration counts: at -benchtime=1x a sub-100ns kernel
# primitive reads clock jitter, not cost, and the baseline deltas were
# meaningless. Harness benchmarks run one full experiment per op, so 1x
# is already the right unit for them (BenchmarkOcdbench runs a 1s
# closed-loop load test per op and reports p50/p99/p999 as custom
# metrics). The serving endpoint benchmarks pin 2000 iterations
# (µs-scale ops); the mixed read-while-stepping A/B pins 20000 (the
# per-read cost is ~µs and the stepper cycle is ms-scale, so short runs
# read scheduler noise); the publish benchmarks pin 100 (each op
# rebuilds dirty snapshot chunks, and the FullCopy arms pay a full
# 100k-server materialization per op). BenchmarkDigestQuantile pins 20
# (one P95 selection over a refilled 1Mi-sample digest, ms-scale).
# Takes ~10 minutes: BenchmarkRunnerAll replays the evaluation 4 times.
bench:
	( $(GO) test -bench=BenchmarkKernel -benchtime=200000x -benchmem -run='^$$' ./internal/sim/ && \
	  $(GO) test -bench=BenchmarkOversubscribed -benchtime=20x -benchmem -run='^$$' ./internal/queueing/ && \
	  $(GO) test -bench=. -benchtime=1000000x -benchmem -run='^$$' ./internal/telemetry/ && \
	  $(GO) test -bench='BenchmarkServing(Filter|Prioritize|Status|Metrics)$$' -benchtime=2000x -benchmem -run='^$$' ./internal/ocd/ && \
	  $(GO) test -bench=BenchmarkServingMixedReadWhileStepping -benchtime=20000x -benchmem -run='^$$' ./internal/ocd/ && \
	  $(GO) test -bench='BenchmarkPublish(Place|Step)(FullCopy)?$$' -benchtime=100x -benchmem -run='^$$' ./internal/ocd/ && \
	  $(GO) test -bench=BenchmarkDigestQuantile -benchtime=20x -benchmem -run='^$$' ./internal/stats/ && \
	  $(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' \
	    $$($(GO) list ./... | grep -v -e internal/sim -e internal/queueing -e internal/telemetry -e internal/ocd -e internal/stats) ) \
		| $(GO) run ./cmd/benchjson -baseline bench_baseline.json -out BENCH_10.json
	@cat BENCH_10.json

# CI bench smoke: one iteration of the kernel (both queue backends),
# oversubscription, digest P95 selection, a GB-scale harness (TableXI),
# fleet-simulation, sharded-hyperscale, mixed read-while-stepping
# serving and snapshot publication (COW + full-copy arms) hot-path
# benchmarks, piped through benchjson so benchmark and tooling rot
# fail fast.
bench-smoke:
	$(GO) test -bench='BenchmarkKernel|BenchmarkOversubscribed|BenchmarkDigestQuantile|BenchmarkTableXI$$|BenchmarkFleetSim$$|BenchmarkFleetHyperScale|BenchmarkServingMixedReadWhileStepping|BenchmarkPublishPlace' \
		-benchtime=1x -benchmem -run='^$$' \
		./internal/sim/ ./internal/queueing/ ./internal/stats/ ./internal/ocd/ . | $(GO) run ./cmd/benchjson

# Serial-vs-parallel wall clock of the full evaluation.
bench-runner:
	$(GO) test -bench=BenchmarkRunnerAll -benchtime=1x
