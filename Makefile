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

# Package micro-benchmarks with allocation stats, printed raw, then
# the repo benchmark: bench/run.sh runs its four workloads, each in a
# fresh process, and appends one JSON record per workload to
# .bench_build/bench.jsonl (gated metrics and bounds: BENCHMARK.json,
# bench/README.md). Micro-benchmarks get pinned iteration counts: at
# -benchtime=1x a sub-100ns kernel primitive reads clock jitter, not
# cost. The serving endpoint benchmarks pin 2000 iterations (µs-scale
# ops); the mixed read-while-stepping A/B pins 20000 (the per-read
# cost is ~µs and the stepper cycle is ms-scale, so short runs read
# scheduler noise); the publish benchmarks pin 100 (each op rebuilds
# dirty snapshot chunks, and the FullCopy arms pay a full
# 100k-server materialization per op). BenchmarkDigestQuantile pins 20
# (one P95 selection over a refilled 1Mi-sample digest, ms-scale).
# The harness benchmarks in bench_test.go are not part of this target:
# run them with go test -bench (BenchmarkExperiment/<name> times one
# experiment) or make bench-runner.
bench:
	$(GO) test -bench=BenchmarkKernel -benchtime=200000x -benchmem -run='^$$' ./internal/sim/
	$(GO) test -bench=BenchmarkOversubscribed -benchtime=20x -benchmem -run='^$$' ./internal/queueing/
	$(GO) test -bench=. -benchtime=1000000x -benchmem -run='^$$' ./internal/telemetry/
	$(GO) test -bench='BenchmarkServing(Filter|Prioritize|Status|Metrics)$$' -benchtime=2000x -benchmem -run='^$$' ./internal/ocd/
	$(GO) test -bench=BenchmarkServingMixedReadWhileStepping -benchtime=20000x -benchmem -run='^$$' ./internal/ocd/
	$(GO) test -bench='BenchmarkPublish(Place|Step)(FullCopy)?$$' -benchtime=100x -benchmem -run='^$$' ./internal/ocd/
	$(GO) test -bench=BenchmarkDigestQuantile -benchtime=20x -benchmem -run='^$$' ./internal/stats/
	bash bench/run.sh --record .bench_build/bench.jsonl

# CI bench smoke: one iteration of the kernel (both queue backends),
# oversubscription, digest P95 selection, a GB-scale harness (Table XI
# through its registry Run), fleet-simulation, sharded-hyperscale,
# mixed read-while-stepping serving and snapshot publication (COW +
# full-copy arms) hot-path benchmarks, printed raw so a failing or
# rotted benchmark fails the target through go test's exit status.
bench-smoke:
	$(GO) test -bench='BenchmarkKernel|BenchmarkOversubscribed|BenchmarkDigestQuantile|BenchmarkExperiment/^table11$$|BenchmarkFleetSim$$|BenchmarkFleetHyperScale|BenchmarkServingMixedReadWhileStepping|BenchmarkPublishPlace' \
		-benchtime=1x -benchmem -run='^$$' \
		./internal/sim/ ./internal/queueing/ ./internal/stats/ ./internal/ocd/ .

# Serial-vs-parallel wall clock of the full evaluation.
bench-runner:
	$(GO) test -bench=BenchmarkRunnerAll -benchtime=1x
