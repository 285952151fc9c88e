// Package runner executes registered experiments concurrently, one
// sweep.Map cell per experiment. It is the substrate every evaluation
// entry point fans out through: octl drives it for the CLI and the
// benchmarks measure it.
//
// The engine provides, per run:
//
//   - bounded parallelism (Config.Workers, default GOMAXPROCS),
//   - context cancellation (a cancelled context marks the remaining
//     experiments as failed with the context error and returns
//     promptly; running experiments honor cancellation at their
//     internal simulation boundaries — the kernel's event batches and
//     the fleet simulation's control steps — so a cancelled or
//     timed-out simulation stops mid-run instead of completing),
//   - per-experiment timeouts (Config.Timeout),
//   - panic isolation (a panicking experiment reports an error with
//     its stack instead of killing the run), and
//   - per-experiment observability: wall time, result row count and
//     pass/fail, aggregated into a Report with
//     latency percentiles and a telemetry snapshot (Config.Metrics)
//     carrying each experiment's engine metrics under a scope named
//     after it.
//
// Outcomes are reported in submission order regardless of completion
// order, so a parallel run is byte-for-byte comparable with a serial
// one.
//
// Worker slots are tokens in a budget shared with internal/sweep
// (sweep.Shared unless Config.Budget overrides it): each experiment
// runs holding a token — with one worker too, as Map's serial path
// holds one of an explicitly passed budget — and an experiment that
// fans its own grid out through sweep.Map lends that token to its
// cells while it blocks on them. The requested worker count therefore
// bounds total live parallelism — experiments plus sweep cells — and
// the resolved count is threaded into experiments.Options.Workers so
// `octl -j` reaches inside each experiment's grid loops.
package runner

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"immersionoc/internal/experiments"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
)

// Config tunes one Run call. The zero value runs with GOMAXPROCS
// workers and no per-experiment timeout.
type Config struct {
	// Workers bounds the number of experiments executing at once.
	// Non-positive means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout, when positive, bounds each experiment; its context is
	// cancelled at the deadline. Experiments honor cancellation at
	// their internal simulation boundaries.
	Timeout time.Duration
	// Options is passed to every experiment. The zero value reproduces
	// the published tables.
	Options experiments.Options
	// OnDone, when non-nil, is called as each experiment finishes with
	// its submission index and outcome, and once for each experiment
	// skipped by cancellation. It may be called from multiple worker
	// goroutines concurrently; the callback must be safe for that. Run
	// re-raises a panic in OnDone.
	OnDone func(i int, o Outcome)
	// Metrics selects the telemetry registry for the run. Nil (the
	// zero value) gives the run a fresh registry so concurrent Run
	// calls do not mix; pass telemetry.Off to disable collection.
	// Each experiment's harness metrics land under a scope named
	// after the experiment; the runner's own counters land under
	// "runner".
	Metrics *telemetry.Registry
	// Budget is the worker-token pool shared between the runner and
	// the intra-experiment sweeps. Nil uses sweep.Shared, the
	// process-wide budget. Each experiment runs holding a token and
	// lends it to its sweep cells while blocked on them, so
	// experiments × cells never exceed the budget's capacity. The
	// budget is grown to the requested worker count, never shrunk, so
	// the runner's own parallelism is never throttled below Workers.
	Budget *sweep.Budget
}

// Outcome is the observed result of one submitted experiment.
type Outcome struct {
	// Name is the experiment name.
	Name string
	// Result holds the artifact when Err is nil.
	Result experiments.Result
	// Err is the experiment error, the recovered panic, the
	// experiment's timeout, or the run's cancellation error.
	Err error
	// Wall is the wall-clock time spent on the experiment. Zero for
	// experiments skipped by cancellation.
	Wall time.Duration
	// Rows is the structured row count of the result (0 for plots and
	// failures).
	Rows int
	// Panicked reports whether the experiment ended in a recovered
	// panic.
	Panicked bool
}

// OK reports whether the experiment produced its artifact.
func (o Outcome) OK() bool { return o.Err == nil }

// Report aggregates one Run call.
type Report struct {
	// Outcomes holds one entry per submitted experiment, in submission
	// order.
	Outcomes []Outcome
	// Wall is the wall-clock duration of the whole run.
	Wall time.Duration
	// Workers is the resolved worker count the run used.
	Workers int
	// Telemetry is the run's metrics snapshot: one scope per
	// experiment (engine counters, latency histograms, power/thermal
	// gauges) plus the runner's own "runner" scope. Nil when the run
	// used telemetry.Off.
	Telemetry *telemetry.Snapshot

	// sortedWalls caches the sorted per-experiment wall times for
	// Percentile; computed once on first use.
	sortOnce    sync.Once
	sortedWalls []time.Duration
}

// Failed returns the outcomes that did not produce an artifact.
func (r *Report) Failed() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if !o.OK() {
			out = append(out, o)
		}
	}
	return out
}

// TotalExperimentTime is the summed per-experiment wall time — the
// serial cost the worker pool amortized.
func (r *Report) TotalExperimentTime() time.Duration {
	var sum time.Duration
	for _, o := range r.Outcomes {
		sum += o.Wall
	}
	return sum
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1, nearest-rank) of the
// per-experiment wall times, or 0 for an empty run. The sorted wall
// times are computed once on first call and cached — Summary alone
// asks for two percentiles — so call it only after the run's outcomes
// are final.
func (r *Report) Percentile(p float64) time.Duration {
	if len(r.Outcomes) == 0 {
		return 0
	}
	r.sortOnce.Do(func() {
		walls := make([]time.Duration, len(r.Outcomes))
		for i, o := range r.Outcomes {
			walls[i] = o.Wall
		}
		sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
		r.sortedWalls = walls
	})
	walls := r.sortedWalls
	idx := int(math.Ceil(p*float64(len(walls)))) - 1
	if idx >= len(walls) {
		idx = len(walls) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return walls[idx]
}

// Slowest returns the longest-running outcome, or a zero Outcome for
// an empty run.
func (r *Report) Slowest() Outcome {
	var max Outcome
	for i, o := range r.Outcomes {
		if i == 0 || o.Wall > max.Wall {
			max = o
		}
	}
	return max
}

// Summary renders the one-line run footer octl prints.
func (r *Report) Summary() string {
	ok := 0
	for _, o := range r.Outcomes {
		if o.OK() {
			ok++
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d experiments in %s (%d workers): %d ok, %d failed",
		len(r.Outcomes), round(r.Wall), r.Workers, ok, len(r.Outcomes)-ok)
	if len(r.Outcomes) > 0 {
		slow := r.Slowest()
		fmt.Fprintf(&b, "; exp wall p50=%s p95=%s max=%s (%s); serial cost %s",
			round(r.Percentile(0.50)), round(r.Percentile(0.95)),
			round(slow.Wall), slow.Name, round(r.TotalExperimentTime()))
	}
	return b.String()
}

// round trims a duration for display.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	}
	return d
}

// Run executes the experiments, one sweep.Map cell each, and returns
// when every submitted experiment has either finished or been skipped
// by cancellation. Outcomes appear in submission order. Run never
// panics because of an experiment; it is safe to call concurrently
// with itself.
func Run(ctx context.Context, exps []experiments.Experiment, cfg Config) *Report {
	requested := cfg.Workers
	if requested <= 0 {
		requested = runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		requested = 1
	}
	// The pool never needs more workers than experiments, but the
	// requested width still reaches inside each experiment: a lone
	// `octl fig12 -j 8` runs one experiment whose sweep fans its grid
	// out 8-wide.
	workers := requested
	if workers > len(exps) {
		workers = len(exps)
	}
	if workers < 1 {
		workers = 1
	}
	budget := cfg.Budget
	if budget == nil {
		budget = sweep.Shared
	}
	budget.Grow(requested)
	if cfg.Options.Workers == 0 {
		cfg.Options.Workers = requested
	}
	report := &Report{Outcomes: make([]Outcome, len(exps)), Workers: workers}
	start := time.Now()

	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	rm := runMetrics{
		attempts: reg.Scope("runner").Counter("attempts"),
		panics:   reg.Scope("runner").Counter("panics"),
		failures: reg.Scope("runner").Counter("failures"),
		skipped:  reg.Scope("runner").Counter("skipped"),
		wall:     reg.Scope("runner").Histogram("wall_s", telemetry.WallBuckets),
	}

	// Each cell runs holding a token of budget, which its context
	// carries so a sweep inside can lend the slot to its own cells. A
	// cell never fails, so a failing experiment does not cancel its
	// siblings; only ctx can stop the run, and Map then leaves the
	// cells it did not start nil.
	ran, err := sweep.Map(ctx, len(exps), sweep.Options{Workers: workers, Budget: budget},
		func(ctx context.Context, i int) (*Outcome, error) {
			o := runOne(ctx, exps[i], cfg, reg, rm)
			if cfg.OnDone != nil {
				cfg.OnDone(i, o)
			}
			return &o, nil
		})
	if err != nil && ctx.Err() == nil {
		// runOne recovers experiment panics, so this is a panic in
		// OnDone, which Map recovered: re-raise it.
		panic(err)
	}
	for i, o := range ran {
		if o == nil {
			o = &Outcome{Name: exps[i].Name, Err: ctx.Err()}
			rm.skipped.Inc()
			if cfg.OnDone != nil {
				cfg.OnDone(i, *o)
			}
		}
		report.Outcomes[i] = *o
	}
	report.Wall = time.Since(start)
	report.Telemetry = reg.Snapshot()
	return report
}

// runMetrics holds the runner's own telemetry handles (all nil no-ops
// when collection is off).
type runMetrics struct {
	attempts, panics, failures, skipped *telemetry.Counter
	wall                                *telemetry.Histogram
}

// runOne executes a single experiment under the per-experiment
// timeout, converting a panic into an error carrying the stack. The
// experiment's harness publishes its engine metrics into a scope keyed
// by the experiment name.
func runOne(ctx context.Context, e experiments.Experiment, cfg Config, reg *telemetry.Registry, rm runMetrics) (out Outcome) {
	out.Name = e.Name
	cfg.Options.Tel = reg.Scope(e.Name)
	if cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Timeout)
		defer cancel()
	}
	rm.attempts.Inc()
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			out.Panicked = true
			out.Err = fmt.Errorf("panic: %v\n%s", p, debug.Stack())
			rm.panics.Inc()
		}
		if out.Err != nil {
			rm.failures.Inc()
		}
		out.Wall = time.Since(start)
		rm.wall.Observe(out.Wall.Seconds())
	}()
	res, err := e.Run(ctx, cfg.Options)
	if err != nil {
		out.Err = err
		return out
	}
	// An experiment that returns success after its deadline passed
	// raced the timeout; the artifact is still good, keep it.
	out.Result = res
	out.Rows = res.RowCount()
	return out
}
