// Benchmarks of the evaluation harness: every registered experiment
// through its registry Run (BenchmarkExperiment), the whole table
// evaluation through the runner, the Figure 12 sweep engine, and the
// fleet simulation at three scales. The repo benchmark of record,
// with end-to-end gates, is bench/ (bash bench/run.sh).
package immersionoc_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/experiments"
	"immersionoc/internal/runner"
	"immersionoc/internal/telemetry"
)

// BenchmarkRunnerAll regenerates the full table evaluation through the
// experiment runner, serially and with a GOMAXPROCS-wide worker pool.
// On a multi-core machine the parallel case amortizes the serial sum
// (the report's "serial cost") down to roughly the slowest experiment.
// The telemetry-on/telemetry-off pair measures the collection overhead
// on identical serial runs; the budget is < 2%.
func BenchmarkRunnerAll(b *testing.B) {
	exps := experiments.Tables()
	if len(exps) == 0 {
		b.Fatal("empty registry")
	}
	for _, bc := range []struct {
		name    string
		workers int
		metrics *telemetry.Registry
	}{
		{"serial", 1, nil},
		{"parallel", runtime.GOMAXPROCS(0), nil},
		{"telemetry-on", 1, telemetry.NewRegistry()},
		{"telemetry-off", 1, telemetry.Off},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := runner.Run(context.Background(), exps, runner.Config{Workers: bc.workers, Metrics: bc.metrics})
				if failed := r.Failed(); len(failed) > 0 {
					b.Fatalf("%s: %v", failed[0].Name, failed[0].Err)
				}
			}
		})
	}
}

// BenchmarkExperiment times every registered experiment, one
// sub-benchmark per registry entry, through its registry Run with the
// zero Options — the path octl takes, so
// -bench 'BenchmarkExperiment/^table11$' times `octl table11` and
// -bench '^BenchmarkExperiment$' the whole registry. The paper's
// numbers are asserted by the unit tests in internal/...; this
// measures the cost of regenerating each artifact.
func BenchmarkExperiment(b *testing.B) {
	for _, e := range experiments.All() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := e.Run(context.Background(), experiments.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Text() == "" {
					b.Fatal("empty result")
				}
			}
		})
	}
}

// BenchmarkSweepFig12 measures the intra-experiment sweep engine on
// the Figure 12 grid (10 cells at 120 simulated seconds): the serial
// case is the workers≤1 fast path — the plain loop the sweep replaced,
// whose cost must stay within noise of the pre-sweep code — and the
// parallel case fans the cells out GOMAXPROCS-wide under the shared
// budget. On a multi-core machine the parallel case approaches
// serial/cores; on a 1-CPU container the two are equal.
func BenchmarkSweepFig12(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := experiments.DefaultFig12Params()
			p.DurationS = 120
			p.Workers = bc.workers
			var ratio float64
			for i := 0; i < b.N; i++ {
				data, err := experiments.Fig12DataCtx(context.Background(), p)
				if err != nil {
					b.Fatal(err)
				}
				b16, _ := experiments.Fig12Find(data, "B2", 16)
				o12, _ := experiments.Fig12Find(data, "OC3", 12)
				ratio = o12.MeanP95MS / b16.MeanP95MS
			}
			b.ReportMetric(ratio, "OC3@12/B2@16-P95")
		})
	}
}

func BenchmarkFleetSim(b *testing.B) {
	cfg := dcsim.DefaultConfig()
	cfg.Trace.DurationS = 24 * 3600
	var ocHours float64
	for i := 0; i < b.N; i++ {
		rep, err := dcsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ocHours = rep.OverclockServerHours
	}
	b.ReportMetric(ocHours, "OC-server-hours")
}

// BenchmarkFleetHyperScale is the sharding tentpole's scale point:
// 100,000 servers across 8,334 tanks absorbing a 1,000,000-VM arrival
// wave (≈250k concurrent at steady state), stepped across 8 shards
// drawn from the shared sweep budget. The reported ms/step is the
// wall-clock cost of one control step at hyperscale; the target is
// <1 s/step on a multicore host. KPIs are byte-stable at any shard
// count, so the OC-server-hours metric doubles as a determinism probe
// against BENCH history.
func BenchmarkFleetHyperScale(b *testing.B) {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 100_000
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 34_700_000
	cfg.Shards = 8
	cfg.Trace.DurationS = 4 * 3600
	cfg.Trace.ArrivalRatePerS = 1_000_000.0 / (4 * 3600)
	cfg.Trace.MeanLifetimeS = 3600
	steps := cfg.Trace.DurationS / cfg.StepS
	var ocHours float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rep, err := dcsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ocHours = rep.OverclockServerHours
	}
	b.ReportMetric(float64(time.Since(start).Milliseconds())/(float64(b.N)*steps), "ms/step")
	b.ReportMetric(ocHours, "OC-server-hours")
}

// BenchmarkFleetScale is the production-scale point of the fleet
// control plane: 1,000 servers across 84 tanks replaying a ~10,000-VM
// day-long trace under a row feeder budget. It exists to keep the
// dcsim control step O(changed state) — at this size any per-step
// full-fleet recompute (demand, row power, hazard rates) dominates the
// run and shows up here first.
func BenchmarkFleetScale(b *testing.B) {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 1000
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 347000
	cfg.Trace.DurationS = 24 * 3600
	cfg.Trace.ArrivalRatePerS = 10000.0 / (24 * 3600)
	cfg.Trace.MeanLifetimeS = 10 * 3600
	var ocHours float64
	for i := 0; i < b.N; i++ {
		rep, err := dcsim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ocHours = rep.OverclockServerHours
	}
	b.ReportMetric(ocHours, "OC-server-hours")
}
