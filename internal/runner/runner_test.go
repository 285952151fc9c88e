package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"immersionoc/internal/experiments"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
)

// fake builds an unregistered table experiment whose single row is
// derived from the name, so outcome content is checkable.
func fake(name string, run func(ctx context.Context, o experiments.Options) (experiments.Result, error)) experiments.Experiment {
	return experiments.Experiment{Name: name, Kind: experiments.KindTable, Run: run}
}

func tableFor(name string) experiments.Result {
	return experiments.Result{
		Name: name,
		Kind: experiments.KindTable,
		Table: &experiments.Table{
			Title:  "fake " + name,
			Header: []string{"k", "v"},
			Rows:   [][]string{{name, "1"}},
		},
	}
}

func okFake(name string) experiments.Experiment {
	return fake(name, func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
		return tableFor(name), nil
	})
}

func TestParallelMatchesSerial(t *testing.T) {
	var exps []experiments.Experiment
	for i := 0; i < 20; i++ {
		exps = append(exps, okFake(fmt.Sprintf("exp%02d", i)))
	}
	serial := Run(context.Background(), exps, Config{Workers: 1})
	parallel := Run(context.Background(), exps, Config{Workers: 8})
	if len(serial.Outcomes) != len(exps) || len(parallel.Outcomes) != len(exps) {
		t.Fatalf("outcome counts %d / %d", len(serial.Outcomes), len(parallel.Outcomes))
	}
	for i := range exps {
		s, p := serial.Outcomes[i], parallel.Outcomes[i]
		if s.Name != exps[i].Name || p.Name != exps[i].Name {
			t.Fatalf("outcome %d out of submission order: %q / %q", i, s.Name, p.Name)
		}
		if !s.OK() || !p.OK() {
			t.Fatalf("outcome %d failed: %v / %v", i, s.Err, p.Err)
		}
		if s.Result.Text() != p.Result.Text() {
			t.Fatalf("outcome %d differs between serial and parallel", i)
		}
		if s.Rows != 1 || p.Rows != 1 {
			t.Fatalf("outcome %d rows %d / %d", i, s.Rows, p.Rows)
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	exps := []experiments.Experiment{
		okFake("before"),
		fake("boom", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			panic("kaboom")
		}),
		okFake("after"),
	}
	r := Run(context.Background(), exps, Config{Workers: 2})
	if got := len(r.Failed()); got != 1 {
		t.Fatalf("%d failures, want 1", got)
	}
	boom := r.Outcomes[1]
	if !boom.Panicked || boom.Err == nil || !strings.Contains(boom.Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %+v", boom)
	}
	if !r.Outcomes[0].OK() || !r.Outcomes[2].OK() {
		t.Fatal("panic killed sibling experiments")
	}
}

// TestOnDonePanicReraised: Map recovers a panicking cell into an
// error, so Run re-raises a panic in OnDone instead of reporting the
// unstarted experiments as successes.
func TestOnDonePanicReraised(t *testing.T) {
	for _, workers := range []int{1, 2} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "ondone") {
					t.Fatalf("workers=%d: recovered %v, want the OnDone panic", workers, p)
				}
			}()
			var panicked atomic.Bool
			Run(context.Background(), []experiments.Experiment{okFake("a"), okFake("b"), okFake("c")},
				Config{Workers: workers, OnDone: func(int, Outcome) {
					if !panicked.Swap(true) {
						panic("ondone")
					}
				}})
		}()
	}
}

func TestErrorsCollectedNotFatal(t *testing.T) {
	wantErr := errors.New("no data")
	exps := []experiments.Experiment{
		fake("bad", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			return experiments.Result{}, wantErr
		}),
		okFake("good"),
	}
	r := Run(context.Background(), exps, Config{Workers: 1})
	if !errors.Is(r.Outcomes[0].Err, wantErr) {
		t.Fatalf("err = %v", r.Outcomes[0].Err)
	}
	if !r.Outcomes[1].OK() {
		t.Fatal("failure aborted the run")
	}
}

func TestCancellationStopsPromptly(t *testing.T) {
	// One long experiment that honors ctx, plus queued experiments
	// that must be skipped once the context is cancelled.
	blocking := fake("long", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
		select {
		case <-ctx.Done():
			return experiments.Result{}, ctx.Err()
		case <-time.After(30 * time.Second):
			return tableFor("long"), nil
		}
	})
	var queuedRuns atomic.Int64
	queued := func(name string) experiments.Experiment {
		return fake(name, func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			queuedRuns.Add(1)
			return tableFor(name), nil
		})
	}
	exps := []experiments.Experiment{blocking, queued("queued1"), queued("queued2")}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := Run(ctx, exps, Config{Workers: 1})
	if wall := time.Since(start); wall > 5*time.Second {
		t.Fatalf("cancelled run took %s", wall)
	}
	if !errors.Is(r.Outcomes[0].Err, context.Canceled) {
		t.Fatalf("long experiment err = %v", r.Outcomes[0].Err)
	}
	for _, o := range r.Outcomes[1:] {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("queued experiment %q err = %v, want cancellation", o.Name, o.Err)
		}
	}
	if n := queuedRuns.Load(); n != 0 {
		t.Fatalf("queued experiments ran %d times after cancel", n)
	}
}

func TestPerExperimentTimeout(t *testing.T) {
	exps := []experiments.Experiment{
		fake("slow", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			<-ctx.Done()
			return experiments.Result{}, ctx.Err()
		}),
		okFake("fast"),
	}
	r := Run(context.Background(), exps, Config{Workers: 2, Timeout: 50 * time.Millisecond})
	if !errors.Is(r.Outcomes[0].Err, context.DeadlineExceeded) {
		t.Fatalf("slow err = %v", r.Outcomes[0].Err)
	}
	if !r.Outcomes[1].OK() {
		t.Fatal("timeout leaked into the sibling experiment")
	}
}

func TestOnDoneStreams(t *testing.T) {
	var exps []experiments.Experiment
	for i := 0; i < 8; i++ {
		exps = append(exps, okFake(fmt.Sprintf("exp%d", i)))
	}
	done := make(chan int, len(exps))
	Run(context.Background(), exps, Config{Workers: 4, OnDone: func(i int, o Outcome) {
		if o.Name != exps[i].Name {
			t.Errorf("OnDone(%d) got %q", i, o.Name)
		}
		done <- i
	}})
	if len(done) != len(exps) {
		t.Fatalf("OnDone fired %d times, want %d", len(done), len(exps))
	}
}

func TestReportAggregates(t *testing.T) {
	r := &Report{Outcomes: []Outcome{
		{Name: "a", Wall: 1 * time.Second},
		{Name: "b", Wall: 3 * time.Second},
		{Name: "c", Wall: 2 * time.Second, Err: errors.New("x")},
	}, Wall: 3 * time.Second, Workers: 3}
	if got := r.TotalExperimentTime(); got != 6*time.Second {
		t.Fatalf("total = %v", got)
	}
	if got := r.Slowest(); got.Name != "b" {
		t.Fatalf("slowest = %q", got.Name)
	}
	if got := r.Percentile(1); got != 3*time.Second {
		t.Fatalf("p100 = %v", got)
	}
	if got := r.Percentile(0); got != 1*time.Second {
		t.Fatalf("p0 = %v", got)
	}
	s := r.Summary()
	for _, want := range []string{"3 experiments", "2 ok, 1 failed", "max=3s (b)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary %q missing %q", s, want)
		}
	}
}

// determinismSet is the registry subset the determinism test runs:
// every model-driven experiment plus the duration-shortened
// simulations — including every sweep-enabled harness, so the
// intra-experiment fan-out crosses the parallel path — without the
// full evaluation cost.
func determinismSet(t *testing.T) ([]experiments.Experiment, experiments.Options) {
	set := experiments.WithTags("fast")
	if len(set) < 10 {
		t.Fatalf("only %d fast experiments registered", len(set))
	}
	if !testing.Short() {
		for _, name := range []string{
			"fig12", "fig13", "diurnal", "policies",
			"ablation-eq1", "ablation-bursts", "fleetsim", "packing", "capacity",
		} {
			e, ok := experiments.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			set = append(set, e)
		}
	}
	return set, experiments.Options{DurationS: 90}
}

// TestDeterminismAcrossWorkers asserts the acceptance property: the
// same seed produces byte-identical JSON whether the run is serial or
// 8-wide.
func TestDeterminismAcrossWorkers(t *testing.T) {
	exps, opts := determinismSet(t)
	marshal := func(r *Report) []string {
		t.Helper()
		lines := make([]string, len(r.Outcomes))
		for i, o := range r.Outcomes {
			if !o.OK() {
				t.Fatalf("%s: %v", o.Name, o.Err)
			}
			b, err := json.Marshal(o.Result)
			if err != nil {
				t.Fatal(err)
			}
			lines[i] = string(b)
		}
		return lines
	}
	serial := marshal(Run(context.Background(), exps, Config{Workers: 1, Options: opts}))
	parallel := marshal(Run(context.Background(), exps, Config{Workers: 8, Options: opts}))
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("%s: JSON differs between -j 1 and -j 8:\n  serial:   %s\n  parallel: %s",
				exps[i].Name, serial[i], parallel[i])
		}
	}
}

// TestRegistryExperimentsCancelPromptly cancels a run over the
// longest-running sims and requires a prompt return well under the
// serial cost.
func TestRegistryExperimentsCancelPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("sim cancellation in -short mode")
	}
	var exps []experiments.Experiment
	for _, name := range []string{"fig12", "fig13"} {
		e, ok := experiments.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		exps = append(exps, e)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := Run(ctx, exps, Config{Workers: 1})
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("cancelled sim run took %s", wall)
	}
	for _, o := range r.Outcomes {
		if o.OK() {
			t.Errorf("%s completed despite cancellation", o.Name)
		}
	}
}

// TestPercentileEdgeCases pins the boundary behavior of the cached
// percentile: empty runs, single-outcome runs, and repeat calls (the
// sort happens once and must keep answering consistently).
func TestPercentileEdgeCases(t *testing.T) {
	empty := &Report{}
	for _, p := range []float64{0, 0.5, 1} {
		if got := empty.Percentile(p); got != 0 {
			t.Fatalf("empty Percentile(%v) = %v, want 0", p, got)
		}
	}
	single := &Report{Outcomes: []Outcome{{Name: "only", Wall: 7 * time.Second}}}
	for _, p := range []float64{0, 0.5, 1} {
		if got := single.Percentile(p); got != 7*time.Second {
			t.Fatalf("single Percentile(%v) = %v, want 7s", p, got)
		}
	}
	r := &Report{Outcomes: []Outcome{
		{Wall: 3 * time.Second}, {Wall: 1 * time.Second}, {Wall: 2 * time.Second},
	}}
	if got := r.Percentile(0); got != 1*time.Second {
		t.Fatalf("p0 = %v, want 1s", got)
	}
	if got := r.Percentile(1); got != 3*time.Second {
		t.Fatalf("p1 = %v, want 3s", got)
	}
	// Repeat calls hit the cached sort and must agree.
	if a, b := r.Percentile(0.5), r.Percentile(0.5); a != b || a != 2*time.Second {
		t.Fatalf("repeat p50 = %v / %v, want 2s", a, b)
	}
}

// TestReportTelemetry asserts the run's snapshot carries both the
// experiment's own metrics (scoped by name) and the runner's counters.
func TestReportTelemetry(t *testing.T) {
	exps := []experiments.Experiment{
		fake("writer", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			o.Tel.Counter("work").Add(3)
			o.Tel.Gauge("depth").Set(2.5)
			o.Tel.Histogram("lat_s", telemetry.LatencyBuckets).Observe(0.004)
			return tableFor("writer"), nil
		}),
		fake("failing", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			return experiments.Result{}, errors.New("no data")
		}),
	}
	r := Run(context.Background(), exps, Config{Workers: 2})
	if r.Telemetry == nil {
		t.Fatal("report carries no telemetry snapshot")
	}
	w, ok := r.Telemetry.Scopes["writer"]
	if !ok {
		t.Fatalf("no scope for experiment; scopes = %v", r.Telemetry.Scopes)
	}
	if w.Counters["work"] != 3 || w.Gauges["depth"] != 2.5 {
		t.Fatalf("writer metrics = %+v", w)
	}
	if h := w.Histograms["lat_s"]; h.Count != 1 || h.Sum != 0.004 {
		t.Fatalf("writer histogram = %+v", h)
	}
	rn, ok := r.Telemetry.Scopes["runner"]
	if !ok {
		t.Fatal("no runner scope")
	}
	// writer and failing ran once each, and failing failed.
	if rn.Counters["attempts"] != 2 || rn.Counters["failures"] != 1 {
		t.Fatalf("runner counters = %v", rn.Counters)
	}
	if h := rn.Histograms["wall_s"]; h.Count != 2 {
		t.Fatalf("wall histogram count = %d, want 2", h.Count)
	}
}

// TestTelemetryOff asserts telemetry.Off disables collection end to
// end: no snapshot, and the no-op scope handed to experiments is safe.
func TestTelemetryOff(t *testing.T) {
	exps := []experiments.Experiment{
		fake("quiet", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			o.Tel.Counter("work").Inc() // no-op, must not panic
			return tableFor("quiet"), nil
		}),
	}
	r := Run(context.Background(), exps, Config{Metrics: telemetry.Off})
	if !r.Outcomes[0].OK() {
		t.Fatalf("run failed: %v", r.Outcomes[0].Err)
	}
	if r.Telemetry != nil {
		t.Fatalf("telemetry.Off still produced a snapshot: %+v", r.Telemetry)
	}
}

// TestConcurrentOnDoneAndTelemetry exercises the advertised
// concurrency contract under the race detector: ≥8 workers, OnDone
// firing from many goroutines, and every experiment hammering the
// same telemetry scope (they share a name, hence a scope).
func TestConcurrentOnDoneAndTelemetry(t *testing.T) {
	const n = 64
	exps := make([]experiments.Experiment, n)
	for i := range exps {
		exps[i] = fake("shared", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
			for j := 0; j < 200; j++ {
				o.Tel.Counter("hits").Inc()
				o.Tel.Gauge("level").SetMax(float64(j))
				o.Tel.Histogram("lat_s", telemetry.LatencyBuckets).Observe(float64(j) / 1e4)
			}
			return tableFor("shared"), nil
		})
	}
	var mu sync.Mutex
	seen := 0
	r := Run(context.Background(), exps, Config{Workers: 8, OnDone: func(i int, o Outcome) {
		mu.Lock()
		seen++
		mu.Unlock()
	}})
	if seen != n {
		t.Fatalf("OnDone fired %d times, want %d", seen, n)
	}
	sc := r.Telemetry.Scopes["shared"]
	if sc.Counters["hits"] != n*200 {
		t.Fatalf("hits = %d, want %d", sc.Counters["hits"], n*200)
	}
	if got := r.Telemetry.Scopes["shared"].Histograms["lat_s"].Count; got != n*200 {
		t.Fatalf("histogram count = %d, want %d", got, n*200)
	}
}

// TestCancellationPromise is the regression test for the package-doc
// promise: a cancelled context stops a *running* simulation at its
// internal boundaries — the experiment returns the context error long
// before its simulated hour completes.
func TestCancellationPromise(t *testing.T) {
	if testing.Short() {
		t.Skip("sim cancellation in -short mode")
	}
	e, ok := experiments.Lookup("diurnal")
	if !ok {
		t.Fatal("diurnal not registered")
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	r := Run(ctx, []experiments.Experiment{e}, Config{Workers: 1})
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("cancelled diurnal run took %s", wall)
	}
	o := r.Outcomes[0]
	if !errors.Is(o.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled from inside the simulation", o.Err)
	}
}

// TestSharedBudgetNeverExceeded is the runner↔sweep semaphore
// contract: experiments and the sweep cells they fan out draw from one
// budget, so total live parallelism never exceeds its capacity — a
// worker blocked on its experiment's sweep lends the cells its own
// token rather than holding it idle.
func TestSharedBudgetNeverExceeded(t *testing.T) {
	const capTokens = 3
	budget := sweep.NewBudget(capTokens)
	var running, peak atomic.Int64
	enter := func() {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
	}
	var exps []experiments.Experiment
	for i := 0; i < 6; i++ {
		exps = append(exps, fake(fmt.Sprintf("sweeper%d", i),
			func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
				enter()
				time.Sleep(2 * time.Millisecond)
				running.Add(-1)
				// Fan out like a converted harness: the worker's token is
				// lent to these cells while the experiment blocks here.
				_, err := sweep.Map(ctx, 5, sweep.Options{Workers: o.Workers},
					func(ctx context.Context, j int) (int, error) {
						enter()
						time.Sleep(time.Millisecond)
						running.Add(-1)
						return j, nil
					})
				if err != nil {
					return experiments.Result{}, err
				}
				enter()
				running.Add(-1)
				return tableFor("sweeper"), nil
			}))
	}
	r := Run(context.Background(), exps, Config{Workers: capTokens, Budget: budget})
	for _, o := range r.Outcomes {
		if !o.OK() {
			t.Fatalf("%s: %v", o.Name, o.Err)
		}
	}
	if p := peak.Load(); p > capTokens {
		t.Fatalf("peak live parallelism %d exceeds the shared budget's %d tokens", p, capTokens)
	}
	if u := budget.Used(); u != 0 {
		t.Fatalf("budget leaks %d tokens after the run", u)
	}
	if c := budget.Cap(); c != capTokens {
		t.Fatalf("budget cap changed to %d", c)
	}
}

// TestOneWorkerKeepsBudget: a one-worker run still holds a token of
// Config.Budget while its experiment runs and lends it to the
// experiment's sweeps, so an inner fan-out draws from the run's budget
// and not from sweep.Shared.
func TestOneWorkerKeepsBudget(t *testing.T) {
	budget := sweep.NewBudget(2)
	var underBudget atomic.Int64
	e := fake("sweeper", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
		_, err := sweep.Map(ctx, 4, sweep.Options{Workers: 4},
			func(ctx context.Context, j int) (int, error) {
				if budget.Used() > 0 {
					underBudget.Add(1)
				}
				return j, nil
			})
		if err != nil {
			return experiments.Result{}, err
		}
		return tableFor("sweeper"), nil
	})
	r := Run(context.Background(), []experiments.Experiment{e}, Config{Workers: 1, Budget: budget})
	if !r.Outcomes[0].OK() {
		t.Fatal(r.Outcomes[0].Err)
	}
	if n := underBudget.Load(); n != 4 {
		t.Fatalf("%d of 4 inner cells ran holding a token of the run's budget", n)
	}
	if u := budget.Used(); u != 0 {
		t.Fatalf("budget leaks %d tokens after the run", u)
	}
}

// TestWorkersReachSweeps: the requested -j width is threaded into
// experiments.Options even when the pool itself is capped at the
// experiment count, so a lone experiment still sweeps wide.
func TestWorkersReachSweeps(t *testing.T) {
	var seen atomic.Int64
	e := fake("lone", func(ctx context.Context, o experiments.Options) (experiments.Result, error) {
		seen.Store(int64(o.Workers))
		return tableFor("lone"), nil
	})
	Run(context.Background(), []experiments.Experiment{e}, Config{Workers: 8, Budget: sweep.NewBudget(8)})
	if got := seen.Load(); got != 8 {
		t.Fatalf("Options.Workers = %d inside the experiment, want the requested 8", got)
	}

	// An explicit Options.Workers is left alone.
	Run(context.Background(), []experiments.Experiment{e},
		Config{Workers: 8, Budget: sweep.NewBudget(8), Options: experiments.Options{Workers: 2}})
	if got := seen.Load(); got != 2 {
		t.Fatalf("Options.Workers = %d, want the explicit 2", got)
	}
}
