package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"time"

	"immersionoc/internal/experiments"
	"immersionoc/internal/runner"
	"immersionoc/internal/telemetry"
)

// A paper-eval run times its set-up evalSetupBatches times, each over
// evalSetupBatch set-ups in a row, with one P. One set-up takes about
// 8 µs. With nproc Ps, runner.Run hands the first experiment to a worker
// that may sit on an idle thread, and waking that thread cost a few
// microseconds in some processes and not in others: over ten processes,
// the median batch mean ranged 9.2–11.4 µs with two Ps and 7.5–7.9 µs
// with one.
const (
	evalSetupBatches = 21
	evalSetupBatch   = 100
)

// evalResult is what one run of paper-eval measured.
type evalResult struct {
	// setupS holds the mean set-up time of each batch.
	setupS []float64
	// wallMs[name] holds the experiment's wall time in each pass.
	wallMs    map[string][]float64
	passWall  []time.Duration
	digests   map[string]string
	telemetry *telemetry.Snapshot // of the last pass
	goBefore  goStats
	goAfter   goStats
}

// runEval runs the named experiments through runner.Run, once, then
// again while another pass fits in seconds. The run seed is reduced
// modulo evalGoldenSeeds, so gold, when given, holds a digest for every
// experiment the run checks; seed 0 keeps every experiment's calibrated
// seed. The experiments run one at a time and fan their sweeps out
// nproc-wide: with nproc experiments at once, an experiment's wall time
// depended on which others shared the CPUs, and the median experiment
// changed from run to run.
func runEval(names []string, gold map[string]map[string]string, seed uint64, seconds float64, tr *tracer, o *outcome) (*evalResult, error) {
	seed %= evalGoldenSeeds
	res := &evalResult{wallMs: map[string][]float64{}}
	exps, setupS, err := timeEvalSetups(names, evalConfig(seed))
	if err != nil {
		return nil, err
	}
	res.setupS = setupS

	runtime.GC()
	res.goBefore = readGoStats()
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start)+res.passWall[pass-1] <= time.Duration(seconds*float64(time.Second)); pass++ {
		var root uint64
		if tr != nil {
			root = tr.id()
		}
		passStart := time.Now()
		cfg := evalConfig(seed)
		cfg.OnDone = func(i int, oc runner.Outcome) {
			if tr != nil {
				end := tr.now()
				tr.add(span{Trace: root, Parent: root, Name: "experiments." + oc.Name, Start: end - int64(oc.Wall), End: end})
			}
		}
		rep := runner.Run(context.Background(), exps, cfg)
		if tr != nil {
			tr.add(span{Trace: root, ID: root, Name: "runner.Run", Start: tr.at(passStart), End: tr.now()})
		}
		res.passWall = append(res.passWall, rep.Wall)
		res.telemetry = rep.Telemetry
		digests := map[string]string{}
		for _, oc := range rep.Outcomes {
			o.attempted++
			res.wallMs[oc.Name] = append(res.wallMs[oc.Name], ms(oc.Wall))
			if oc.Err != nil {
				o.fail("%s: %v", oc.Name, oc.Err)
				continue
			}
			b, err := json.Marshal(oc.Result)
			if err != nil || oc.Rows == 0 {
				o.fail("%s: %d rows, %v", oc.Name, oc.Rows, err)
				continue
			}
			sum := sha256.Sum256(b)
			digests[oc.Name] = hex.EncodeToString(sum[:16])
		}
		checkEvalDigests(gold, seed, pass, digests, res.digests, o)
		if pass == 0 {
			res.digests = digests
		}
	}
	res.goAfter = readGoStats()
	return res, nil
}

// evalConfig runs one experiment at a time with its sweeps nproc-wide.
func evalConfig(seed uint64) runner.Config {
	return runner.Config{Workers: 1, Options: experiments.Options{Seed: seed, Workers: runtime.GOMAXPROCS(0)}}
}

// timeEvalSetups times evalSetupBatches batches of set-ups with one P and
// returns each batch's mean, in seconds, and the resolved experiments.
func timeEvalSetups(names []string, cfg runner.Config) ([]experiments.Experiment, []float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var exps []experiments.Experiment
	var means []float64
	for b := 0; b < evalSetupBatches; b++ {
		var total time.Duration
		for i := 0; i < evalSetupBatch; i++ {
			var setup time.Duration
			var err error
			if exps, setup, err = timeEvalSetup(names, cfg); err != nil {
				return nil, nil, err
			}
			total += setup
		}
		means = append(means, total.Seconds()/evalSetupBatch)
	}
	return exps, means, nil
}

// errSetupTimed stops the experiment a set-up measurement reaches.
var errSetupTimed = errors.New("set-up timed")

// timeEvalSetup times what paper-eval does before its first experiment
// starts: resolving the experiments by name, as octl does, then
// runner.Run's own set-up (telemetry registry, worker pool, budget token,
// the experiment's telemetry scope) until the first experiment's Run is
// entered. That call returns at once and cancels the run, so no
// experiment does any work. It returns the resolved experiments.
func timeEvalSetup(names []string, cfg runner.Config) ([]experiments.Experiment, time.Duration, error) {
	start := time.Now()
	exps := make([]experiments.Experiment, len(names))
	for i, n := range names {
		e, ok := experiments.Lookup(n)
		if !ok {
			return nil, 0, fmt.Errorf("experiment %s is not registered", n)
		}
		exps[i] = e
	}
	lookup := time.Since(start)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var entered time.Time
	stopped := slices.Clone(exps)
	for i := range stopped {
		stopped[i].Run = func(context.Context, experiments.Options) (experiments.Result, error) {
			if entered.IsZero() {
				entered = time.Now()
			}
			cancel()
			return experiments.Result{}, errSetupTimed
		}
	}
	// Workers is 1, so the calls above run one at a time, and Run
	// returns only after them.
	runStart := time.Now()
	runner.Run(ctx, stopped, cfg)
	if entered.IsZero() {
		return nil, 0, errors.New("set-up: runner.Run started no experiment")
	}
	return exps, lookup + entered.Sub(runStart), nil
}

// checkEvalDigests compares a pass's result digests with the golden ones
// for the seed, when gold is given, and with the first pass's.
func checkEvalDigests(gold map[string]map[string]string, seed uint64, pass int, got, first map[string]string, o *outcome) {
	want := gold[strconv.FormatUint(seed, 10)]
	for name, d := range got {
		if gold != nil {
			w, ok := want[name]
			o.check(ok && d == w, "%s at seed %d: result digest %s, golden %q", name, seed, d, w)
		}
		if pass > 0 {
			o.check(d == first[name], "%s: pass %d digest %s differs from pass 0's %s", name, pass, d, first[name])
		}
	}
}

// passMs lists each pass's runner.Run wall time.
func (e *evalResult) passMs() []float64 {
	var out []float64
	for _, w := range e.passWall {
		out = append(out, ms(w))
	}
	return out
}

// endToEnd reports the median pass. A single experiment is too short a
// unit: the median of the eight, about 2 s of work, spread 22–29% over
// runs where whole passes spread 11–18%.
func (e *evalResult) endToEnd(v map[string]float64) {
	v["setup_s"] = median(e.setupS)
	v["p50_ms"] = median(e.passMs())
}

// summary reports the pass tails, and experiments per second of
// runner.Run wall time.
func (e *evalResult) summary(v map[string]float64) {
	passes := sortedCopy(e.passMs())
	var total float64
	for _, p := range passes {
		total += p / 1e3
	}
	v["bench.samples"] = float64(len(passes))
	v["bench.throughput_per_s"] = float64(len(passes)*len(e.wallMs)) / total
	v["bench.p95_ms"] = tail("bench.p95_ms", passes, 0.95)
	v["bench.p99_ms"] = tail("bench.p99_ms", passes, 0.99)
}

// perLayer reads the experiments' own telemetry: the event kernel's
// "events", the queueing engine's "requests" and the sweep engine's
// "cells" counters and "cell_wall_s" histograms, summed over every
// experiment and cell scope of the last pass.
func (e *evalResult) perLayer(v map[string]float64) {
	var expWall float64
	for n, w := range e.wallMs {
		if slices.Contains(evalNames, n) {
			v["experiments."+n+".wall_s"] = median(w) / 1e3
		}
		expWall += median(w) / 1e3
	}
	var events, requests, cells uint64
	var cellHist telemetry.HistogramSnapshot
	if e.telemetry != nil {
		for _, sc := range e.telemetry.Scopes {
			events += sc.Counters["events"]
			requests += sc.Counters["requests"]
			cells += sc.Counters["cells"]
			if h, ok := sc.Histograms["cell_wall_s"]; ok {
				cellHist = mergeHist(cellHist, h)
			}
		}
	}
	pass := e.passWall[len(e.passWall)-1].Seconds()
	v["sim.events"] = float64(events)
	v["sim.host_ns_per_event"] = ratio(expWall*1e9, float64(events))
	v["queueing.requests"] = float64(requests)
	v["queueing.host_ns_per_request"] = ratio(expWall*1e9, float64(requests))
	v["sweep.cells"] = float64(cells)
	v["sweep.cell_wall_s.p50"] = histQuantile(cellHist, 0.5)
	v["sweep.utilization"] = ratio(cellHist.Sum, pass*float64(runtime.GOMAXPROCS(0)))
	goDelta(e.goBefore, e.goAfter, v)
}

// mergeHist adds b's buckets to a's; a zero a takes b's bounds.
func mergeHist(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if a.Bounds == nil {
		a.Bounds = b.Bounds
		a.Counts = make([]uint64, len(b.Counts))
	}
	if len(a.Counts) != len(b.Counts) {
		return a
	}
	for i, c := range b.Counts {
		a.Counts[i] += c
	}
	a.Count += b.Count
	a.Sum += b.Sum
	return a
}

// histQuantile estimates a quantile from bucket counts the way
// telemetry.Histogram.Quantile does: linear within the landing bucket.
func histQuantile(h telemetry.HistogramSnapshot, q float64) float64 {
	var total float64
	for _, c := range h.Counts {
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for i, c := range h.Counts {
		n := float64(c)
		if n > 0 && cum+n >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			if i == len(h.Bounds) {
				return lo
			}
			return lo + (h.Bounds[i]-lo)*(rank-cum)/n
		}
		cum += n
	}
	return h.Bounds[len(h.Bounds)-1]
}
