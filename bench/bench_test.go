package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/vm"
)

func newSchedule(t *testing.T, spec serveSpec, seed uint64, openFor time.Duration, closedOps int) *schedule {
	t.Helper()
	g, err := newOpGen(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g.schedule(openFor, closedOps)
}

func TestScheduleIsSeeded(t *testing.T) {
	spec := serveSpecs["serve-read-10k"]
	sch1 := newSchedule(t, spec, 7, 2*time.Second, 500)
	sch2 := newSchedule(t, spec, 7, 2*time.Second, 500)
	if !reflect.DeepEqual(sch1, sch2) {
		t.Fatal("the same seed gave different schedules")
	}
	sch3 := newSchedule(t, spec, 8, 2*time.Second, 500)
	if reflect.DeepEqual(sch1.open, sch3.open) || reflect.DeepEqual(sch1.closed, sch3.closed) {
		t.Fatal("another seed gave the same schedule")
	}

	open1 := sch1.open
	steps, sampled := 0, map[int]int{}
	for i, o := range open1 {
		if i > 0 && o.due < open1[i-1].due {
			t.Fatalf("op %d due %v before op %d at %v", i, o.due, i-1, open1[i-1].due)
		}
		if endpoints[o.ep] == "step" {
			steps++
		}
		if o.sample {
			sampled[int(o.ep)]++
		}
	}
	if want := int(2*spec.stepHz) - 1; steps != want {
		t.Errorf("%d steps in 2 s at %v Hz, want %d", steps, spec.stepHz, want)
	}
	if n := len(open1) - steps; n < 800 || n > 1200 {
		t.Errorf("%d requests in 2 s at %v/s", n, spec.rate)
	}
	if sampled[epIndex("status")] < 2 {
		t.Errorf("sampled %d status responses", sampled[epIndex("status")])
	}
}

func TestWriteScheduleRemovesScheduledPlaces(t *testing.T) {
	spec := serveSpecs["serve-write-100k"]
	sch := newSchedule(t, spec, 1, time.Second, 2000)
	placed := map[int]bool{}
	removed := 0
	vcores := map[int]int{}
	for _, o := range append(sch.open, sch.closed...) {
		switch endpoints[o.ep] {
		case "place":
			var r api.PlaceRequest
			mustUnmarshal(t, sch.body(&o), &r)
			if placed[r.VM.ID] {
				t.Fatalf("VM %d placed twice", r.VM.ID)
			}
			placed[r.VM.ID] = true
			vcores[r.VM.VCores]++
		case "remove":
			var r struct{ ID int }
			mustUnmarshal(t, sch.body(&o), &r)
			if r.ID != neverPlacedID {
				if !placed[r.ID] {
					t.Fatalf("remove of VM %d before its place", r.ID)
				}
				removed++
			}
		}
	}
	if removed == 0 {
		t.Fatal("no remove named a placed VM")
	}
	// The places draw vm.Generate's size mix: every catalog size, small
	// ones most often.
	for _, ty := range vm.Types() {
		if vcores[ty.VCores] == 0 {
			t.Errorf("no place of size %s", ty.Name)
		}
	}
	if vcores[2] <= vcores[16] {
		t.Errorf("place sizes %v: 2-vcore VMs are not the most common", vcores)
	}
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
	if got := quantile([]float64{3}, 0.99); got != 3 {
		t.Errorf("quantile of one sample = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %v", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{1000, 0.99, true}, {999, 0.99, false}, {100, 0.9, true}, {99, 0.9, false}, {8, 0.5, false}, {20, 0.5, true}} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 10, End: 30}}, 80},
		{"overlapping children", []span{{Start: 10, End: 20}, {Start: 15, End: 30}}, 80},
		{"nested child", []span{{Start: 10, End: 50}, {Start: 20, End: 30}}, 60},
		{"child past the end", []span{{Start: 90, End: 120}}, 90},
		{"child outside", []span{{Start: 200, End: 300}}, 100},
		{"disjoint children", []span{{Start: 60, End: 70}, {Start: 0, End: 10}}, 80},
		{"child covers all", []span{{Start: -5, End: 105}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

// toyFleet is a 360-server fleet whose feeder is tight enough to cancel
// overclocks, so every Decider path runs.
func toyFleet() dcsim.Config {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 360
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 360 * 200
	cfg.Shards = 4
	cfg.Trace.DurationS = 12 * 3600
	cfg.Trace.ArrivalRatePerS = 0.2
	cfg.Trace.MeanLifetimeS = 4 * 3600
	// 16-server snapshot chunks, so a step leaves some chunks shared.
	cfg.SnapshotChunkShift = 4
	return cfg
}

func TestTimedDeciderLeavesReportIdentical(t *testing.T) {
	cfg := toyFleet()
	cfg.Trace.Seed = 3
	want, err := dcsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.CancelledOverclocks == 0 {
		t.Fatal("toy fleet never caps; the feeder path goes untested")
	}
	plain, err := runFleetRep(cfg, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	inner, err := defaultDecider(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dec := newTimedDecider(inner, tr)
	traced, err := runFleetRep(cfg, 3, tr, dec)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*dcsim.Report{"untraced": plain.report, "traced": traced.report} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s report differs from dcsim.Run:\n got %s\nwant %s", name, got, want)
		}
	}
	if st := dec.stats(); st.steps != len(traced.stepMs) || st.cancelled != want.CancelledOverclocks {
		t.Errorf("decider counted %d steps and %d cancellations, want %d and %d", st.steps, st.cancelled, len(traced.stepMs), want.CancelledOverclocks)
	}
	steps := map[uint64]span{}
	for _, s := range tr.all() {
		if s.Name == "dcsim.Step" {
			steps[s.ID] = s
		}
	}
	for _, s := range tr.all() {
		if s.Name != "placement.decide" {
			continue
		}
		p, ok := steps[s.Parent]
		if !ok || p.Trace != s.Trace || s.Start < p.Start || s.End > p.End {
			t.Fatalf("decide span %+v is not inside its step span %+v", s, p)
		}
	}
}

func TestServeAtToySize(t *testing.T) {
	for _, name := range []string{"serve-read-10k", "serve-write-100k"} {
		spec := serveSpecs[name]
		spec.servers, spec.prefill = 240, 150
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer()
			}
			o := &outcome{}
			res, err := runServe(spec, 1, 1, traced, tr, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if o.failed != 0 || o.attempted < spec.prefill {
				t.Fatalf("%s traced=%v: %d of %d failed", name, traced, o.failed, o.attempted)
			}
			v := map[string]float64{}
			res.endToEnd(v)
			res.summary(v)
			for _, m := range []string{"setup_s", "p50_ms", "bench.p95_ms"} {
				if !(v[m] > 0) {
					t.Errorf("%s: %s = %v", name, m, v[m])
				}
			}
			// Only the traced command measures capacity.
			if got := v["bench.throughput_per_s"]; (got > 0) != traced {
				t.Errorf("%s traced=%v: throughput %v", name, traced, got)
			}
			if !traced {
				continue
			}
			res.perLayer(v)
			if v["http.self_us.p50"] <= 0 || v["ocd.status.count"] == 0 || v["ocd.step.count"] == 0 {
				t.Errorf("%s: traced metrics %v", name, v)
			}
			if name == "serve-write-100k" && v["placement.evaluate.count"] == 0 {
				t.Errorf("%s: no Evaluate call was timed", name)
			}
			for _, s := range res.spans {
				if strings.HasPrefix(s.Name, "placement.decide") && s.Parent == 0 {
					t.Errorf("%s: decide span without a handler: %+v", name, s)
				}
			}
		}
	}
}

func TestFleetAtToySize(t *testing.T) {
	cfg := toyFleet()
	o := &outcome{}
	// Trace seeds wrap around the golden range: 81, 0, 1.
	seed := uint64(2*fleetGoldenSeeds - 1)
	plain, err := runFleet(cfg, nil, seed, 0.01, nil, o)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runFleet(cfg, nil, seed, 0.01, newTracer(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.reps) != minFleetReps || o.failed != 0 {
		t.Fatalf("%d reps, %d failures", len(plain.reps), o.failed)
	}
	var seeds []uint64
	for _, r := range plain.reps {
		seeds = append(seeds, r.traceSeed)
	}
	if want := []uint64{fleetGoldenSeeds - 1, 0, 1}; !reflect.DeepEqual(seeds, want) {
		t.Errorf("trace seeds %v, want %v", seeds, want)
	}
	if !reflect.DeepEqual(plain.digests(), traced.digests()) {
		t.Fatalf("traced digests %v, untraced %v", traced.digests(), plain.digests())
	}
	// A golden file without the seed fails the repetition, as does a
	// wrong digest.
	rep := plain.reps[1]
	for _, gold := range []map[string]string{{}, {"0": "wrong"}, {"0": rep.digest}} {
		o := &outcome{}
		checkFleetRep(cfg, gold, rep, o)
		if want := gold["0"] != rep.digest; (o.failed != 0) != want {
			t.Errorf("golden %v: %d failures", gold, o.failed)
		}
	}
	v := map[string]float64{}
	traced.perLayer(v)
	for _, m := range []string{"dcsim.step_ms.p50", "placement.decide_ms.p50", "cluster.events_per_step", "cow.chunk_reuse_ratio", "vm.generate_s"} {
		if !(v[m] > 0) {
			t.Errorf("%s = %v", m, v[m])
		}
	}
}

func TestEvalAtToySize(t *testing.T) {
	o := &outcome{}
	res, err := runEval([]string{"table1", "fig9"}, nil, 0, 0.01, newTracer(), o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.setupS) != evalSetupBatches {
		t.Errorf("%d set-up batches, want %d", len(res.setupS), evalSetupBatches)
	}
	// Each pass runs both experiments; passes repeat while they fit.
	if o.failed != 0 || o.attempted != 2*len(res.passWall) || len(res.digests) != 2 {
		t.Fatalf("%d of %d failed in %d passes, digests %v", o.failed, o.attempted, len(res.passWall), res.digests)
	}
	v := map[string]float64{}
	res.endToEnd(v)
	res.summary(v)
	if !(v["setup_s"] > 0 && v["p50_ms"] > 0 && v["bench.throughput_per_s"] > 0) {
		t.Errorf("metrics %v", v)
	}
	if got, want := v["p50_ms"], median(res.passMs()); got != want || float64(len(res.passWall)) != v["bench.samples"] {
		t.Errorf("p50_ms %v, want the median pass %v over %v passes", got, want, v["bench.samples"])
	}
}

// TestGoldenCoversSeedRanges keeps golden.json in step with the seed
// ranges runs are reduced into, so every run finds its digests.
func TestGoldenCoversSeedRanges(t *testing.T) {
	if len(golden.Fleet) != fleetGoldenSeeds {
		t.Errorf("%d fleet digests, want %d", len(golden.Fleet), fleetGoldenSeeds)
	}
	for s := uint64(0); s < fleetGoldenSeeds; s++ {
		if golden.Fleet[strconv.FormatUint(s, 10)] == "" {
			t.Errorf("no fleet digest for trace seed %d", s)
		}
	}
	if len(golden.Eval) != evalGoldenSeeds {
		t.Errorf("%d paper-eval seeds, want %d", len(golden.Eval), evalGoldenSeeds)
	}
	for s := uint64(0); s < evalGoldenSeeds; s++ {
		for _, n := range evalNames {
			if golden.Eval[strconv.FormatUint(s, 10)][n] == "" {
				t.Errorf("no %s digest for seed %d", n, s)
			}
		}
	}
}

func TestValidateRejectsWrongAnswers(t *testing.T) {
	prev := -1.0
	for _, c := range []struct{ ep, body string }{
		{"filter", `{"version":"v1","eligible":[{"index":0,"id":0,"tank":0}]}`},
		{"prioritize", `{"version":"v1","scores":[]}`},
		{"step", `{"version":"v1","sim_time_s":150,"steps_run":1}`},
		{"overclock", `{"version":"v1","granted":true,"reason":"tank_budget","row_power_w":1}`},
		{"status", `{"version":"v1","servers":2,"unknown":1}`},
	} {
		if err := validate(c.ep, []byte(c.body), 2, 300, &prev); err == nil {
			t.Errorf("%s accepted %s", c.ep, c.body)
		}
	}
	if err := validate("step", []byte(`{"version":"v1","sim_time_s":300,"steps_run":1}`), 2, 300, &prev); err != nil {
		t.Errorf("valid step: %v", err)
	}
	if err := validate("step", []byte(`{"version":"v1","sim_time_s":300,"steps_run":1}`), 2, 300, &prev); err == nil {
		t.Error("a step that did not advance was accepted")
	}
}

// TestSamplesValidateInScheduleOrder feeds step samples the way two
// connections report them, each in its own order, and requires the sim
// time check to follow the schedule.
func TestSamplesValidateInScheduleOrder(t *testing.T) {
	step := func(seq int, simT string) sampled {
		return sampled{ep: epIndex("step"), seq: seq, body: []byte(`{"version":"v1","sim_time_s":` + simT + `,"steps_run":1}`)}
	}
	o := &outcome{}
	validateSamples([]sampled{step(0, "300"), step(100, "30300"), step(50, "15300")}, 2, 300, o)
	if o.failed != 0 || o.attempted != 3 {
		t.Errorf("%d of %d samples failed", o.failed, o.attempted)
	}
	o = &outcome{}
	validateSamples([]sampled{step(0, "15300"), step(50, "300")}, 2, 300, o)
	if o.failed != 1 {
		t.Errorf("a step that went back in time passed: %d failures", o.failed)
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := pyQuartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median %v", got)
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	writeFile(t, bench, `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"m","better":"lower","bound":0.1}]}`)
	rec := func(path string, values ...float64) {
		for i, x := range values {
			r := record{Workload: "w", Seed: uint64(i), Result: result{Metrics: map[string]metric{"m": {Value: x}}}}
			if err := appendRecord(path, r); err != nil {
				t.Fatal(err)
			}
		}
		// A traced run does not count.
		if err := appendRecord(path, record{Workload: "w", Trace: 1, Result: result{Metrics: map[string]metric{"m": {Value: 1e9}}}}); err != nil {
			t.Fatal(err)
		}
	}
	a, near, far, noisy := filepath.Join(dir, "a"), filepath.Join(dir, "b"), filepath.Join(dir, "c"), filepath.Join(dir, "d")
	rec(a, 100, 101, 102)
	rec(near, 104, 103, 105)
	rec(far, 115, 114, 116)
	rec(noisy, 90, 101, 115)
	var out strings.Builder
	if ok, err := agree(bench, a, near, &out); err != nil || !ok {
		t.Errorf("medians 101 and 104 disagree (%v):\n%s", err, out.String())
	}
	if ok, err := agree(bench, a, far, &out); err != nil || ok {
		t.Errorf("medians 101 and 115 agree (%v):\n%s", err, out.String())
	}
	// The medians match, but the second set spreads 25%, past the bound.
	if ok, err := agree(bench, a, noisy, &out); err != nil || ok {
		t.Errorf("a set spreading past the bound was accepted (%v):\n%s", err, out.String())
	}
}

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.listed), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.listed[i].Name != d.name || c.listed[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, c.listed[i].Name, c.listed[i].Unit, d.name, d.unit)
			}
		}
	}
}

func TestReportNeedsEveryMetric(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b", "s"}}
	if _, err := report(outcome{attempted: 1}, defs, map[string]float64{"a": 1}); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := report(outcome{attempted: 1}, defs, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	res, err := report(outcome{attempted: 2, failed: 1}, defs, map[string]float64{"a": 1, "b": 2})
	if err != nil || res.Correct || res.Metrics["b"] != (metric{2, "s"}) {
		t.Errorf("report = %+v, %v", res, err)
	}
}
