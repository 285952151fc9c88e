package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and the unit it is reported in.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics an untraced run reports, on every workload.
// p50_ms is over the workload's own unit of work: a request for the
// serving workloads, a control step for fleet-hyperscale and a pass over
// the eight experiments for paper-eval (see README.md). Tails, throughput
// and memory repeat too poorly on a shared host to carry a bound; they
// are per-layer bench.* and go.* metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
}

// evalNames are the paper-eval experiments, in submission order.
var evalNames = []string{"fig12", "fig13", "fig15", "table11", "diurnal", "policies", "ablation-eq1", "ablation-bursts"}

// endpoints are the ocd routes the serving workloads call.
var endpoints = []string{"filter", "prioritize", "status", "metrics", "place", "remove", "overclock", "step"}

// readEndpoints answer from the published snapshot; their response size
// is reported per layer.
var readEndpoints = endpoints[:4]

// perLayer lists the metrics a traced run reports, on every workload. A
// layer the workload does not reach reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"http.self_us.p50", "us"}, {"http.self_us.p99", "us"}}
	for _, e := range endpoints {
		defs = append(defs,
			metricDef{"ocd." + e + ".self_us.p50", "us"},
			metricDef{"ocd." + e + ".self_us.p99", "us"},
			metricDef{"ocd." + e + ".count", "count"})
	}
	for _, e := range readEndpoints {
		defs = append(defs, metricDef{"ocd." + e + ".resp_bytes", "bytes"})
	}
	defs = append(defs,
		metricDef{"placement.evaluate_us.p50", "us"},
		metricDef{"placement.evaluate.count", "count"},
		metricDef{"placement.grant_ratio", "ratio"})
	for _, r := range denyReasons {
		defs = append(defs, metricDef{"placement.deny." + r, "count"})
	}
	defs = append(defs,
		metricDef{"placement.decide_ms.p50", "ms"},
		metricDef{"placement.offers_per_step", "count"},
		metricDef{"placement.granted_per_step", "count"},
		metricDef{"placement.cancelled_per_step", "count"},
		metricDef{"dcsim.step_ms.p50", "ms"},
		metricDef{"dcsim.step_ms.p90", "ms"},
		metricDef{"dcsim.phase1_ms.p50", "ms"},
		metricDef{"dcsim.phase2_ms.p50", "ms"},
		metricDef{"dcsim.new_s", "s"},
		metricDef{"dcsim.snapshot_step_ms.p50", "ms"},
		metricDef{"vm.generate_s", "s"},
		metricDef{"cluster.replay_ms.p50", "ms"},
		metricDef{"cluster.events_per_step", "count"},
		metricDef{"cluster.placed_ratio", "ratio"},
		metricDef{"cow.chunks_per_step_publish", "count"},
		metricDef{"cow.chunk_reuse_ratio", "ratio"})
	for _, n := range evalNames {
		defs = append(defs, metricDef{"experiments." + n + ".wall_s", "s"})
	}
	return append(defs,
		metricDef{"sim.events", "count"},
		metricDef{"sim.host_ns_per_event", "ns"},
		metricDef{"queueing.requests", "count"},
		metricDef{"queueing.host_ns_per_request", "ns"},
		metricDef{"sweep.cells", "count"},
		metricDef{"sweep.cell_wall_s.p50", "s"},
		metricDef{"sweep.utilization", "ratio"},
		metricDef{"go.alloc_mb", "MB"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_p99_us", "us"},
		metricDef{"go.rss_peak_mb", "MB"},
		metricDef{"bench.samples", "count"},
		metricDef{"bench.throughput_per_s", "1/s"},
		metricDef{"bench.p95_ms", "ms"},
		metricDef{"bench.p99_ms", "ms"},
		metricDef{"bench.step_p50_ms", "ms"},
		metricDef{"bench.gen_late_p99_us", "us"},
		metricDef{"bench.backlog_s", "s"},
		metricDef{"bench.trace_overhead_pct", "%"})
}()

// denyReasons are the placement.Reason values a grant query can be
// denied with.
var denyReasons = []string{"eq1_threshold", "tank_budget", "risk_budget", "feeder_cap", "not_overclockable"}

// minBeyond is how many samples must lie above a reported percentile:
// with fewer, the percentile is one or two outliers, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of ascending samples, or
// 0 when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// supported reports whether n samples leave at least minBeyond above the
// nearest-rank q-quantile.
func supported(n int, q float64) bool {
	return n-int(math.Ceil(q*float64(n))) >= minBeyond
}

// tail is the q-quantile of ascending samples. When fewer than minBeyond
// samples lie beyond it, it says so on standard error: such a percentile
// is a handful of outliers, not a tail.
func tail(name string, sorted []float64, q float64) float64 {
	if len(sorted) > 0 && !supported(len(sorted), q) {
		fmt.Fprintf(os.Stderr, "bench: %s rests on %d samples; fewer than %d lie beyond it\n", name, len(sorted), minBeyond)
	}
	return quantile(sorted, q)
}

// sortedCopy returns the samples in ascending order without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the median of unsorted samples as Python's statistics.median
// computes it: the middle sample, or the mean of the middle two of an
// even count; 0 when there are none. Every reported p50 is this median.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is the outcome of one workload run: the last line of standard
// output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome accumulates a run's work and failures. Each failure is logged
// to standard error with its reason.
type outcome struct {
	attempted, failed int
}

func (o *outcome) fail(format string, a ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "bench: FAIL: "+format+"\n", a...)
}

// check counts a failure when ok is false.
func (o *outcome) check(ok bool, format string, a ...any) {
	if !ok {
		o.fail(format, a...)
	}
}

// report renders values for defs into a result; a def with no value is
// an error, as is a value no def names.
func report(o outcome, defs []metricDef, values map[string]float64) (result, error) {
	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		for name := range values {
			if _, ok := res.Metrics[name]; !ok {
				return res, fmt.Errorf("metric %s is not declared", name)
			}
		}
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no work attempted")
	}
	return res, nil
}

// print writes every metric as "name value unit" in declaration order,
// then the result as one JSON line.
func (r result) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14s %s\n", d.name, strconv.FormatFloat(r.Metrics[d.name].Value, 'g', 8, 64), d.unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// vmHWMMB reads the process's peak resident set size in MB. It is a
// per-layer metric: it lands wherever a collection happens to catch the
// heap, and paper-eval's swung between about 215 and 285 MB from run to
// run.
func vmHWMMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// goStats samples the runtime counters the go.* per-layer metrics are
// deltas of.
type goStats struct {
	allocBytes, gcCycles uint64
	pauses               *metrics.Float64Histogram
}

var goSampleNames = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles", "/sched/pauses/total/gc:seconds"}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[2].Value.Float64Histogram()
	}
	return g
}

// goDelta fills the go.* metrics with what happened between two samples.
func goDelta(before, after goStats, v map[string]float64) {
	v["go.alloc_mb"] = float64(after.allocBytes-before.allocBytes) / (1 << 20)
	v["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
	v["go.gc_pause_p99_us"] = 0
	if before.pauses == nil || after.pauses == nil || len(before.pauses.Counts) != len(after.pauses.Counts) {
		return
	}
	var total uint64
	delta := make([]uint64, len(after.pauses.Counts))
	for i := range delta {
		delta[i] = after.pauses.Counts[i] - before.pauses.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= rank {
			// Report the bucket's upper bound (its lower one when the
			// bucket is unbounded above).
			hi := after.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.pauses.Buckets[i]
			}
			v["go.gc_pause_p99_us"] = hi * 1e6
			return
		}
	}
}
