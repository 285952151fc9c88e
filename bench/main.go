// Command bench is the repository benchmark: four workloads that
// together reach every layer of the system, each reporting the same
// end-to-end metrics, plus a traced run that attributes time to layers.
// See README.md for why each workload exists and what each metric means.
//
//	bash bench/run.sh --workload serve-read-10k --seed 0 --seconds 20 --trace 0
//	bash bench/run.sh --workload fleet-hyperscale --trace 1 --spans spans.jsonl
//	bash bench/run.sh -agree a.jsonl b.jsonl
//
// Without -workload it runs all four, each in a fresh child process.
// The last line of standard output is the run's result as one JSON
// object; the lines before it print every metric by name and unit.
// Exit codes: 0 a result was printed (its "correct" field says whether
// every check passed), 1 the run could not finish, 2 a usage error.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

var workloads = []string{"serve-read-10k", "serve-write-100k", "fleet-hyperscale", "paper-eval"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", ")+" (empty runs all, each in a fresh child process)")
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "1 makes the traced run: an untraced pass, then a traced pass reporting the per-layer metrics")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	recordPath := fs.String("record", "", "append each run's result to this JSON-lines file")
	agreeRuns := fs.Bool("agree", false, "compare two record files, -agree a.jsonl b.jsonl, against the bounds in -benchmark")
	benchPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition -agree reads the bounds from")
	goldenPath := fs.String("update-golden", "", "write this run's result digests into the golden file at this path, replacing those of the same seeds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *agreeRuns:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -agree takes two record files")
			return 2
		}
		ok, err := agree(*benchPath, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	case *workload == "":
		return runAll(args, stdout, stderr)
	}
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	if !known {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
		return 2
	}
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *workload, *seed))
	}

	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, *spans, *goldenPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *workload, err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if *recordPath != "" {
		if err := appendRecord(*recordPath, record{Workload: *workload, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := res.print(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// pass is one measured pass of a workload.
type pass interface {
	endToEnd(v map[string]float64)
	// summary fills the bench.* metrics that describe the pass as a
	// whole: sample count, throughput at saturation and the latency
	// tails. They repeat too poorly on a shared host to carry a bound, so
	// they are reported per layer, from the traced command's untraced
	// pass.
	summary(v map[string]float64)
	perLayer(v map[string]float64)
}

// runPass makes one pass. traced is whether the command is the traced
// one; only that command measures serving capacity, so an untraced run
// spends all of its seconds on what its end-to-end metrics measure.
func runPass(name string, seed uint64, seconds float64, traced bool, tr *tracer, o *outcome) (pass, error) {
	switch name {
	case "fleet-hyperscale":
		return runFleet(fleetConfig(), golden.Fleet, seed, seconds, tr, o)
	case "paper-eval":
		return runEval(evalNames, golden.Eval, seed, seconds, tr, o)
	default:
		return runServe(serveSpecs[name], seed, seconds, traced, tr, o)
	}
}

// runWorkload makes an untraced pass and reports its end-to-end metrics,
// or, traced, follows it with a traced pass and reports the per-layer
// metrics, the tracing overhead among them.
func runWorkload(name string, seed uint64, seconds float64, traced bool, spansPath, goldenPath string) (result, error) {
	o := &outcome{}
	plain, err := runPass(name, seed, seconds, traced, nil, o)
	if err != nil {
		return result{}, err
	}
	if goldenPath != "" {
		f, _ := plain.(*fleetResult)
		e, _ := plain.(*evalResult)
		if err := updateGolden(goldenPath, seed, f, e); err != nil {
			return result{}, err
		}
	}
	v := map[string]float64{}
	if !traced {
		plain.endToEnd(v)
		return report(*o, endToEnd, v)
	}

	tr := newTracer()
	tp, err := runPass(name, seed, seconds, true, tr, o)
	if err != nil {
		return result{}, err
	}
	checkTracedDigests(plain, tp, o)
	for _, d := range perLayer {
		v[d.name] = 0
	}
	tp.perLayer(v)
	plain.summary(v)
	if v["go.rss_peak_mb"], err = vmHWMMB(); err != nil {
		return result{}, err
	}
	pu, pt := map[string]float64{}, map[string]float64{}
	plain.endToEnd(pu)
	tp.endToEnd(pt)
	v["bench.trace_overhead_pct"] = 100 * (pt["p50_ms"]/pu["p50_ms"] - 1)
	if err := tr.write(spansPath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "bench: spans written to %s\n", spansPath)
	return report(*o, perLayer, v)
}

// checkTracedDigests requires the traced pass to compute exactly what the
// untraced pass computed, wherever both ran the same input.
func checkTracedDigests(plain, traced pass, o *outcome) {
	switch p := plain.(type) {
	case *fleetResult:
		td := traced.(*fleetResult).digests()
		for s, d := range p.digests() {
			if t, ok := td[s]; ok {
				o.check(t == d, "fleet trace seed %d: traced digest %s, untraced %s", s, t, d)
			}
		}
	case *evalResult:
		td := traced.(*evalResult).digests
		for n, d := range p.digests {
			o.check(td[n] == d, "%s: traced digest %s, untraced %s", n, td[n], d)
		}
	}
}

// runAll runs every workload in a fresh child process with the same
// flags, forwarding each child's output.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	var summary []string
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w)...)
		cmd.Stderr = stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "== %s\n", w)
		last := ""
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w, err)
			code = 1
			continue
		}
		summary = append(summary, fmt.Sprintf("%-18s %s", w, last))
	}
	fmt.Fprintln(stdout, "== summary")
	for _, s := range summary {
		fmt.Fprintln(stdout, s)
	}
	return code
}
