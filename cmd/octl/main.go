// Command octl regenerates the paper's tables and figures from the
// simulation models through the parallel experiment runner. Run with
// no arguments for the full evaluation, or name specific experiments:
//
//	octl table1 table5 fig9
//	octl all -j 8
//	octl list
//	octl -tags paper
//	octl -json fig9 table5 > results.ndjson
//	octl -out artifacts/ all
//
// Flags (accepted before or after experiment names):
//
//	-j N            worker budget (default GOMAXPROCS): bounds the
//	                experiments in flight AND the simulation cells each
//	                experiment's internal sweeps fan out, all drawing
//	                from one shared process-wide budget — output is
//	                byte-identical at any N
//	-tags a,b       run the experiments carrying any of the tags
//	-json           emit NDJSON results on stdout instead of tables
//	-out dir        write one <name>.json + <name>.txt per experiment
//	-timeout d      per-experiment timeout (e.g. 30s; 0 = none)
//	-seed N         override every experiment's RNG seed (0 = calibrated)
//	-duration S     override simulated duration in seconds (0 = calibrated)
//	-metrics file   write the run's telemetry snapshot as JSON to file
//	-pprof addr     serve net/http/pprof on addr (e.g. localhost:6060)
//
// A failing experiment no longer aborts the run: octl runs everything,
// prints a failure summary, and exits non-zero at the end. A run
// summary footer (wall time, percentile experiment latencies) goes to
// stderr.
//
// Paper artifacts: table1 table2 table3 fig4 table5 table6
// power-savings stability fig9 fig10 fig11 fig12 fig13 tco-oversub
// fig15 fig16 table11 packing buffers capacity.
//
// Extensions: highperf wearbudget capping tank policies diurnal
// cooling fleetsim migration gpu-governor ablation-eq1 ablation-bec
// ablation-bursts.
//
// ASCII figure renderings: plot-fig12 plot-fig15 plot-fig16
// plot-diurnal.
//
// `octl list` prints the full registry with kinds and tags.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"immersionoc/internal/cli"
	"immersionoc/internal/experiments"
	"immersionoc/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	cli.Common // -j, -seed, -timeout, -metrics, -pprof

	tags     string
	jsonOut  bool
	outDir   string
	duration float64
}

// parseArgs accepts flags interleaved with experiment names
// (`octl all -j 8` and `octl -j 8 all` both work).
func parseArgs(args []string) (options, []string, error) {
	var c options
	fs := flag.NewFlagSet("octl", flag.ContinueOnError)
	c.Register(fs)
	fs.StringVar(&c.tags, "tags", "", "comma-separated tags to select experiments by")
	fs.BoolVar(&c.jsonOut, "json", false, "emit NDJSON results on stdout")
	fs.StringVar(&c.outDir, "out", "", "write per-experiment .json and .txt files to this directory")
	fs.Float64Var(&c.duration, "duration", 0, "override simulated duration in seconds (0 = calibrated defaults)")
	names, err := cli.ParseInterleaved(fs, args)
	if err != nil {
		return c, nil, err
	}
	if err := c.Validate(); err != nil {
		return c, nil, err
	}
	if c.duration < 0 {
		return c, nil, errors.New("-duration must be non-negative")
	}
	return c, names, nil
}

// selection resolves the command line into an ordered experiment list.
func selection(c options, names []string) ([]experiments.Experiment, error) {
	if c.tags != "" {
		if len(names) > 0 {
			return nil, fmt.Errorf("use either -tags or experiment names, not both")
		}
		tags := strings.Split(c.tags, ",")
		for i := range tags {
			tags[i] = strings.TrimSpace(tags[i])
		}
		sel := experiments.WithTags(tags...)
		if len(sel) == 0 {
			return nil, fmt.Errorf("no experiments carry tags %q", c.tags)
		}
		return sel, nil
	}
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return experiments.Tables(), nil
	}
	var sel []experiments.Experiment
	for _, n := range names {
		e, ok := experiments.Lookup(n)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q\navailable: %s",
				n, strings.Join(experiments.Names(), " "))
		}
		sel = append(sel, e)
	}
	return sel, nil
}

func run(args []string) int {
	c, names, err := parseArgs(args)
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "octl: %v\n", err)
		}
		return 2
	}
	if len(names) == 1 && names[0] == "list" {
		list(os.Stdout)
		return 0
	}
	sel, err := selection(c, names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "octl: %v\n", err)
		return 2
	}
	if c.outDir != "" {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "octl: %v\n", err)
			return 1
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if c.Pprof != "" {
		ln, err := cli.ServePprof("octl", c.Pprof, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "octl: %v\n", err)
			return 1
		}
		defer ln.Close()
	}

	// Stream results in submission order as they complete: workers
	// post indices on done, the loop below flushes the ready prefix.
	outcomes := make([]*runner.Outcome, len(sel))
	done := make(chan int, len(sel))
	cfg := runner.Config{
		Workers: c.Workers,
		Timeout: c.Timeout,
		Options: experiments.Options{Seed: c.Seed, DurationS: c.duration},
		OnDone: func(i int, o runner.Outcome) {
			outcomes[i] = &o
			done <- i
		},
	}
	reportCh := make(chan *runner.Report, 1)
	go func() { reportCh <- runner.Run(ctx, sel, cfg) }()

	failed := 0
	for next, received := 0, 0; received < len(sel); {
		<-done
		received++
		for next < len(sel) && outcomes[next] != nil {
			if !emit(c, *outcomes[next]) {
				failed++
			}
			next++
		}
	}
	report := <-reportCh
	fmt.Fprintf(os.Stderr, "octl: %s\n", report.Summary())
	if c.Metrics != "" {
		if err := writeMetrics(c.Metrics, report); err != nil {
			fmt.Fprintf(os.Stderr, "octl: metrics: %v\n", err)
			return 1
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "octl: %d of %d experiments failed:\n", failed, len(sel))
		for _, o := range report.Failed() {
			fmt.Fprintf(os.Stderr, "octl:   %s: %s\n", o.Name, firstLine(o.Err))
		}
		return 1
	}
	return 0
}

// emit prints or writes one outcome; it reports success.
func emit(c options, o runner.Outcome) bool {
	if !o.OK() {
		fmt.Fprintf(os.Stderr, "octl: %s: %s\n", o.Name, firstLine(o.Err))
		return false
	}
	if c.outDir != "" {
		if err := writeArtifacts(c.outDir, o); err != nil {
			fmt.Fprintf(os.Stderr, "octl: %s: %v\n", o.Name, err)
			return false
		}
		return true
	}
	if c.jsonOut {
		line, err := json.Marshal(o.Result)
		if err != nil {
			fmt.Fprintf(os.Stderr, "octl: %s: %v\n", o.Name, err)
			return false
		}
		fmt.Printf("%s\n", line)
		return true
	}
	fmt.Printf("== %s ==\n%s\n", o.Name, o.Result.Text())
	return true
}

// writeMetrics stores the run's telemetry snapshot as indented JSON.
func writeMetrics(path string, report *runner.Report) error {
	if report.Telemetry == nil {
		return fmt.Errorf("run collected no telemetry")
	}
	data, err := report.Telemetry.MarshalIndent()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeArtifacts stores <name>.json and <name>.txt under dir.
func writeArtifacts(dir string, o runner.Outcome) error {
	data, err := json.Marshal(o.Result)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, o.Name+".json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, o.Name+".txt"), []byte(o.Result.Text()), 0o644)
}

// list prints the registry: one line per experiment with kind and tags.
func list(w *os.File) {
	for _, e := range experiments.All() {
		fmt.Fprintf(w, "%-16s %-5s %s\n", e.Name, e.Kind, strings.Join(e.Tags, ","))
	}
}

// firstLine trims a (possibly multi-line, stack-carrying) error for
// the failure summary.
func firstLine(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i] + " …"
	}
	return s
}
