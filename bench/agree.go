package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// record is one run's result as -record appends it to a JSON-lines file.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

// benchmarkFile is the part of BENCHMARK.json -agree reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadRecords reads a record file into values[workload][metric], keeping
// untraced runs only.
func loadRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace != 0 {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// agree checks that, for every workload and end-to-end metric, the
// medians of two sets of runs differ by no more than the metric's bound,
// and that neither set's quartile spread exceeds it. It prints both
// medians and each set's spread.
func agree(benchPath, pathA, pathB string, w io.Writer) (bool, error) {
	b, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	c, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-18s %5s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "runs", "median A", "spread A", "median B", "spread B", "change", "bound")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			xa, xb := a[wl.Name][m.Name], c[wl.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-18s %-18s missing\n", wl.Name, m.Name)
				ok = false
				continue
			}
			ma, mb := median(xa), median(xb)
			change := (mb - ma) / ma
			verdict := ""
			if math.Abs(change) > m.Bound {
				verdict = "  DISAGREE"
			} else if m.Name != "setup_s" && max(spread(xa), spread(xb)) > m.Bound {
				// Set-up is measured a few times per run, so only its
				// median is held to the bound.
				verdict = "  TOO NOISY"
			}
			ok = ok && verdict == ""
			fmt.Fprintf(w, "%-18s %-18s %2d/%-2d %12.6g %7.1f%% %12.6g %7.1f%% %7.1f%% %5.0f%%%s\n",
				wl.Name, m.Name, len(xa), len(xb), ma, 100*spread(xa), mb, 100*spread(xb), 100*change, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

// spread is the distance between the first and third quartiles as a
// share of the median, with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := pyQuartiles(xs)
	return (q[2] - q[0]) / median(xs)
}

// pyQuartiles is statistics.quantiles(xs, n=4) with its default
// "exclusive" method.
func pyQuartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := len(s), len(s)+1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
