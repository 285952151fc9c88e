package telemetry

import (
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every operation through a nil registry/scope/metric must be a
	// silent no-op: this is the "telemetry off" path the hot loops take.
	var r *Registry
	s := r.Scope("x")
	if s != nil {
		t.Fatal("nil registry handed out a live scope")
	}
	if got := Off.Scope("x"); got != nil {
		t.Fatal("Off registry handed out a live scope")
	}
	s.Counter("c").Inc()
	s.Counter("c").Add(5)
	s.Gauge("g").Set(3)
	s.Gauge("g").SetMax(9)
	s.Histogram("h", LatencyBuckets).Observe(0.5)
	if s.Counter("c").Value() != 0 || s.Gauge("g").Value() != 0 {
		t.Fatal("nil metrics returned non-zero values")
	}
	if s.Histogram("h", nil).Count() != 0 || s.Histogram("h", nil).Quantile(0.5) != 0 {
		t.Fatal("nil histogram returned non-zero values")
	}
	if r.Snapshot() != nil || Off.Snapshot() != nil {
		t.Fatal("disabled registry produced a snapshot")
	}
	if s.Name() != "" {
		t.Fatal("nil scope has a name")
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("run")
	c := s.Counter("requests")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if s.Counter("requests") != c {
		t.Fatal("counter handle not stable across lookups")
	}

	g := s.Gauge("power_w")
	g.Set(120.5)
	if g.Value() != 120.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.SetMax(100) // below current → keep
	if g.Value() != 120.5 {
		t.Fatalf("SetMax lowered the gauge to %v", g.Value())
	}
	g.SetMax(150)
	if g.Value() != 150 {
		t.Fatalf("SetMax = %v, want 150", g.Value())
	}
	neg := s.Gauge("neg")
	neg.Set(-5)
	neg.SetMax(-10) // below current → keep
	if neg.Value() != -5 {
		t.Fatalf("SetMax on negative gauge = %v, want -5", neg.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Scope("run").Histogram("lat", []float64{1, 2, 4, 8})
	for i := 0; i < 100; i++ {
		h.Observe(1.5) // all in the (1,2] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-150) > 1e-9 {
		t.Fatalf("sum = %v", got)
	}
	// Interpolated quantiles stay inside the bucket.
	for _, q := range []float64{0.1, 0.5, 0.95} {
		v := h.Quantile(q)
		if v < 1 || v > 2 {
			t.Fatalf("q%.2f = %v, outside (1,2]", q, v)
		}
	}
	// Overflow lands in the +Inf bucket and reports the last bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 8 {
		t.Fatalf("overflow quantile = %v, want last bound 8", got)
	}
	if empty := reg.Scope("run").Histogram("empty", []float64{1}); empty.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	s := reg.Scope("fig12")
	s.Counter("requests").Add(42)
	s.Gauge("power_w").Set(130)
	s.Histogram("sojourn_s", []float64{0.01, 0.1, 1}).Observe(0.05)
	reg.Scope("runner").Counter("attempts").Inc()

	snap := reg.Snapshot()
	if snap == nil {
		t.Fatal("nil snapshot from live registry")
	}
	fig := snap.Scopes["fig12"]
	if fig.Counters["requests"] != 42 || fig.Gauges["power_w"] != 130 {
		t.Fatalf("snapshot values wrong: %+v", fig)
	}
	hs := fig.Histograms["sojourn_s"]
	if hs.Count != 1 || hs.Mean != 0.05 {
		t.Fatalf("histogram snapshot: %+v", hs)
	}
	if len(hs.Counts) != len(hs.Bounds)+1 {
		t.Fatalf("bucket schema: %d counts for %d bounds", len(hs.Counts), len(hs.Bounds))
	}

	data, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Scopes["runner"].Counters["attempts"] != 1 {
		t.Fatal("round-trip lost the runner scope")
	}
}

func TestHistAccum(t *testing.T) {
	reg := NewRegistry()
	h := reg.Scope("run").Histogram("lat", []float64{1, 2, 4})
	a := h.Accum()
	a.Observe(0.5)
	a.Observe(1.5)
	a.Observe(100)
	if h.Count() != 0 {
		t.Fatalf("observations visible before Flush: count = %d", h.Count())
	}
	a.Flush()
	if h.Count() != 3 {
		t.Fatalf("count = %d after Flush, want 3", h.Count())
	}
	if got := h.Sum(); math.Abs(got-102) > 1e-9 {
		t.Fatalf("sum = %v after Flush, want 102", got)
	}
	a.Flush() // empty flush is a no-op
	if h.Count() != 3 {
		t.Fatalf("count = %d after empty Flush, want 3", h.Count())
	}
	a.Observe(3)
	a.Flush()
	if h.Count() != 4 || math.Abs(h.Sum()-105) > 1e-9 {
		t.Fatalf("count = %d sum = %v after second batch, want 4/105", h.Count(), h.Sum())
	}

	// Accumulator and direct Observe agree on bucketing.
	direct := reg.Scope("run").Histogram("direct", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 100, 3} {
		direct.Observe(v)
	}
	for q := 0.0; q <= 1; q += 0.25 {
		if a, b := h.Quantile(q), direct.Quantile(q); a != b {
			t.Fatalf("q%.2f: accum %v != direct %v", q, a, b)
		}
	}

	var nilAcc *HistAccum
	nilAcc.Observe(1)
	nilAcc.Flush()
	var nilHist *Histogram
	if nilHist.Accum() != nil {
		t.Fatal("nil histogram handed out a live accumulator")
	}
}

func TestConcurrentWrites(t *testing.T) {
	// 8 goroutines hammer the same handles and the lazy-creation maps;
	// meaningful under -race.
	reg := NewRegistry()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := reg.Scope("shared")
			c := s.Counter("n")
			g := s.Gauge("max")
			h := s.Histogram("lat", LatencyBuckets)
			for i := 0; i < per; i++ {
				c.Inc()
				g.SetMax(float64(w*per + i))
				h.Observe(float64(i%50) / 1000)
				if i%500 == 0 {
					reg.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := reg.Scope("shared")
	if got := s.Counter("n").Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := s.Histogram("lat", LatencyBuckets).Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := s.Gauge("max").Value(); got != workers*per-1 {
		t.Fatalf("gauge max = %v, want %d", got, workers*per-1)
	}
}

// The micro-benchmarks quantify the per-operation cost backing the
// < 2% evaluation overhead budget: one atomic op when collection is
// on, a nil-receiver branch when it is off.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Scope("bench").Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkCounterHandles contrasts the two ways to reach a metric:
// resolving it by name on every observation versus holding the handle,
// which is what every hot loop (queueing's SetTelemetry, dcsim's fleet
// step) does. The held row must stay at 0 allocs/op — handle
// resolution happens once, before the timer starts.
func BenchmarkCounterHandles(b *testing.B) {
	b.Run("lookup", func(b *testing.B) {
		s := NewRegistry().Scope("bench")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Counter("c").Inc()
		}
	})
	b.Run("held", func(b *testing.B) {
		c := NewRegistry().Scope("bench").Counter("c")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Scope("bench").Gauge("g")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Scope("bench").Histogram("h", LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) / 1e4)
	}
}

func BenchmarkHistAccumObserve(b *testing.B) {
	h := NewRegistry().Scope("bench").Histogram("h", LatencyBuckets)
	a := h.Accum()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Observe(float64(i%1000) / 1e4)
	}
	a.Flush()
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1)
	}
}
