package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDigestBasics(t *testing.T) {
	d := NewDigest()
	if d.Count() != 0 || d.Mean() != 0 || d.Quantile(0.5) != 0 {
		t.Fatal("empty digest not zero-valued")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		d.Add(v)
	}
	if d.Count() != 5 {
		t.Fatalf("count %d", d.Count())
	}
	if d.Mean() != 3 {
		t.Fatalf("mean %v", d.Mean())
	}
	if d.Min() != 1 || d.Max() != 5 {
		t.Fatalf("min/max %v/%v", d.Min(), d.Max())
	}
	if got := d.Quantile(0.5); got != 3 {
		t.Fatalf("median %v", got)
	}
	if got := d.Quantile(0); got != 1 {
		t.Fatalf("q0 %v", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Fatalf("q1 %v", got)
	}
}

func TestDigestInterpolation(t *testing.T) {
	d := NewDigest()
	d.Add(0)
	d.Add(10)
	if got := d.Quantile(0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("q0.25 = %v, want 2.5", got)
	}
}

func TestDigestAddAfterQuery(t *testing.T) {
	d := NewDigest()
	d.Add(1)
	_ = d.Quantile(0.5)
	d.Add(0)
	if got := d.Min(); got != 0 {
		t.Fatalf("min after re-add %v", got)
	}
}

func TestDigestReset(t *testing.T) {
	d := NewDigest()
	d.Add(4)
	d.Reset()
	if d.Count() != 0 || d.Sum() != 0 {
		t.Fatal("reset did not clear digest")
	}
}

func TestDigestQuantileOutOfRangePanics(t *testing.T) {
	d := NewDigest()
	d.Add(1)
	// NaN fails both comparisons of a q < 0 || q > 1 check.
	for _, q := range []float64{-0.1, 1.5, math.NaN()} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "out of [0,1]") {
					t.Fatalf("q=%v: recovered %q, want the out-of-range panic", q, msg)
				}
			}()
			d.Quantile(q)
		}()
	}
}

// TestDigestMinMaxMatchQuantileEnds: Min and Max are Quantile(0) and
// Quantile(1) in sort.Float64s order, where NaNs sort first, so NaNs
// make the minimum NaN.
func TestDigestMinMaxMatchQuantileEnds(t *testing.T) {
	d := NewDigest()
	for _, v := range []float64{math.NaN(), 1, 2, math.NaN(), 3} {
		d.Add(v)
	}
	if lo, q0 := d.Min(), d.Quantile(0); !math.IsNaN(lo) || !math.IsNaN(q0) {
		t.Fatalf("Min() = %v, Quantile(0) = %v, want NaN", lo, q0)
	}
	if hi, q1 := d.Max(), d.Quantile(1); hi != 3 || q1 != 3 {
		t.Fatalf("Max() = %v, Quantile(1) = %v, want 3", hi, q1)
	}
}

// Property: digest quantiles bracket the data and are monotone in q.
func TestDigestQuantileProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		d := NewDigest()
		for _, v := range vals {
			d.Add(v)
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1} {
			got := d.Quantile(q)
			if got < sorted[0]-1e-9 || got > sorted[len(sorted)-1]+1e-9 {
				return false
			}
			if got < prev-1e-9 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDigestChunkedMatchesFlatSort is the differential gate for the
// chunked storage and the selection behind every query: across chunk
// boundaries (tiered sizes included), sizes on both sides of
// 16·selectSample and adversarial layouts, every quantile and
// Min/Max must equal indexing one flat buffer sorted with
// sort.Float64s (NaNs first, NaN matching NaN), with adds interleaved
// after queries.
func TestDigestChunkedMatchesFlatSort(t *testing.T) {
	r := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return r
	}
	next := func() float64 { return float64(rnd()%1000000) / 997.0 }
	layouts := []struct {
		name string
		gen  func(i int) float64
	}{
		{"random", func(int) float64 { return next() }},
		{"all-equal", func(int) float64 { return 42 }},
		{"five-distinct", func(int) float64 { return float64(rnd() % 5) }},
		{"ascending", func(i int) float64 { return float64(i) }},
		{"descending", func(i int) float64 { return -float64(i) }},
		// Every sampling stride below is even (16, then 18 at 300k),
		// so every sampled position holds 500, mid-range of the other
		// values: the bracket collapses onto that block and must widen
		// down for the ranks below it and up for those above.
		{"stride-equal", func(i int) float64 {
			if i%2 == 0 {
				return 500
			}
			return next()
		}},
		{"nan-mixed", func(int) float64 {
			if rnd()%10 == 0 {
				return math.NaN()
			}
			return next()
		}},
		{"inf-zero", func(int) float64 {
			switch rnd() % 6 {
			case 0:
				return math.Inf(-1)
			case 1:
				return math.Inf(1)
			case 2:
				return math.Copysign(0, -1)
			case 3:
				return 0
			}
			return next() - 500
		}},
	}
	same := func(a, b float64) bool { return a == b || (a != a && b != b) }
	for _, l := range layouts {
		d := NewDigest()
		var flat []float64
		check := func() {
			sorted := append([]float64(nil), flat...)
			sort.Float64s(sorted)
			qs := []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
			// Half-ranks either side of the end of the NaN block
			// interpolate from NaN into a number.
			nan := 0
			for nan < len(sorted) && math.IsNaN(sorted[nan]) {
				nan++
			}
			for _, i := range []int{nan - 1, nan} {
				if i >= 0 && i < len(sorted)-1 {
					qs = append(qs, (float64(i)+0.5)/float64(len(sorted)-1))
				}
			}
			for _, q := range qs {
				pos := q * float64(len(sorted)-1)
				lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
				want := sorted[lo]
				if lo != hi {
					frac := pos - float64(lo)
					want = sorted[lo]*(1-frac) + sorted[hi]*frac
				}
				if got := d.Quantile(q); !same(got, want) {
					t.Fatalf("%s n=%d Quantile(%v) = %v, want %v", l.name, len(sorted), q, got, want)
				}
			}
			if !same(d.Min(), sorted[0]) || !same(d.Max(), sorted[len(sorted)-1]) {
				t.Fatalf("%s n=%d min/max %v/%v, want %v/%v",
					l.name, len(sorted), d.Min(), d.Max(), sorted[0], sorted[len(sorted)-1])
			}
		}
		// Past 1Ki+2Ki+4Ki the digest spans four chunks of three size
		// classes; 300k is past 16·selectSample, where the sample size
		// stops growing. Querying mid-stream checks adds after queries.
		for _, n := range []int{1, 100, 1500, 4000, 9000, 70000, 300000} {
			for len(flat) < n {
				v := l.gen(len(flat))
				d.Add(v)
				flat = append(flat, v)
			}
			check()
		}
		if len(d.chunks) < 4 {
			t.Fatalf("%s: expected multi-chunk storage, got %d chunks", l.name, len(d.chunks))
		}
	}
}

// TestDigestResetKeepsChunks: a warmed digest must record a same-sized
// run after Reset without growing its chunk list or allocating.
func TestDigestResetKeepsChunks(t *testing.T) {
	d := NewDigest()
	fill := func() {
		for i := 0; i < 5000; i++ {
			d.Add(float64(i%97) * 1.5)
		}
	}
	fill()
	chunks := len(d.chunks)
	d.Reset()
	if d.Count() != 0 || d.Sum() != 0 {
		t.Fatal("reset did not clear digest")
	}
	if got := testing.AllocsPerRun(5, func() { fill(); d.Reset() }); got != 0 {
		t.Fatalf("warm fill allocated %.1f times", got)
	}
	if len(d.chunks) != chunks {
		t.Fatalf("chunk list changed across Reset: %d -> %d", chunks, len(d.chunks))
	}
}

// TestDigestReleaseRecycles: released chunks come back from the pool
// for the next digest instead of the allocator.
func TestDigestReleaseRecycles(t *testing.T) {
	d := NewDigest()
	for i := 0; i < 3000; i++ {
		d.Add(float64(i))
	}
	if got := d.Quantile(0.5); got != 1499.5 {
		t.Fatalf("median %v, want 1499.5", got)
	}
	d.Release()
	if d.Count() != 0 || len(d.chunks) != 0 {
		t.Fatalf("release left count=%d chunks=%d", d.Count(), len(d.chunks))
	}
	// The digest stays usable after Release.
	d.Add(7)
	if d.Count() != 1 || d.Quantile(1) != 7 {
		t.Fatalf("digest unusable after Release: count=%d", d.Count())
	}
}

// TestDigestReserveIsWarm: Reserve(n) must make n adds chunk-acquisition
// free.
func TestDigestReserveIsWarm(t *testing.T) {
	d := NewDigest()
	d.Reserve(10000)
	chunks := len(d.chunks)
	if chunks == 0 {
		t.Fatal("Reserve acquired no chunks")
	}
	for i := 0; i < 10000; i++ {
		d.Add(float64(i))
	}
	if len(d.chunks) != chunks {
		t.Fatalf("adds within the reservation grew chunks %d -> %d", chunks, len(d.chunks))
	}
	if d.Count() != 10000 {
		t.Fatalf("count %d", d.Count())
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(10)
	w.Add(0, 1)
	w.Add(5, 2)
	w.Add(12, 3) // evicts t=0 (12-10=2 > 0)
	if w.Len() != 2 {
		t.Fatalf("len %d, want 2", w.Len())
	}
	if got := w.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("mean %v, want 2.5", got)
	}
	if w.Last() != 3 {
		t.Fatalf("last %v", w.Last())
	}
}

func TestWindowOrderPanics(t *testing.T) {
	w := NewWindow(10)
	w.Add(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order add did not panic")
		}
	}()
	w.Add(4, 1)
}

func TestWindowEmptyMean(t *testing.T) {
	if NewWindow(5).Mean() != 0 {
		t.Fatal("empty window mean != 0")
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 1)
	s.Add(10, 2)
	s.Add(20, 3)
	cases := []struct{ t, want float64 }{
		{-1, 0}, {0, 1}, {5, 1}, {10, 2}, {15, 2}, {20, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Fatalf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestSeriesIntegral(t *testing.T) {
	s := NewSeries("vm")
	s.Add(0, 1)
	s.Add(10, 3)
	// [0,10): 1, [10,20]: 3 → integral over [0,20] = 10 + 30 = 40.
	if got := s.Integral(0, 20); math.Abs(got-40) > 1e-9 {
		t.Fatalf("integral %v, want 40", got)
	}
}

func TestSeriesIntegralPartial(t *testing.T) {
	s := NewSeries("x")
	s.Add(0, 2)
	s.Add(10, 4)
	if got := s.Integral(5, 15); math.Abs(got-(5*2+5*4)) > 1e-9 {
		t.Fatalf("partial integral %v, want 30", got)
	}
}

func TestSeriesMeanMax(t *testing.T) {
	s := NewSeries("x")
	if s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty series stats not 0")
	}
	s.Add(0, -5)
	s.Add(1, 7)
	if s.Max() != 7 {
		t.Fatalf("max %v", s.Max())
	}
	if s.Mean() != 1 {
		t.Fatalf("mean %v", s.Mean())
	}
}

// quantileSink keeps the benchmarked query from being optimized away.
var quantileSink float64

// BenchmarkDigestQuantile measures P95 of a freshly filled
// 1Mi-sample digest. Each op refills the digest with the timer
// stopped, so no query reuses work from the one before.
func BenchmarkDigestQuantile(b *testing.B) {
	vals := make([]float64, 1<<20)
	r := uint64(0x9e3779b97f4a7c15)
	for i := range vals {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		// Exponential service-time-like latencies.
		vals[i] = -math.Log(float64(r>>11+1) / (1 << 53))
	}
	d := NewDigest()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d.Reset()
		for _, v := range vals {
			d.Add(v)
		}
		b.StartTimer()
		quantileSink = d.P95()
	}
}
