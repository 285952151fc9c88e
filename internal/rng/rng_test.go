package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent's outputs.
	p := New(7)
	p.Uint64() // advance past the split draw
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("child replays parent at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	n := 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(11)
	rate := 4.0
	sum := 0.0
	n := 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / float64(n)
	if math.Abs(mean-1/rate) > 0.01/rate*4 {
		t.Fatalf("exp mean %v, want ~%v", mean, 1/rate)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	n := 200000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(ss/float64(n) - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("norm mean %v, want ~10", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("norm stddev %v, want ~2", std)
	}
}

func TestLogNormalMoments(t *testing.T) {
	r := New(17)
	n := 400000
	var sum, ss float64
	for i := 0; i < n; i++ {
		v := r.LogNormal(5, 0.8)
		if v <= 0 {
			t.Fatalf("lognormal non-positive: %v", v)
		}
		sum += v
		ss += v * v
	}
	mean := sum / float64(n)
	cv := math.Sqrt(ss/float64(n)-mean*mean) / mean
	if math.Abs(mean-5) > 0.1 {
		t.Fatalf("lognormal mean %v, want ~5", mean)
	}
	if math.Abs(cv-0.8) > 0.05 {
		t.Fatalf("lognormal cv %v, want ~0.8", cv)
	}
}

func TestLogNormalZeroCV(t *testing.T) {
	r := New(1)
	if v := r.LogNormal(3, 0); v != 3 {
		t.Fatalf("cv=0 lognormal = %v, want 3", v)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(19)
	xmin := 2.0
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(xmin, 1.5); v < xmin {
			t.Fatalf("pareto below xmin: %v", v)
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(23)
	hits := 0
	n := 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("bernoulli rate %v, want ~0.3", rate)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(29)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		n := 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(mean)
		}
		got := float64(sum) / float64(n)
		if math.Abs(got-mean) > mean*0.05+0.05 {
			t.Fatalf("poisson(%v) mean %v", mean, got)
		}
	}
}

func TestPoissonZero(t *testing.T) {
	if New(1).Poisson(0) != 0 {
		t.Fatal("Poisson(0) != 0")
	}
}

func TestEmpiricalDistribution(t *testing.T) {
	r := New(31)
	weights := []float64{1, 3, 0, 6}
	counts := make([]int, 4)
	n := 100000
	for i := 0; i < n; i++ {
		counts[r.Empirical(weights)]++
	}
	if counts[2] != 0 {
		t.Fatalf("zero-weight bucket selected %d times", counts[2])
	}
	if got := float64(counts[3]) / float64(n); math.Abs(got-0.6) > 0.01 {
		t.Fatalf("bucket 3 rate %v, want ~0.6", got)
	}
	if got := float64(counts[0]) / float64(n); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("bucket 0 rate %v, want ~0.1", got)
	}
}

func TestEmpiricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-total Empirical did not panic")
		}
	}()
	New(1).Empirical([]float64{0, 0})
}
