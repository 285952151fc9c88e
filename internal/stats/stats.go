// Package stats provides the streaming statistics used throughout the
// experiments: exact percentile digests for latency distributions,
// rolling time-windowed averages for the auto-scaler's utilization
// monitors, and simple time-series recording for figure regeneration.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Digest sample storage is chunked: samples append into fixed-size
// blocks instead of one contiguous slice, so a digest holding tens of
// millions of samples never doubles-and-copies a GB-scale buffer, and
// blocks recycle through a package-level pool across harness
// replications. Chunk sizes tier up from chunkMinFloats to
// chunkMaxFloats (doubling per chunk) so small digests stay small
// while large ones amortize to one 512 KiB block per 64Ki samples.
const (
	chunkMinShift = 10 // 1Ki floats = 8 KiB
	chunkMaxShift = 16 // 64Ki floats = 512 KiB
	chunkClasses  = chunkMaxShift - chunkMinShift + 1
)

// chunkPools recycles sample blocks by size class. Pooled blocks are
// plain capacity: length is reset on acquire. sync.Pool keeps this
// safe under the fleet simulator's concurrent shards.
var chunkPools [chunkClasses]sync.Pool

// chunkClass returns the size class of the i-th chunk of a digest.
func chunkClass(i int) int {
	if i >= chunkClasses {
		return chunkClasses - 1
	}
	return i
}

func acquireChunk(class int) []float64 {
	if c, ok := chunkPools[class].Get().([]float64); ok {
		return c[:0]
	}
	return make([]float64, 0, 1<<(chunkMinShift+class))
}

// Digest accumulates samples and answers percentile queries exactly.
// It is intended for simulation-scale sample counts (millions), where
// keeping every sample is cheap and exactness keeps the reproduced
// tables stable across runs. Storage is a list of pooled fixed-size
// chunks that queries only read: each query selects its order
// statistics in expected linear time (see orderStats), so results are
// identical to indexing one flat buffer sorted with sort.Float64s.
type Digest struct {
	chunks [][]float64
	// active indexes the chunk currently receiving samples; chunks
	// past it are pre-acquired (Reserve) or retained (Reset) capacity.
	active int
	count  int
	sum    float64
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{} }

// Reserve grows the digest's chunk list to hold at least n samples
// without further chunk acquisition. Harnesses that replay the same
// simulation several times (replications, ablation arms) call it with
// the expected request count so the million-sample latency buffers are
// drawn from the pool once up front.
func (d *Digest) Reserve(n int) {
	total := 0
	for _, c := range d.chunks {
		total += cap(c)
	}
	for total < n {
		c := acquireChunk(chunkClass(len(d.chunks)))
		total += cap(c)
		d.chunks = append(d.chunks, c)
	}
}

// Add records one sample.
func (d *Digest) Add(v float64) {
	for {
		if d.active == len(d.chunks) {
			d.chunks = append(d.chunks, acquireChunk(chunkClass(len(d.chunks))))
		}
		c := d.chunks[d.active]
		if len(c) < cap(c) {
			d.chunks[d.active] = append(c, v)
			break
		}
		d.active++
	}
	d.count++
	d.sum += v
}

// Count returns the number of samples recorded.
func (d *Digest) Count() int { return d.count }

// Sum returns the sum of all samples.
func (d *Digest) Sum() float64 { return d.sum }

// Mean returns the arithmetic mean (0 for an empty digest).
func (d *Digest) Mean() float64 {
	if d.count == 0 {
		return 0
	}
	return d.sum / float64(d.count)
}

// Reset discards all samples but keeps the chunks, so a warmed digest
// records the next run without touching the pool or the allocator.
func (d *Digest) Reset() {
	for i := range d.chunks {
		d.chunks[i] = d.chunks[i][:0]
	}
	d.active = 0
	d.count = 0
	d.sum = 0
}

// Release empties the digest and returns its chunks to the pool for
// other digests to reuse. Harnesses call it once a run's digests have
// been reduced to scalars; using the digest afterwards is valid and
// starts from empty storage.
func (d *Digest) Release() {
	for i, c := range d.chunks {
		chunkPools[chunkClass(i)].Put(c[:0])
		d.chunks[i] = nil
	}
	d.chunks = d.chunks[:0]
	d.active = 0
	d.count = 0
	d.sum = 0
}

// selectSample is the size of the strided sample that brackets a
// wanted rank. Digests under 16·selectSample sample every 16th value
// instead.
const selectSample = 1 << 14

// orderStats returns the k-th and (k+1)-th smallest samples (0-based,
// the latter clamped to the last rank) in sort.Float64s order, NaNs
// first. It selects rather than sorts (Floyd & Rivest, "Expected time
// bounds for selection", CACM 1975): a strided sample of the chunks
// brackets the ranks between two sample values a and b, one pass counts
// the NaNs and the samples below a and copies those in [a, b] into a
// window, and only the window is sorted. A bracket that misses a rank
// widens on that side, opening to ±Inf past the sample's ends where it
// cannot miss, and the pass repeats: a miss costs time but never
// changes the answer. Chunks are only read. Precondition:
// 0 <= k < count.
func (d *Digest) orderStats(k int) (float64, float64) {
	n := d.count
	k2 := min(k+1, n-1)
	stride := max(n/selectSample, 16)
	sample := make([]float64, 0, n/stride+1)
	j := 0
	for _, c := range d.chunks {
		for ; j < len(c); j += stride {
			sample = append(sample, c[j])
		}
		j -= len(c)
	}
	sort.Float64s(sample)
	m := len(sample)
	// bound maps a sample index to a bracket value; indices past either
	// end open the bracket. A NaN bound (NaNs sort first) counts nothing
	// below it and admits nothing up to it: it can only cost passes.
	bound := func(i int) float64 {
		switch {
		case i < 0:
			return math.Inf(-1)
		case i >= m:
			return math.Inf(1)
		}
		return sample[i]
	}
	// Rank k lands near index p·m of the sorted sample, within a few
	// binomial standard deviations.
	p := float64(k) / float64(n)
	mid, slack := int(p*float64(m)), int(3*math.Sqrt(float64(m)*p*(1-p)))+2
	ia, ib := mid-slack, mid+slack
	// Each sample gap spans stride samples; the window gets room for
	// half as many again as its 2·slack gaps should hold.
	window := make([]float64, 0, min(n, 3*slack*stride))
	for {
		a, b := bound(ia), bound(ib)
		below, nan := 0, 0
		window = window[:0]
		for _, c := range d.chunks {
			for _, v := range c {
				if v < a {
					below++
				} else if v <= b {
					window = append(window, v)
				} else if v != v {
					nan++
				}
			}
		}
		// Ranks [0, nan) are NaN, the next below lie under a and the
		// window holds ranks [start, start+len(window)).
		start := nan + below
		if k2 < nan {
			return math.NaN(), math.NaN()
		}
		missLow, missHigh := max(k, nan) < start, k2 >= start+len(window)
		if !missLow && !missHigh {
			sort.Float64s(window)
			vk := math.NaN()
			if k >= nan {
				vk = window[k-start]
			}
			return vk, window[k2-start]
		}
		if missLow {
			ia -= slack
		}
		if missHigh {
			ib += slack
		}
		slack *= 2
	}
}

// Quantile returns the q-quantile (q in [0,1]) using linear
// interpolation between closest ranks. Returns 0 for an empty digest.
func (d *Digest) Quantile(q float64) float64 {
	if d.count == 0 {
		return 0
	}
	if !(q >= 0 && q <= 1) {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	pos := q * float64(d.count-1)
	lo := int(math.Floor(pos))
	vlo, vhi := d.orderStats(lo)
	if float64(lo) == pos {
		return vlo
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// P95 returns the 95th percentile.
func (d *Digest) P95() float64 { return d.Quantile(0.95) }

// P99 returns the 99th percentile.
func (d *Digest) P99() float64 { return d.Quantile(0.99) }

// Max returns the largest sample, Quantile(1) (0 for empty).
func (d *Digest) Max() float64 { return d.Quantile(1) }

// Min returns the smallest sample, Quantile(0) (0 for empty).
func (d *Digest) Min() float64 { return d.Quantile(0) }

// Window is a rolling time window of (time, value) samples. The
// auto-scaler uses Windows to compute "average CPU utilization over the
// last 3 minutes / 30 seconds" exactly as the paper describes.
type Window struct {
	span   float64 // seconds of history to retain
	times  []float64
	values []float64
}

// NewWindow returns a rolling window retaining span seconds of samples.
func NewWindow(span float64) *Window {
	if span <= 0 {
		panic("stats: window span must be positive")
	}
	return &Window{span: span}
}

// Add records a sample at time t, evicting samples older than span.
// Samples must be added in non-decreasing time order.
func (w *Window) Add(t, v float64) {
	if n := len(w.times); n > 0 && t < w.times[n-1] {
		panic("stats: window samples must be time-ordered")
	}
	w.times = append(w.times, t)
	w.values = append(w.values, v)
	cut := t - w.span
	i := 0
	for i < len(w.times) && w.times[i] < cut {
		i++
	}
	if i > 0 {
		w.times = append(w.times[:0], w.times[i:]...)
		w.values = append(w.values[:0], w.values[i:]...)
	}
}

// Mean returns the average of the samples currently in the window
// (0 when empty).
func (w *Window) Mean() float64 {
	if len(w.values) == 0 {
		return 0
	}
	var s float64
	for _, v := range w.values {
		s += v
	}
	return s / float64(len(w.values))
}

// Len returns the number of retained samples.
func (w *Window) Len() int { return len(w.values) }

// Last returns the most recent sample value (0 when empty).
func (w *Window) Last() float64 {
	if len(w.values) == 0 {
		return 0
	}
	return w.values[len(w.values)-1]
}

// Slope returns the least-squares trend of the windowed samples in
// value units per second (0 with fewer than two samples or zero time
// spread). Predictive auto-scaling uses it to forecast utilization.
func (w *Window) Slope() float64 {
	n := float64(len(w.times))
	if n < 2 {
		return 0
	}
	var st, sv, stt, stv float64
	for i := range w.times {
		st += w.times[i]
		sv += w.values[i]
		stt += w.times[i] * w.times[i]
		stv += w.times[i] * w.values[i]
	}
	den := n*stt - st*st
	if den == 0 {
		return 0
	}
	return (n*stv - st*sv) / den
}

// Forecast extrapolates the windowed trend horizon seconds past the
// most recent sample.
func (w *Window) Forecast(horizonS float64) float64 {
	return w.Last() + w.Slope()*horizonS
}

// Series records an append-only (time, value) series — one per curve of
// a reproduced figure.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// NewSeriesCap returns an empty named series with room for n points,
// for recorders that know the sample count up front (e.g. a control
// loop appending once per step over a fixed horizon) and want the
// appends to stop growing the backing arrays mid-run.
func NewSeriesCap(name string, n int) *Series {
	if n < 0 {
		n = 0
	}
	return &Series{
		Name:   name,
		Times:  make([]float64, 0, n),
		Values: make([]float64, 0, n),
	}
}

// Add appends a point.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// At returns the value at or immediately before time t (0 if the series
// has no point at or before t).
func (s *Series) At(t float64) float64 {
	i := sort.SearchFloat64s(s.Times, t)
	if i < len(s.Times) && s.Times[i] == t {
		return s.Values[i]
	}
	if i == 0 {
		return 0
	}
	return s.Values[i-1]
}

// Mean returns the time-unweighted mean of the recorded values.
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the largest recorded value (0 when empty).
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// Integral integrates the step function defined by the series over
// [start, end]. Each recorded value holds from its timestamp until the
// next point (or end).
func (s *Series) Integral(start, end float64) float64 {
	if end <= start || len(s.Times) == 0 {
		return 0
	}
	var total float64
	for i := 0; i < len(s.Times); i++ {
		t0 := s.Times[i]
		var t1 float64
		if i+1 < len(s.Times) {
			t1 = s.Times[i+1]
		} else {
			t1 = end
		}
		lo := math.Max(t0, start)
		hi := math.Min(t1, end)
		if hi > lo {
			total += s.Values[i] * (hi - lo)
		}
	}
	return total
}
