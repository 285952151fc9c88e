// Package telemetry is the lightweight metrics layer the simulation
// engines publish their observed signals through: counters, gauges and
// fixed-bucket histograms, grouped into per-run scopes keyed by
// experiment name.
//
// The paper's control plane (auto-scaler, oversubscription placement,
// priority capping) is driven by continuously observed signals —
// utilization, junction temperature, power draw — so the simulated
// plant must expose the same signals instead of computing and
// discarding them. Digital-twin work on datacenter cooling treats this
// telemetry substrate as the prerequisite for any optimization loop;
// parameter sweeps and calibration searches read from it.
//
// The layer is designed so the hot simulation loops can afford to keep
// it on:
//
//   - every metric operation is at most a couple of atomic ops on
//     preallocated words (no locks, no allocation after metric
//     creation);
//   - instrumented code hoists metric lookups out of its loops and
//     holds the typed handles (*Counter, *Gauge, *Histogram);
//   - per-event paths (one observation per simulated request) batch
//     through a goroutine-local HistAccum and flush at the simulation
//     kernel's batch boundaries, so the per-event cost is plain
//     arithmetic on private memory — no atomic bus traffic at all;
//   - a nil handle is a no-op for every operation, so "telemetry off"
//     is a nil check per call site — no branches on a config struct,
//     no interface dispatch.
//
// Scopes come from a Registry. The runner gives each Run call its own
// registry so concurrent runs do not mix, and Off disables collection
// entirely.
package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry owns a set of named scopes. The zero value is ready to use;
// a nil *Registry hands out nil scopes (all operations no-op).
type Registry struct {
	off    bool
	mu     sync.RWMutex
	scopes map[string]*Scope
}

// NewRegistry returns an empty, collecting registry.
func NewRegistry() *Registry { return &Registry{} }

// Off is a registry that collects nothing: its scopes are nil and
// every metric operation through them is a no-op. Pass it where a
// *Registry is expected to disable telemetry.
var Off = &Registry{off: true}

// Scope returns the named scope, creating it on first use. A nil or
// Off registry returns nil, which is safe to use everywhere.
func (r *Registry) Scope(name string) *Scope {
	if r == nil || r.off {
		return nil
	}
	r.mu.RLock()
	s := r.scopes[name]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s = r.scopes[name]; s == nil {
		if r.scopes == nil {
			r.scopes = make(map[string]*Scope)
		}
		s = &Scope{name: name, reg: r}
		r.scopes[name] = s
	}
	return s
}

// Scope is one named group of metrics — in this repository, one scope
// per experiment run plus one for the runner itself, with per-cell
// child scopes underneath the experiments that sweep a grid. Metric
// handles are created on first use and live for the scope's lifetime.
type Scope struct {
	name       string
	reg        *Registry
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Name returns the scope's key ("" for a nil scope).
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Child returns the scope named "<parent>/<suffix>" in the same
// registry, creating it on first use. Sweeping experiments give each
// grid cell its own child scope so last-write metrics (gauges) stay
// deterministic under parallel cells instead of racing on completion
// order. A nil scope returns nil.
func (s *Scope) Child(suffix string) *Scope {
	if s == nil {
		return nil
	}
	return s.reg.Scope(s.name + "/" + suffix)
}

// Counter returns the named counter, creating it on first use. Nil
// scopes return nil (a no-op counter).
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	c := s.counters[name]
	s.mu.RUnlock()
	if c != nil {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c = s.counters[name]; c == nil {
		if s.counters == nil {
			s.counters = make(map[string]*Counter)
		}
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil scopes
// return nil (a no-op gauge).
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	g := s.gauges[name]
	s.mu.RUnlock()
	if g != nil {
		return g
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g = s.gauges[name]; g == nil {
		if s.gauges == nil {
			s.gauges = make(map[string]*Gauge)
		}
		g = &Gauge{}
		s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// buckets). Bounds must be ascending; observations above the last
// bound land in an implicit +Inf bucket. Nil scopes return nil.
func (s *Scope) Histogram(name string, bounds []float64) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	h := s.histograms[name]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.histograms[name]; h == nil {
		if s.histograms == nil {
			s.histograms = make(map[string]*Histogram)
		}
		h = newHistogram(bounds)
		s.histograms[name] = h
	}
	return h
}

// Counter is a monotonically increasing count. All methods are safe
// for concurrent use and no-ops on a nil receiver.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written float64 value. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax stores v only if it exceeds the current value — a running
// maximum (peak bath temperature, peak power).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v && old != 0 {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Observe is a
// short linear scan plus one atomic add per bucket hit and a CAS for
// the running sum; quantiles are estimated at snapshot time by linear
// interpolation within the landing bucket. All methods are safe for
// concurrent use and no-ops on a nil receiver. The total count is
// derived from the buckets, so Observe touches exactly two shared
// words.
type Histogram struct {
	bounds []float64       // ascending upper bounds; implicit +Inf last
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// bucket returns the index v lands in: bucket i covers
// (bounds[i-1], bounds[i]], the last bucket is +Inf. A linear scan
// beats binary search here — the layouts are small (≤ ~20 bounds,
// exponentially spaced from the smallest observable value) and hot
// observations exit within the first few comparisons, without the
// per-probe closure call sort.Search costs.
func (h *Histogram) bucket(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[h.bucket(v)].Add(1)
	h.addSum(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts, interpolating linearly within the landing bucket. Values in
// the +Inf bucket report the last finite bound. Returns 0 for an
// empty or nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	loaded := make([]float64, len(h.counts))
	var total float64
	for i := range h.counts {
		loaded[i] = float64(h.counts[i].Load())
		total += loaded[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * total
	var cum float64
	for i, n := range loaded {
		if cum+n >= rank && n > 0 {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			if i == len(h.bounds) {
				// +Inf bucket: report the last finite bound.
				return lo
			}
			hi := h.bounds[i]
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// HistAccum is a single-goroutine accumulator in front of a shared
// Histogram. Observe is plain arithmetic on private memory — no atomic
// ops — and Flush merges the whole batch into the histogram with one
// atomic add per non-empty bucket. The simulation engines keep one per
// run loop for their per-request signals and flush at the kernel's
// batch boundaries (sim.Simulation.OnFlush), so shared metrics are
// complete whenever the kernel hands control back. Not safe for
// concurrent use; a nil accumulator no-ops like the other handles.
type HistAccum struct {
	h      *Histogram
	counts []uint64
	sum    float64
	n      uint64
}

// Accum returns a private accumulator feeding h. A nil histogram
// returns a nil accumulator (all operations no-op).
func (h *Histogram) Accum() *HistAccum {
	if h == nil {
		return nil
	}
	return &HistAccum{h: h, counts: make([]uint64, len(h.counts))}
}

// Observe records one value locally; it is not visible in the
// histogram until Flush.
func (a *HistAccum) Observe(v float64) {
	if a == nil {
		return
	}
	a.counts[a.h.bucket(v)]++
	a.sum += v
	a.n++
}

// Flush publishes the accumulated batch into the histogram and clears
// the accumulator.
func (a *HistAccum) Flush() {
	if a == nil || a.n == 0 {
		return
	}
	for i, c := range a.counts {
		if c != 0 {
			a.h.counts[i].Add(c)
			a.counts[i] = 0
		}
	}
	a.h.addSum(a.sum)
	a.sum = 0
	a.n = 0
}

// Standard bucket layouts. Shared so the same metric name always has
// the same schema across engines.
var (
	// LatencyBuckets covers request sojourn times in seconds, from
	// 1 ms to ~67 s in powers of two.
	LatencyBuckets = expBuckets(0.001, 2, 17)
	// WallBuckets covers experiment wall times in seconds, from 1 ms
	// to ~2 min in powers of two.
	WallBuckets = expBuckets(0.001, 2, 18)
)

// expBuckets returns n exponentially spaced bounds starting at start.
func expBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Snapshot is the exportable state of a registry: one entry per scope,
// each carrying its metric values. It marshals to the JSON schema
// `octl -metrics` writes.
type Snapshot struct {
	Scopes map[string]ScopeSnapshot `json:"scopes"`
}

// ScopeSnapshot is one scope's metrics at snapshot time.
type ScopeSnapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot carries a histogram's buckets plus precomputed
// headline quantiles.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Mean   float64   `json:"mean"`
	P50    float64   `json:"p50"`
	P95    float64   `json:"p95"`
	P99    float64   `json:"p99"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot captures the registry's current state. Nil and Off
// registries return nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil || r.off {
		return nil
	}
	r.mu.RLock()
	scopes := make([]*Scope, 0, len(r.scopes))
	for _, s := range r.scopes {
		scopes = append(scopes, s)
	}
	r.mu.RUnlock()

	snap := &Snapshot{Scopes: make(map[string]ScopeSnapshot, len(scopes))}
	for _, s := range scopes {
		snap.Scopes[s.name] = s.snapshot()
	}
	return snap
}

func (s *Scope) snapshot() ScopeSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := ScopeSnapshot{}
	if len(s.counters) > 0 {
		out.Counters = make(map[string]uint64, len(s.counters))
		for n, c := range s.counters {
			out.Counters[n] = c.Value()
		}
	}
	if len(s.gauges) > 0 {
		out.Gauges = make(map[string]float64, len(s.gauges))
		for n, g := range s.gauges {
			out.Gauges[n] = g.Value()
		}
	}
	if len(s.histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.histograms))
		for n, h := range s.histograms {
			hs := HistogramSnapshot{
				Count:  h.Count(),
				Sum:    h.Sum(),
				P50:    h.Quantile(0.50),
				P95:    h.Quantile(0.95),
				P99:    h.Quantile(0.99),
				Bounds: h.bounds,
				Counts: make([]uint64, len(h.counts)),
			}
			if hs.Count > 0 {
				hs.Mean = hs.Sum / float64(hs.Count)
			}
			for i := range h.counts {
				hs.Counts[i] = h.counts[i].Load()
			}
			out.Histograms[n] = hs
		}
	}
	return out
}

// MarshalIndent renders the snapshot as indented JSON (the `octl
// -metrics` file format). A nil snapshot marshals as "null".
func (s *Snapshot) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
