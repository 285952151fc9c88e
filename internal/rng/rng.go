// Package rng provides deterministic random number generation and the
// statistical distributions used by the workload and queueing
// simulators. All experiments seed their generators explicitly so runs
// are reproducible bit-for-bit.
//
// The core generator is SplitMix64: tiny, fast, passes BigCrush for the
// purposes of simulation, and trivially splittable so every simulated
// entity (VM, client, server) can own an independent stream derived from
// the experiment seed.
package rng

import "math"

// Source is a deterministic 64-bit random source (SplitMix64).
type Source struct {
	state uint64
}

// New returns a source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from the source; the parent
// stream advances by one step. Use this to hand each simulated entity
// its own generator.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). n must be positive.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). Used for Markovian (Poisson) arrival processes.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	u := s.Float64()
	// Guard against log(0).
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / rate
}

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box–Muller; one value per call for determinism).
func (s *Source) Norm(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns a log-normally distributed value parameterized by
// the desired mean and coefficient of variation (stddev/mean) of the
// resulting distribution. Log-normal service times give the "general"
// distribution in the paper's M/G/k client-server application.
// Samplers drawing many values with fixed parameters should hoist the
// parameter conversion with LogNormalParams + LogNormalMuSigma.
func (s *Source) LogNormal(mean, cv float64) float64 {
	mu, sigma, ok := LogNormalParams(mean, cv)
	if !ok {
		return mean
	}
	return s.LogNormalMuSigma(mu, sigma)
}

// LogNormalParams converts a (mean, cv) parameterization into the
// underlying normal's (mu, sigma). ok is false for cv == 0, where the
// distribution degenerates to the constant mean. The conversion costs
// two logs and a square root, so per-request samplers compute it once.
func LogNormalParams(mean, cv float64) (mu, sigma float64, ok bool) {
	if mean <= 0 {
		panic("rng: LogNormal with non-positive mean")
	}
	if cv < 0 {
		panic("rng: LogNormal with negative cv")
	}
	if cv == 0 {
		return 0, 0, false
	}
	sigma2 := math.Log(1 + cv*cv)
	return math.Log(mean) - sigma2/2, math.Sqrt(sigma2), true
}

// LogNormalMuSigma draws exp(Norm(mu, sigma)) — LogNormal with the
// parameter conversion already done. Consumes exactly the same
// variates as LogNormal, so hoisting the conversion does not perturb
// the stream.
func (s *Source) LogNormalMuSigma(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// Pareto returns a bounded Pareto value with shape alpha and minimum
// xmin. Heavy-tailed service demands (e.g. batch jobs) use this.
func (s *Source) Pareto(xmin, alpha float64) float64 {
	if xmin <= 0 || alpha <= 0 {
		panic("rng: Pareto requires positive xmin and alpha")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xmin / math.Pow(u, 1/alpha)
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Poisson returns a Poisson-distributed count with the given mean
// (Knuth's algorithm for small means, normal approximation for large).
func (s *Source) Poisson(mean float64) int {
	if mean < 0 {
		panic("rng: Poisson with negative mean")
	}
	if mean == 0 {
		return 0
	}
	if mean > 64 {
		v := s.Norm(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Empirical samples from a discrete distribution given by weights.
// Returns the selected index. Weights must be non-negative and sum to a
// positive value.
func (s *Source) Empirical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: Empirical with negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Empirical with zero total weight")
	}
	x := s.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
