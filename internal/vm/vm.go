// Package vm defines virtual machine types, requests, and synthetic
// arrival traces for the cluster packing, buffer-reduction, and
// capacity-crisis experiments. The type mix and lifetime distribution
// are modelled after the published Azure characterization the paper
// cites (Resource Central, SOSP'17): most VMs are small, lifetimes are
// heavy-tailed, and a large fraction of VMs live long — which is
// exactly why oversubscription needs overclocking as a mitigation
// rather than relying on VMs leaving.
package vm

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"immersionoc/internal/rng"
)

// Class labels a VM's performance tier.
type Class int

const (
	// Regular VMs run at the base frequency band.
	Regular Class = iota
	// HighPerf VMs are sold with guaranteed overclocked frequency
	// (the paper's high-performance VM offering, Figure 5c).
	HighPerf
	// Harvest VMs are evictable filler (not in the paper's
	// offerings; used by capacity experiments as the lowest
	// priority tier).
	Harvest
)

func (c Class) String() string {
	switch c {
	case Regular:
		return "regular"
	case HighPerf:
		return "high-perf"
	case Harvest:
		return "harvest"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Type is a sellable VM size.
type Type struct {
	Name     string
	VCores   int
	MemoryGB float64
}

// Standard Azure-like VM sizes used by the packing experiments.
var (
	Size2  = Type{Name: "v2", VCores: 2, MemoryGB: 8}
	Size4  = Type{Name: "v4", VCores: 4, MemoryGB: 16}
	Size8  = Type{Name: "v8", VCores: 8, MemoryGB: 32}
	Size16 = Type{Name: "v16", VCores: 16, MemoryGB: 64}
)

// Types returns the size catalog.
func Types() []Type { return []Type{Size2, Size4, Size8, Size16} }

// VM is one virtual machine instance.
type VM struct {
	ID    int
	Type  Type
	Class Class
	// ArrivalS and LifetimeS place the VM in a trace.
	ArrivalS, LifetimeS float64
	// AvgUtil is the VM's average CPU utilization, used to estimate
	// the probability that co-located VMs need the same cores at
	// the same time.
	AvgUtil float64
	// ScalableFraction is the workload's ΔPperf/ΔAperf.
	ScalableFraction float64
	// Host is the placement record a cluster keeps on the VM: the
	// hosting server's fleet index plus one, so the zero value means
	// unplaced. The cluster trusts it only once it finds this very VM
	// in the named server's list, so a stale record, or one another
	// cluster wrote, reads as "not placed". A VM therefore sits in at
	// most one live cluster at a time.
	Host int
}

// EndS returns the VM's departure time.
func (v *VM) EndS() float64 { return v.ArrivalS + v.LifetimeS }

// TraceConfig parameterizes synthetic VM arrival traces.
type TraceConfig struct {
	// Seed makes the trace reproducible.
	Seed uint64
	// ArrivalRatePerS is the mean VM arrival rate.
	ArrivalRatePerS float64
	// DurationS is the trace horizon.
	DurationS float64
	// MeanLifetimeS is the mean VM lifetime; lifetimes are
	// heavy-tailed (bounded Pareto) so a large fraction of VMs are
	// long-lived, matching the cloud characterization.
	MeanLifetimeS float64
	// HighPerfFraction is the share of arrivals requesting
	// high-performance (overclocked) VMs.
	HighPerfFraction float64
}

// DefaultTrace is a moderately sized reproducible trace.
var DefaultTrace = TraceConfig{
	Seed:             42,
	ArrivalRatePerS:  0.02,
	DurationS:        4 * 24 * 3600,
	MeanLifetimeS:    12 * 3600,
	HighPerfFraction: 0.1,
}

// sizeWeights reflects the small-VM-dominated mix of public clouds.
var sizeWeights = []float64{0.45, 0.30, 0.18, 0.07}

// Generate produces a reproducible VM arrival trace.
func Generate(cfg TraceConfig) []*VM {
	return generate(cfg, nil)
}

// DiurnalConfig modulates a trace's Poisson arrival rate over a
// raised-cosine day: ArrivalRatePerS is the daily peak, the trough is
// TroughFraction of it.
type DiurnalConfig struct {
	TraceConfig
	// TroughFraction is the trough rate as a fraction of the peak
	// ArrivalRatePerS, in [0, 1]. 1 disables the modulation.
	TroughFraction float64
	// PeriodS is the modulation period (0 = 24 h). The peak sits at
	// half the period, so a trace starting at t=0 starts in the trough.
	PeriodS float64
}

// Factor returns the rate multiplier at time t: a raised cosine
// between TroughFraction (at t = 0 mod PeriodS) and 1 (at half the
// period).
func (d DiurnalConfig) Factor(t float64) float64 {
	period := d.PeriodS
	if period <= 0 {
		period = 24 * 3600
	}
	shape := (1 - math.Cos(2*math.Pi*t/period)) / 2 // 0 at trough, 1 at peak
	return d.TroughFraction + (1-d.TroughFraction)*shape
}

// GenerateDiurnal produces a reproducible arrival trace whose rate
// follows the diurnal day, by thinning: candidate arrivals are drawn
// at the peak rate and kept with probability Factor(t) (the standard
// construction for a non-homogeneous Poisson process). The per-VM
// sampling matches Generate, so the workload mix is identical and only
// the arrival intensity breathes.
func GenerateDiurnal(cfg DiurnalConfig) []*VM {
	return generate(cfg.TraceConfig, cfg.Factor)
}

func generate(cfg TraceConfig, keep func(t float64) float64) []*VM {
	r := rng.New(cfg.Seed)
	var out []*VM
	t := 0.0
	id := 0
	types := Types()
	for {
		t += r.Exp(cfg.ArrivalRatePerS)
		if t >= cfg.DurationS {
			break
		}
		if keep != nil && !r.Bernoulli(keep(t)) {
			continue
		}
		id++
		// Bounded Pareto lifetimes with alpha 1.2: heavy tail,
		// mean adjusted to MeanLifetimeS via the xmin choice.
		// mean of Pareto(xmin, a) = xmin·a/(a-1) for a>1.
		alpha := 1.2
		xmin := cfg.MeanLifetimeS * (alpha - 1) / alpha
		life := r.Pareto(xmin, alpha)
		if life > 30*24*3600 {
			life = 30 * 24 * 3600
		}
		class := Regular
		if r.Bernoulli(cfg.HighPerfFraction) {
			class = HighPerf
		}
		out = append(out, &VM{
			ID:               id,
			Type:             types[r.Empirical(sizeWeights)],
			Class:            class,
			ArrivalS:         t,
			LifetimeS:        life,
			AvgUtil:          0.15 + 0.5*r.Float64(),
			ScalableFraction: 0.4 + 0.5*r.Float64(),
		})
	}
	return out
}

// Event is an arrival or departure in time order.
type Event struct {
	TimeS   float64
	VM      *VM
	Arrival bool
}

// Events expands a trace into a time-ordered arrival/departure stream.
// The order is total: time, then departures before arrivals (free
// capacity before consuming it), then VM ID.
//
// Only the departures need sorting: they are sorted in the back half of
// the result, and the arrivals, which a generated trace already lists
// in (time, ID) order, are merged in front of them in place. The merge
// writes position i+j after taking i arrivals and j departures, never
// past the next unread departure at n+j. A caller trace out of that
// order is sorted first, on a copy.
func Events(trace []*VM) []Event {
	n := len(trace)
	evs := make([]Event, 2*n)
	dep := evs[n:]
	sorted := true
	for i, v := range trace {
		dep[i] = Event{TimeS: v.EndS(), VM: v}
		if i > 0 && byArrival(trace[i-1], v) > 0 {
			sorted = false
		}
	}
	slices.SortFunc(dep, func(a, b Event) int {
		switch {
		case a.TimeS < b.TimeS:
			return -1
		case a.TimeS > b.TimeS:
			return 1
		}
		return cmp.Compare(a.VM.ID, b.VM.ID)
	})
	if !sorted {
		trace = slices.Clone(trace)
		slices.SortFunc(trace, byArrival)
	}
	i, j := 0, 0
	for i < n {
		a := trace[i]
		if j < n && dep[j].TimeS <= a.ArrivalS {
			evs[i+j] = dep[j]
			j++
			continue
		}
		evs[i+j] = Event{TimeS: a.ArrivalS, VM: a, Arrival: true}
		i++
	}
	return evs
}

// byArrival orders VMs by arrival time, then ID.
func byArrival(a, b *VM) int {
	switch {
	case a.ArrivalS < b.ArrivalS:
		return -1
	case a.ArrivalS > b.ArrivalS:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// CreationLatencyS is the time to deploy a new VM, emulating the
// paper's auto-scaling experiments ("we make scaling-out in our system
// take 60 seconds").
const CreationLatencyS = 60.0
