package experiments

import (
	"context"
	"fmt"
	"sort"

	"immersionoc/internal/freq"
	"immersionoc/internal/power"
	"immersionoc/internal/queueing"
	"immersionoc/internal/rng"
	"immersionoc/internal/sim"
	"immersionoc/internal/stats"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/workload"
)

// BurstyLoad parameterizes the per-VM on-off modulated Poisson load
// used by the oversubscription experiments. Cloud OLTP traffic is
// bursty: a VM alternates between an "on" state with elevated arrival
// rate and a quiet state. Bursts overlapping across co-located VMs are
// what makes oversubscription hurt — and what overclocking absorbs.
type BurstyLoad struct {
	// AvgQPS is the long-run average arrival rate.
	AvgQPS float64
	// BurstFactor multiplies the rate during "on" periods.
	BurstFactor float64
	// OnMeanS and OffMeanS are exponential state durations. The on
	// fraction is OnMeanS/(OnMeanS+OffMeanS); the off-state rate is
	// set so the long-run average equals AvgQPS.
	OnMeanS, OffMeanS float64
}

// onRate and offRate derive the two state rates from the average.
func (b BurstyLoad) onRate() float64 { return b.AvgQPS * b.BurstFactor }

func (b BurstyLoad) offRate() float64 {
	onFrac := b.OnMeanS / (b.OnMeanS + b.OffMeanS)
	r := (b.AvgQPS - b.onRate()*onFrac) / (1 - onFrac)
	if r < 0 {
		r = 0
	}
	return r
}

// Schedule expands the on-off process into a piecewise-constant QPS
// schedule. Sharing one schedule across co-located VMs models the
// correlated load the paper's four SQL instances receive from a common
// benchmark driver — overlapping bursts are exactly the "need the same
// resources at the same time" event oversubscription gambles on.
func (b BurstyLoad) Schedule(seed uint64, duration float64) []queueing.LoadPhase {
	r := rng.New(seed)
	var phases []queueing.LoadPhase
	t, on := 0.0, false
	for t < duration {
		mean, rate := b.OffMeanS, b.offRate()
		if on {
			mean, rate = b.OnMeanS, b.onRate()
		}
		d := r.Exp(1 / mean)
		phases = append(phases, queueing.LoadPhase{QPS: rate, DurationS: d})
		t += d
		on = !on
	}
	return phases
}

// phaseSchedule is an expanded burst schedule shared read-only across
// sweep cells and VM drivers: the phases plus their precomputed
// cumulative end times, built once per grid instead of once per cell.
type phaseSchedule struct {
	phases []queueing.LoadPhase
	// ends[i] is the cumulative end time of phases[i], accumulated in
	// phase order (the same float additions the serial scan made, so
	// boundary comparisons are bit-identical).
	ends     []float64
	duration float64
}

// newPhaseSchedule precomputes the cumulative phase bounds.
func newPhaseSchedule(phases []queueing.LoadPhase, duration float64) *phaseSchedule {
	ends := make([]float64, len(phases))
	off := 0.0
	for i, p := range phases {
		off += p.DurationS
		ends[i] = off
	}
	return &phaseSchedule{phases: phases, ends: ends, duration: duration}
}

// phaseCursor is one driver's incremental position in a shared
// phaseSchedule — the same idiom as queueing.Generator's QPSAt
// cursor. Each VM driver queries monotonically increasing times, so
// lookup is amortized O(1); a backwards query falls back to binary
// search.
type phaseCursor struct {
	s   *phaseSchedule
	idx int
}

// at returns the scheduled rate at time t and the end of the phase t
// falls in (or the schedule duration when t is past the last phase).
func (c *phaseCursor) at(t float64) (qps, phaseEnd float64) {
	if c.idx > 0 && t < c.s.ends[c.idx-1] {
		c.idx = sort.Search(len(c.s.ends), func(i int) bool { return t < c.s.ends[i] })
	}
	for c.idx < len(c.s.ends) && t >= c.s.ends[c.idx] {
		c.idx++
	}
	if c.idx >= len(c.s.phases) {
		return 0, c.s.duration
	}
	return c.s.phases[c.idx].QPS, c.s.ends[c.idx]
}

// drivePhases schedules a Poisson arrival process for one VM following
// the given piecewise-constant schedule.
func drivePhases(eng *queueing.Engine, vm *queueing.VM, seed uint64, service queueing.ServiceSampler, sched *phaseSchedule) {
	r := rng.New(seed)
	cur := phaseCursor{s: sched}
	duration := sched.duration
	var arrive func(s *sim.Simulation)
	arrive = func(s *sim.Simulation) {
		now := float64(s.Now())
		if now >= duration {
			return
		}
		rate, phaseEnd := cur.at(now)
		if rate <= 0 {
			if phaseEnd > now && phaseEnd < duration {
				s.Schedule(sim.Time(phaseEnd), arrive)
			}
			return
		}
		vm.Submit(service(r))
		s.After(r.Exp(rate), arrive)
	}
	eng.Sim.After(r.Exp(10), arrive)
}

// Fig12Point is one bar of Figure 12.
type Fig12Point struct {
	Config string
	PCores int
	// MeanP95MS is the average of the four VMs' P95 latencies.
	MeanP95MS float64
	// AvgPowerW and P99PowerW are server power draws.
	AvgPowerW, P99PowerW float64
}

// Fig12Params holds the experiment's calibration knobs.
type Fig12Params struct {
	Seed      uint64
	DurationS float64
	WarmupS   float64
	VMs       int
	// Load is the per-VM arrival process; the per-VM average
	// utilization at B2 is AvgQPS × service mean / vcores.
	Load BurstyLoad
	// ServiceMeanS/ServiceCV describe SQL request demands at B2.
	ServiceMeanS, ServiceCV float64
	PCoreSteps              []int
	// IndependentBursts gives each VM its own burst schedule instead
	// of the shared (correlated) one. Used by the ablation showing
	// that correlated bursts are what makes oversubscription hurt.
	IndependentBursts bool
	// Tel is the telemetry scope the sweep's engines publish into
	// (nil disables collection). Each grid cell lands in a child
	// scope named <config>-<pcores>p.
	Tel *telemetry.Scope
	// Workers bounds the sweep's parallel cells (≤ 1 = serial).
	Workers int
}

// DefaultFig12Params reproduces the paper's setup: 4 SQL VMs of 4
// vcores, 8–16 pcores, B2 vs OC3.
func DefaultFig12Params() Fig12Params {
	return Fig12Params{
		Seed:      7,
		DurationS: 420,
		WarmupS:   30,
		VMs:       4,
		Load: BurstyLoad{
			AvgQPS:      225, // ρ ≈ 0.45 per vcore at B2
			BurstFactor: 1.82,
			OnMeanS:     3,
			OffMeanS:    3,
		},
		ServiceMeanS: 0.008,
		ServiceCV:    1.2,
		PCoreSteps:   []int{8, 10, 12, 14, 16},
	}
}

// fig12Schedules holds the burst schedules every grid cell shares:
// expanded once per sweep (not once per cell) and read immutably by
// each cell's VM drivers. perVM is nil unless IndependentBursts.
type fig12Schedules struct {
	shared *phaseSchedule
	perVM  []*phaseSchedule
}

// expandSchedules builds the grid's burst schedules from the
// calibrated load. The seeds match the original per-cell expansion,
// so hoisting changes no arrival times.
func expandSchedules(p Fig12Params) fig12Schedules {
	s := fig12Schedules{
		shared: newPhaseSchedule(p.Load.Schedule(p.Seed*977, p.DurationS), p.DurationS),
	}
	if p.IndependentBursts {
		s.perVM = make([]*phaseSchedule, p.VMs)
		for i := range s.perVM {
			s.perVM[i] = newPhaseSchedule(p.Load.Schedule(p.Seed*977+uint64(i)*7919, p.DurationS), p.DurationS)
		}
	}
	return s
}

// vmSchedule returns VM i's schedule: the shared correlated one, or
// its private one under IndependentBursts.
func (s fig12Schedules) vmSchedule(i int) *phaseSchedule {
	if s.perVM != nil {
		return s.perVM[i]
	}
	return s.shared
}

// runOversub simulates the SQL VMs on pcores physical cores under cfg
// and returns mean P95 latency plus power statistics. A cancelled ctx
// stops the simulation at the kernel's next event batch and returns
// the context error.
func runOversub(ctx context.Context, p Fig12Params, cfg freq.Config, pcores int, scheds fig12Schedules) (Fig12Point, error) {
	app := workload.SQL
	speed := 1 / app.ServiceTimeRatio(cfg)
	eng := queueing.NewEngine(app.ScalableFraction())
	eng.SetTelemetry(p.Tel)
	host := eng.NewHost(pcores)
	service := queueing.LogNormalService(p.ServiceMeanS, p.ServiceCV)

	// Sample counts are known up front: ~AvgQPS×duration requests per
	// VM (bursts redistribute arrivals, they don't change the mean)
	// and one power sample per second. Reserving here keeps the
	// latency digests from growing by doubling mid-run.
	perVM := int(p.Load.AvgQPS*p.DurationS) + 1024
	eng.AllLatency.Reserve(perVM * p.VMs)

	vms := make([]*queueing.VM, p.VMs)
	for i := range vms {
		vms[i] = host.NewVM(fmt.Sprintf("sql%d", i), app.Cores, speed)
		vms[i].Latency.Reserve(perVM)
		drivePhases(eng, vms[i], p.Seed+uint64(i)*101, service, scheds.vmSchedule(i))
	}

	powerDig := stats.NewDigest()
	powerDig.Reserve(int(p.DurationS) + 2)
	warmupDone := false
	eng.Sim.NewTicker(1, 1, func(s *sim.Simulation, t sim.Time) {
		now := float64(t)
		if now > p.DurationS {
			return
		}
		if !warmupDone && now >= p.WarmupS {
			for _, v := range vms {
				v.Latency.Reset()
			}
			warmupDone = true
		}
		runnable := 0
		for _, v := range vms {
			runnable += v.InService()
		}
		utilSum := float64(runnable)
		if utilSum > float64(pcores) {
			utilSum = float64(pcores)
		}
		powerDig.Add(power.Tank1Server.Power(cfg, utilSum, pcores))
	})

	if err := eng.Sim.RunUntilCtx(ctx, sim.Time(p.DurationS)); err != nil {
		return Fig12Point{}, err
	}

	var p95Sum float64
	for _, v := range vms {
		p95Sum += v.Latency.P95()
	}
	// Each sweep point discards its engine; recycle the sample blocks
	// for the next (pcores, config) cell.
	defer eng.ReleaseStats()
	defer powerDig.Release()
	return Fig12Point{
		Config:    cfg.Name,
		PCores:    pcores,
		MeanP95MS: p95Sum / float64(len(vms)) * 1000,
		AvgPowerW: powerDig.Mean(),
		P99PowerW: powerDig.P99(),
	}, nil
}

// withOptions applies the shared experiment options on top of the
// calibrated parameters.
func (p Fig12Params) withOptions(o Options) Fig12Params {
	p.Seed = o.SeedOr(p.Seed)
	p.DurationS = o.DurationOr(p.DurationS)
	p.Tel = o.Tel
	p.Workers = o.Workers
	return p
}

// Fig12DataCtx runs the oversubscription sweep. The grid's cells —
// (config, pcores) pairs — are independent simulations sharing only
// the read-only burst schedules, so they fan out through sweep.Map
// under p.Workers; results come back in grid order regardless of the
// worker count. Cancellation is honored both between points and inside
// each point's simulation (the kernel checks ctx every event batch),
// so a cancelled sweep returns promptly instead of finishing the
// in-flight run.
func Fig12DataCtx(ctx context.Context, p Fig12Params) ([]Fig12Point, error) {
	type cell struct {
		cfg    freq.Config
		pcores int
	}
	var cells []cell
	for _, cfg := range []freq.Config{freq.B2, freq.OC3} {
		for _, pc := range p.PCoreSteps {
			cells = append(cells, cell{cfg, pc})
		}
	}
	scheds := expandSchedules(p)
	return sweep.Map(ctx, len(cells), sweep.Options{Workers: p.Workers, Tel: p.Tel},
		func(ctx context.Context, i int) (Fig12Point, error) {
			c := cells[i]
			cp := p
			cp.Tel = p.Tel.Child(fmt.Sprintf("%s-%dp", c.cfg.Name, c.pcores))
			return runOversub(ctx, cp, c.cfg, c.pcores, scheds)
		})
}

// fig12Table renders the sweep's points.
func fig12Table(data []Fig12Point) *Table {
	t := &Table{
		Title:  "Figure 12 — Average P95 latency of 4 SQL VMs (16 vcores) vs assigned pcores",
		Header: []string{"Config", "pcores", "Mean P95 (ms)", "Avg power", "P99 power"},
		Notes: []string{
			"paper: OC3 with 12 pcores within 1% of B2 with 16 pcores — 4 pcores freed;",
			"paper power: B2 120/130W avg (12/16p), OC3 160/173W; P99 126/140 vs 169/180W",
		},
	}
	for _, d := range data {
		t.AddRow(d.Config, fmt.Sprintf("%d", d.PCores), F(d.MeanP95MS, 2),
			fmt.Sprintf("%.0fW", d.AvgPowerW), fmt.Sprintf("%.0fW", d.P99PowerW))
	}
	return t
}

// Fig12Find returns the point for (configName, pcores).
func Fig12Find(data []Fig12Point, configName string, pcores int) (Fig12Point, bool) {
	for _, d := range data {
		if d.Config == configName && d.PCores == pcores {
			return d, true
		}
	}
	return Fig12Point{}, false
}

func init() {
	registerTable("fig12", 130, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) {
			data, err := Fig12DataCtx(ctx, DefaultFig12Params().withOptions(o))
			if err != nil {
				return nil, err
			}
			return fig12Table(data), nil
		})
}
