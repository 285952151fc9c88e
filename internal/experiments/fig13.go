package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/freq"
	"immersionoc/internal/queueing"
	"immersionoc/internal/rng"
	"immersionoc/internal/sim"
	"immersionoc/internal/sweep"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/workload"
)

// Scenario is one Table X workload mix: counts of each application's
// VMs, 20 vcores total assigned to 16 pcores (20% oversubscription).
type Scenario struct {
	Name     string
	SQL      int
	BI       int
	SPECJBB  int
	TeraSort int
}

// TableX returns the three oversubscription scenarios.
func TableX() []Scenario {
	return []Scenario{
		{Name: "Scenario 1", SQL: 1, BI: 1, SPECJBB: 1, TeraSort: 2},
		{Name: "Scenario 2", SQL: 1, BI: 1, SPECJBB: 2, TeraSort: 1},
		{Name: "Scenario 3", SQL: 2, BI: 1, SPECJBB: 1, TeraSort: 1},
	}
}

// VCores returns the scenario's total vcores (20 in all cases).
func (s Scenario) VCores() int {
	return 4 * (s.SQL + s.BI + s.SPECJBB + s.TeraSort)
}

// Fig13Cell is one bar of Figure 13: an application's improvement (to
// its metric of interest) relative to the B2 baseline with the
// requisite 20 pcores.
type Fig13Cell struct {
	Scenario string
	App      string
	Instance int
	Config   string // "B2-oversub" or "OC3-oversub"
	// Improvement is positive when better than the 20-pcore B2
	// baseline.
	Improvement float64
}

// Fig13Params holds the experiment knobs.
type Fig13Params struct {
	Seed      uint64
	DurationS float64
	WarmupS   float64
	PCores    int // 16 (oversubscribed); baseline uses VCores()
	// SQLLoad is the bursty SQL arrival process.
	SQLLoad                       BurstyLoad
	SQLServiceMeanS, SQLServiceCV float64
	// JBBThreads/JBBServiceMeanS/JBBThinkS parameterize the
	// closed-loop SPECJBB injectors per VM.
	JBBThreads      int
	JBBServiceMeanS float64
	JBBThinkS       float64
	// BatchTaskS is the per-task demand of the closed-loop batch
	// (BI, TeraSort) runners.
	BatchTaskS float64
	// Tel is the telemetry scope the scenario engines publish into
	// (nil disables collection). Each scenario run lands in a child
	// scope named <scenario>/<config>.
	Tel *telemetry.Scope
	// Workers bounds the sweep's parallel scenario runs (≤ 1 = serial).
	Workers int
}

// DefaultFig13Params mirrors the Table X setup.
func DefaultFig13Params() Fig13Params {
	return Fig13Params{
		Seed:      11,
		DurationS: 240,
		WarmupS:   30,
		PCores:    16,
		SQLLoad: BurstyLoad{
			AvgQPS:      175,
			BurstFactor: 1.6,
			OnMeanS:     3,
			OffMeanS:    3,
		},
		SQLServiceMeanS: 0.008,
		SQLServiceCV:    1.2,
		JBBThreads:      6,
		JBBServiceMeanS: 0.005,
		JBBThinkS:       0.005,
		BatchTaskS:      0.25,
	}
}

// vmMetrics captures a VM's raw metric from one run.
type vmMetrics struct {
	app string
	// p95 for latency apps (seconds).
	p95 float64
	// rate for throughput apps and batch (per second).
	rate float64
}

// runScenario simulates one scenario on pcores under cfg and returns
// per-VM raw metrics in deterministic order. A cancelled ctx stops
// the simulation at the kernel's next event batch.
func runScenario(ctx context.Context, p Fig13Params, sc Scenario, cfg freq.Config, pcores int, burst *phaseSchedule) ([]vmMetrics, error) {
	eng := queueing.NewEngine(workload.SQL.ScalableFraction())
	eng.SetTelemetry(p.Tel)
	host := eng.NewHost(pcores)

	type tracked struct {
		app       string
		vm        *queueing.VM
		completed *int
		isBatch   bool
		isJBB     bool
	}
	var vmsT []tracked

	seed := p.Seed
	nextSeed := func() uint64 { seed += 1009; return seed }

	speedFor := func(app workload.Profile) float64 { return 1 / app.ServiceTimeRatio(cfg) }

	// SQL: open-loop bursty arrivals, P95 metric. The burst schedule
	// is shared across SQL instances (correlated load) — and across
	// every scenario run, so the caller expands it once.
	for i := 0; i < sc.SQL; i++ {
		app := workload.SQL
		v := host.NewVM(fmt.Sprintf("sql%d", i), app.Cores, speedFor(app))
		drivePhases(eng, v, nextSeed(), queueing.LogNormalService(p.SQLServiceMeanS, p.SQLServiceCV), burst)
		vmsT = append(vmsT, tracked{app: app.Name, vm: v})
	}
	// BI and TeraSort: closed-loop batch runners, one task per vcore.
	batch := func(name string, app workload.Profile, count int) {
		for i := 0; i < count; i++ {
			v := host.NewVM(fmt.Sprintf("%s%d", name, i), app.Cores, speedFor(app))
			done := new(int)
			vmsT = append(vmsT, tracked{app: app.Name, vm: v, completed: done, isBatch: true})
		}
	}
	batch("bi", workload.BI, sc.BI)
	batch("ts", workload.TeraSort, sc.TeraSort)

	// SPECJBB: closed-loop injectors with think time.
	for i := 0; i < sc.SPECJBB; i++ {
		app := workload.SPECJBB
		v := host.NewVM(fmt.Sprintf("jbb%d", i), app.Cores, speedFor(app))
		done := new(int)
		vmsT = append(vmsT, tracked{app: app.Name, vm: v, completed: done, isJBB: true})
	}

	// Wire completion hooks: batch resubmits immediately; JBB after
	// think time. Counters only accumulate after warmup.
	rand := rng.New(p.Seed * 31)
	byVM := make(map[*queueing.VM]tracked, len(vmsT))
	for _, tr := range vmsT {
		byVM[tr.vm] = tr
	}
	warm := false
	eng.OnComplete = func(req *queueing.Request, v *queueing.VM) {
		tr, ok := byVM[v]
		if !ok {
			return
		}
		switch {
		case tr.isBatch:
			if warm {
				*tr.completed++
			}
			v.Submit(p.BatchTaskS)
		case tr.isJBB:
			if warm {
				*tr.completed++
			}
			think := rand.Exp(1 / p.JBBThinkS)
			vv := v
			eng.Sim.After(think, func(s *sim.Simulation) {
				vv.Submit(rand.LogNormal(p.JBBServiceMeanS, 1.0))
			})
		}
	}

	// Prime closed loops.
	for _, tr := range vmsT {
		if tr.isBatch {
			for c := 0; c < tr.vm.VCores; c++ {
				tr.vm.Submit(p.BatchTaskS)
			}
		}
		if tr.isJBB {
			for c := 0; c < p.JBBThreads; c++ {
				tr.vm.Submit(rand.LogNormal(p.JBBServiceMeanS, 1.0))
			}
		}
	}

	eng.Sim.Schedule(sim.Time(p.WarmupS), func(s *sim.Simulation) {
		warm = true
		for _, tr := range vmsT {
			tr.vm.Latency.Reset()
		}
	})

	if err := eng.Sim.RunUntilCtx(ctx, sim.Time(p.DurationS)); err != nil {
		return nil, err
	}

	span := p.DurationS - p.WarmupS
	var out []vmMetrics
	for _, tr := range vmsT {
		m := vmMetrics{app: tr.app}
		if tr.completed != nil {
			m.rate = float64(*tr.completed) / span
		} else {
			m.p95 = tr.vm.Latency.P95()
		}
		out = append(out, m)
	}
	return out, nil
}

// withOptions applies the shared experiment options on top of the
// calibrated parameters.
func (p Fig13Params) withOptions(o Options) Fig13Params {
	p.Seed = o.SeedOr(p.Seed)
	p.DurationS = o.DurationOr(p.DurationS)
	p.Tel = o.Tel
	p.Workers = o.Workers
	return p
}

// Fig13DataCtx runs all three scenarios under the oversubscribed B2
// and OC3 configurations, normalizing against the 20-pcore B2
// baseline. All nine simulations — three scenarios, each at the
// 20-pcore B2 baseline plus the two oversubscribed configs — are
// independent, so they fan out through sweep.Map under p.Workers; the
// improvement normalization happens afterwards on the index-ordered
// metrics, preserving the serial output exactly. Cancellation is
// honored both between runs and inside each run's simulation (the
// kernel checks ctx every event batch), so a cancelled experiment
// returns promptly.
func Fig13DataCtx(ctx context.Context, p Fig13Params) ([]Fig13Cell, error) {
	type run struct {
		sc     Scenario
		label  string
		cfg    freq.Config
		pcores int
	}
	var runs []run
	for _, sc := range TableX() {
		runs = append(runs,
			run{sc, "baseline", freq.B2, sc.VCores()},
			run{sc, "B2-oversub", freq.B2, p.PCores},
			run{sc, "OC3-oversub", freq.OC3, p.PCores})
	}
	burst := newPhaseSchedule(p.SQLLoad.Schedule(p.Seed*977, p.DurationS), p.DurationS)
	metrics, err := sweep.Map(ctx, len(runs), sweep.Options{Workers: p.Workers, Tel: p.Tel},
		func(ctx context.Context, i int) ([]vmMetrics, error) {
			r := runs[i]
			cp := p
			cp.Tel = p.Tel.Child(fmt.Sprintf("%s/%s", r.sc.Name, r.label))
			return runScenario(ctx, cp, r.sc, r.cfg, r.pcores, burst)
		})
	if err != nil {
		return nil, err
	}
	var cells []Fig13Cell
	for s, sc := range TableX() {
		base := metrics[s*3]
		for o := 1; o <= 2; o++ {
			got := metrics[s*3+o]
			label := runs[s*3+o].label
			appCount := map[string]int{}
			for i := range got {
				var imp float64
				if got[i].p95 > 0 || base[i].p95 > 0 {
					if got[i].p95 > 0 && base[i].p95 > 0 {
						imp = 1 - got[i].p95/base[i].p95
					}
				} else if base[i].rate > 0 {
					imp = got[i].rate/base[i].rate - 1
				}
				appCount[got[i].app]++
				cells = append(cells, Fig13Cell{
					Scenario:    sc.Name,
					App:         got[i].app,
					Instance:    appCount[got[i].app],
					Config:      label,
					Improvement: imp,
				})
			}
		}
	}
	return cells, nil
}

// fig13Table renders the scenario cells.
func fig13Table(data []Fig13Cell) *Table {
	t := &Table{
		Title:  "Figure 13 — Improvement vs 20-pcore B2 baseline (20 vcores on 16 pcores)",
		Header: []string{"Scenario", "App", "#", "Config", "Improvement"},
		Notes: []string{
			"paper: B2 oversubscription degrades everything (latency apps worst);",
			"OC3 improves all workloads up to 17%, ≥6% except TeraSort in scenario 1",
		},
	}
	for _, c := range data {
		t.AddRow(c.Scenario, c.App, fmt.Sprintf("%d", c.Instance), c.Config, Pct(c.Improvement))
	}
	return t
}

func init() {
	registerTable("fig13", 140, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) {
			data, err := Fig13DataCtx(ctx, DefaultFig13Params().withOptions(o))
			if err != nil {
				return nil, err
			}
			return fig13Table(data), nil
		})
}
