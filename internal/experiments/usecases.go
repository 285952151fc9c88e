package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/core"
	"immersionoc/internal/power"
	"immersionoc/internal/reliability"
	"immersionoc/internal/server"
	"immersionoc/internal/thermal"
	"immersionoc/internal/workload"
)

// HighPerfRow is one application's high-performance-VM offering.
type HighPerfRow struct {
	App           string
	Config        string
	Improvement   float64
	PowerDeltaW   float64
	LifetimeYears float64
	Granted       bool
}

// HighPerfData evaluates the paper's first use-case (Figure 5c):
// selling high-performance VMs that run overclocked. For each cloud
// application the governor picks the best admissible configuration on
// the immersed server; the same request against the air-cooled twin
// shows why the offering needs 2PIC.
func HighPerfData() ([]HighPerfRow, int, error) {
	immersed := core.NewGovernor(server.New(server.Tank1Spec()))
	air := core.NewGovernor(server.New(server.AirSpec()))

	var rows []HighPerfRow
	airDenied := 0
	for _, app := range workload.Figure9Apps() {
		req := core.Request{
			Vector:      core.VectorOf(app),
			Objective:   core.MaxPerformance,
			UtilSum:     float64(app.Cores) * app.AvgUtil,
			ActiveCores: app.Cores,
		}
		d, err := immersed.Decide(req)
		row := HighPerfRow{App: app.Name}
		if err == nil {
			row.Config = d.Config.Name
			row.Improvement = d.Improvement
			row.PowerDeltaW = d.PowerDeltaW
			row.LifetimeYears = d.LifetimeYears
			row.Granted = true
		}
		rows = append(rows, row)
		if _, err := air.Decide(req); err != nil {
			airDenied++
		}
	}
	return rows, airDenied, nil
}

// HighPerf renders the high-performance VM offering.
func HighPerf() (*Table, error) {
	rows, airDenied, err := HighPerfData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 5(c) — High-performance VM offering (governor-granted overclock per workload)",
		Header: []string{"App", "Config", "Guaranteed gain", "Added power", "Lifetime"},
		Notes: []string{
			"the governor grants each workload the best configuration that keeps the",
			"5-year service life; green-band overclocking makes the gain guaranteed, not opportunistic",
			fmt.Sprintf("the air-cooled twin denies the offering for %d of %d workloads", airDenied, len(rows)),
		},
	}
	for _, r := range rows {
		if !r.Granted {
			t.AddRow(r.App, "—", "denied", "", "")
			continue
		}
		t.AddRow(r.App, r.Config, Pct(r.Improvement),
			fmt.Sprintf("+%.0f W", r.PowerDeltaW), fmt.Sprintf("%.1f y", r.LifetimeYears))
	}
	return t, nil
}

// WearBudgetRow is one cooling option's sustainable overclocking duty
// cycle.
type WearBudgetRow struct {
	Cooling   string
	NominalTj float64
	OCTj      float64
	DutyCycle float64
}

// WearBudgetData computes, per cooling option, the fraction of the
// service life a socket can spend at the 305 W / 0.98 V overclock while
// still lasting the full 5 years — the paper's "lifetime credit" traded
// for performance, and the quantity its proposed wear-out counters
// would enforce.
func WearBudgetData() ([]WearBudgetRow, error) {
	cases := []struct {
		name string
		tm   thermal.Model
	}{
		{"Air cooling", thermal.XeonTableV.Air},
		{"FC-3284", thermal.XeonTableV.Immersion},
		{"HFE-7000", thermal.XeonTableVHFE.Immersion},
	}
	var rows []WearBudgetRow
	for _, c := range cases {
		nomTj, err := c.tm.JunctionTemp(power.NominalSocketW)
		if err != nil {
			return nil, err
		}
		ocTj, err := c.tm.JunctionTemp(power.OverclockedSocketW)
		if err != nil {
			return nil, err
		}
		nominal := reliability.Condition{VoltageV: power.NominalVoltage, TjMaxC: nomTj, TjMinC: c.tm.IdleTemp()}
		oc := reliability.Condition{VoltageV: power.OverclockedVoltage, TjMaxC: ocTj, TjMinC: c.tm.IdleTemp()}
		duty, err := reliability.Composite5nm.MaxOCDutyCycle(nominal, oc, reliability.ServiceLifeYears)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WearBudgetRow{Cooling: c.name, NominalTj: nomTj, OCTj: ocTj, DutyCycle: duty})
	}
	return rows, nil
}

// WearBudget renders the duty-cycle analysis.
func WearBudget() (*Table, error) {
	rows, err := WearBudgetData()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "§IV — Sustainable overclocking duty cycle within the 5-year wear budget",
		Header: []string{"Cooling", "Tj nominal", "Tj overclocked", "Max OC duty cycle"},
		Notes: []string{
			"the fraction of the service life a socket can spend at 305 W / 0.98 V and still",
			"last 5 years — the wear-out-counter arithmetic the paper proposes with manufacturers",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Cooling, fmt.Sprintf("%.0f°C", r.NominalTj), fmt.Sprintf("%.0f°C", r.OCTj),
			fmt.Sprintf("%.0f%%", r.DutyCycle*100))
	}
	return t, nil
}

// gpuGovernor renders the GPU governor's Table VIII choice for each
// VGG model on small tank #2's RTX 2080ti (§VI-B), under the
// max-performance objective and again under perf-per-watt.
func gpuGovernor() (*Table, error) {
	pm := server.Tank2Spec().GPU.Power
	t := &Table{
		Title: "§VI-B — GPU governor: Table VIII configuration per VGG model (tank #2 RTX 2080ti)",
		Header: []string{"Model", "Max-perf config", "Max-perf gain", "Max-perf added P99",
			"Perf/W config", "Perf/W gain", "Perf/W added P99"},
		Notes: []string{
			"max-perf gains within 0.5 pp are ties that go to the cheaper config, so the governor",
			"refuses OCG3's memory clock wherever it adds power without adding performance",
			"paper: OCG3 raised VGG16B's P99 power 9.5% over OCG1 for little to no improvement",
		},
	}
	for _, m := range workload.VGGModels() {
		row := []string{m.Name}
		for _, obj := range []core.Objective{core.MaxPerformance, core.PerfPerWatt} {
			d, err := core.DecideGPU(m, obj, pm)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", m.Name, err)
			}
			row = append(row, d.Config.Name, Pct(d.Improvement), fmt.Sprintf("%+.0f W", d.PowerDeltaW))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func init() {
	registerTable("highperf", 270, []string{"extension", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return HighPerf() })
	registerTable("wearbudget", 280, []string{"extension", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return WearBudget() })
	registerTable("gpu-governor", 330, []string{"extension", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return gpuGovernor() })
}
