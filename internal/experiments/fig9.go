package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/freq"
	"immersionoc/internal/power"
	"immersionoc/internal/sweep"
	"immersionoc/internal/workload"
)

// Fig9Cell is one (application, configuration) measurement of
// Figure 9.
type Fig9Cell struct {
	App    string
	Config string
	// MetricRatio is metric(config)/metric(B2).
	MetricRatio float64
	// Improvement is the fractional improvement over B2.
	Improvement float64
	// AvgPowerW and P99PowerW are server power draws.
	AvgPowerW, P99PowerW float64
}

// Fig9Configs are the configurations plotted in Figure 9 (baseline
// plus the three overclocking combinations).
func Fig9Configs() []freq.Config {
	return []freq.Config{freq.B2, freq.OC1, freq.OC2, freq.OC3}
}

// Fig9DataCtx evaluates the high-performance-VM experiment: each
// Table IX cloud application run alone under B2, OC1, OC2 and OC3. The
// application rows fan out through sweep.Map under o.Workers: each
// cell evaluates one application across all four configurations, so
// row order is the application order regardless of worker count.
func Fig9DataCtx(ctx context.Context, o Options) ([]Fig9Cell, error) {
	apps := workload.Figure9Apps()
	rows, err := sweep.Map(ctx, len(apps), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) ([]Fig9Cell, error) {
			app := apps[i]
			var cells []Fig9Cell
			for _, cfg := range Fig9Configs() {
				avg, p99 := app.ServerPower(power.Tank1Server, cfg)
				cells = append(cells, Fig9Cell{
					App:         app.Name,
					Config:      cfg.Name,
					MetricRatio: app.MetricRatio(cfg),
					Improvement: app.Improvement(cfg),
					AvgPowerW:   avg,
					P99PowerW:   p99,
				})
			}
			return cells, nil
		})
	if err != nil {
		return nil, err
	}
	var cells []Fig9Cell
	for _, r := range rows {
		cells = append(cells, r...)
	}
	return cells, nil
}

// fig9TableCtx renders the Figure 9 reproduction from a sweep run.
func fig9TableCtx(ctx context.Context, o Options) (*Table, error) {
	data, err := Fig9DataCtx(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 9 — Normalized metric and server power per application and configuration",
		Header: []string{"App", "Config", "Norm metric", "Improvement", "Avg power", "P99 power"},
		Notes: []string{
			"paper: overclocking improves all apps 10–25%; OC1 best except TeraSort & DiskSpeed;",
			"OC2 accelerates Pmbench/DiskSpeed; OC3 helps memory-bound SQL most; BI gains only from OC1",
		},
	}
	for _, c := range data {
		t.AddRow(c.App, c.Config, F(c.MetricRatio, 3), Pct(c.Improvement),
			fmt.Sprintf("%.0fW", c.AvgPowerW), fmt.Sprintf("%.0fW", c.P99PowerW))
	}
	return t, nil
}

// Fig10Cell is one (kernel, configuration) STREAM measurement.
type Fig10Cell struct {
	Kernel string
	Config string
	// BandwidthMBs is sustainable bandwidth.
	BandwidthMBs float64
	// VsB1 is the gain over the B1 baseline.
	VsB1 float64
	// PowerW is average server power.
	PowerW float64
}

// Fig10Data evaluates STREAM under all seven Table VII configurations.
func Fig10Data() []Fig10Cell {
	m := workload.DefaultStream
	var cells []Fig10Cell
	for _, k := range workload.StreamKernels() {
		for _, cfg := range freq.TableVII() {
			cells = append(cells, Fig10Cell{
				Kernel:       k.String(),
				Config:       cfg.Name,
				BandwidthMBs: m.Bandwidth(k, cfg),
				VsB1:         m.Improvement(k, freq.B1, cfg),
				PowerW:       m.Power(power.Tank1Server, cfg),
			})
		}
	}
	return cells
}

// Fig10 renders the STREAM reproduction.
func Fig10() *Table {
	t := &Table{
		Title:  "Figure 10 — STREAM sustainable bandwidth and power per configuration",
		Header: []string{"Kernel", "Config", "Bandwidth (MB/s)", "vs B1", "Power"},
		Notes:  []string{"paper: B4 +17% and OC3 +24% over B1; ~10% average power increase"},
	}
	for _, c := range Fig10Data() {
		t.AddRow(c.Kernel, c.Config, F(c.BandwidthMBs, 0), Pct(c.VsB1), fmt.Sprintf("%.0fW", c.PowerW))
	}
	return t
}

// Fig11Cell is one (model, configuration) GPU training measurement.
type Fig11Cell struct {
	Model  string
	Config string
	// TimeRatio is training time normalized to the stock config.
	TimeRatio float64
	// Improvement is 1 − TimeRatio.
	Improvement float64
	// AvgPowerW and P99PowerW are board powers.
	AvgPowerW, P99PowerW float64
}

// Fig11Data evaluates the six VGG models under the four Table VIII
// GPU configurations.
func Fig11Data() []Fig11Cell {
	pm := workload.DefaultGPUPower
	var cells []Fig11Cell
	for _, m := range workload.VGGModels() {
		for _, cfg := range freq.TableVIII() {
			cells = append(cells, Fig11Cell{
				Model:       m.Name,
				Config:      cfg.Name,
				TimeRatio:   m.TimeRatio(cfg),
				Improvement: m.Improvement(cfg),
				AvgPowerW:   pm.Average(cfg),
				P99PowerW:   pm.P99(cfg),
			})
		}
	}
	return cells
}

// Fig11 renders the GPU overclocking reproduction.
func Fig11() *Table {
	t := &Table{
		Title:  "Figure 11 — Normalized VGG training time and GPU power per configuration",
		Header: []string{"Model", "Config", "Norm time", "Improvement", "Avg power", "P99 power"},
		Notes: []string{
			"paper: up to 15% faster; VGG16B gains little past OCG1; P99 power 193W → 231W (+19%)",
		},
	}
	for _, c := range Fig11Data() {
		t.AddRow(c.Model, c.Config, F(c.TimeRatio, 3), Pct(c.Improvement),
			fmt.Sprintf("%.0fW", c.AvgPowerW), fmt.Sprintf("%.0fW", c.P99PowerW))
	}
	return t
}

func init() {
	registerTable("fig9", 100, []string{"paper", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return fig9TableCtx(ctx, o) })
	registerTable("fig10", 110, []string{"paper", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return Fig10(), nil })
	registerTable("fig11", 120, []string{"paper", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return Fig11(), nil })
}
