package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/autoscaler"
	"immersionoc/internal/queueing"
	"immersionoc/internal/sweep"
)

// Fig15Result carries the model-validation run (scale-up/down only).
type Fig15Result struct {
	WithModel *autoscaler.Result
	Baseline  *autoscaler.Result
}

// Fig15DataCtx runs the Equation 1 validation: three fixed VMs, the
// load stepping 1000→2000→500→3000→1000 QPS, frequency control on,
// versus a baseline that never changes frequency. The zero Options
// reproduces the published run (seed 3); a cancelled context stops the
// in-flight simulation at the kernel's next event batch.
func Fig15DataCtx(ctx context.Context, o Options) (Fig15Result, error) {
	phases := autoscaler.ValidationPhases()

	mk := func(policy autoscaler.Policy) autoscaler.Config {
		cfg := autoscaler.DefaultConfig(policy, phases)
		cfg.Seed = o.SeedOr(3)
		cfg.InitialVMs = 3
		cfg.MinVMs = 3
		cfg.DisableScaleOut = true
		cfg.Tel = o.Tel
		return cfg
	}
	withModel, err := autoscaler.RunCtx(ctx, mk(autoscaler.OCA))
	if err != nil {
		return Fig15Result{}, err
	}
	baseline, err := autoscaler.RunCtx(ctx, mk(autoscaler.Baseline))
	if err != nil {
		return Fig15Result{}, err
	}
	return Fig15Result{WithModel: withModel, Baseline: baseline}, nil
}

// fig15Table renders the validation time series at phase boundaries.
func fig15Table(res Fig15Result) *Table {
	t := &Table{
		Title:  "Figure 15 — Model validation: utilization and frequency under load steps (3 VMs)",
		Header: []string{"t (s)", "QPS", "Util (model)", "Freq (% of range)", "Util (baseline)"},
		Notes: []string{
			"paper: each frequency increase lowers utilization; at 3000 QPS even max frequency",
			"leaves utilization above the 50% scale-out threshold",
		},
	}
	qs := []float64{1000, 2000, 500, 3000, 1000}
	for i, q := range qs {
		// Sample mid-phase (steady state for that load level).
		mid := float64(i)*300 + 210
		t.AddRow(
			fmt.Sprintf("%.0f", mid),
			fmt.Sprintf("%.0f", q),
			F(res.WithModel.Util.At(mid), 3),
			fmt.Sprintf("%.0f%%", res.WithModel.FreqFrac.At(mid)*100),
			F(res.Baseline.Util.At(mid), 3),
		)
	}
	return t
}

// TableXIResult is the full auto-scaler comparison.
type TableXIResult struct {
	Baseline, OCE, OCA *autoscaler.Result
}

// TableXIDataCtx runs the three auto-scaler policies over the
// 500→4000 QPS ramp. The zero Options reproduces the published run
// (seed 3); a cancelled context stops the in-flight policy simulation
// at the kernel's next event batch instead of finishing the ramp. The
// three policies fan out through runPolicies under o.Workers.
func TableXIDataCtx(ctx context.Context, o Options) (TableXIResult, error) {
	rs, err := runPolicies(ctx, o, autoscaler.RampPhases(500, 4000, 500, 300),
		autoscaler.Baseline, autoscaler.OCE, autoscaler.OCA)
	if err != nil {
		return TableXIResult{}, err
	}
	return TableXIResult{Baseline: rs[0], OCE: rs[1], OCA: rs[2]}, nil
}

// runPolicies runs one auto-scaler per policy over the same load
// phases (seed 3 unless o overrides it). The runs share only the
// read-only phase list, so they fan out through sweep.Map under
// o.Workers, each publishing telemetry into a per-policy child scope;
// results keep the policies' order.
func runPolicies(ctx context.Context, o Options, phases []queueing.LoadPhase, policies ...autoscaler.Policy) ([]*autoscaler.Result, error) {
	return sweep.Map(ctx, len(policies), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (*autoscaler.Result, error) {
			cfg := autoscaler.DefaultConfig(policies[i], phases)
			cfg.Seed = o.SeedOr(3)
			cfg.Tel = o.Tel.Child(policies[i].String())
			return autoscaler.RunCtx(ctx, cfg)
		})
}

// tableXITable renders the policy comparison.
func tableXITable(res TableXIResult) *Table {
	t := &Table{
		Title:  "Table XI — Full auto-scaler experiment (ramp 500→4000 QPS)",
		Header: []string{"Config", "Norm P95 Lat", "Norm Avg Lat", "Max VMs", "VM×hours", "VM power vs base"},
		Notes: []string{
			"paper: OC-E 0.58/0.27, 6 VMs, 2.17 VMh, +7% power; OC-A 0.46/0.23, 5 VMs, 1.95 VMh, +27% power",
			"latency ratios here are whole-run request-weighted; the paper's larger ratios concentrate",
			"on the scale-out transition windows (see EXPERIMENTS.md)",
		},
	}
	base := res.Baseline
	row := func(r *autoscaler.Result) {
		t.AddRow(r.Policy.String(),
			F(r.P95LatencyS/base.P95LatencyS, 2),
			F(r.AvgLatencyS/base.AvgLatencyS, 2),
			fmt.Sprintf("%d", r.MaxVMs),
			F(r.VMHours, 2),
			Pct(r.AvgVMPowerW/base.AvgVMPowerW-1),
		)
	}
	row(res.Baseline)
	row(res.OCE)
	row(res.OCA)
	return t
}

// fig16Table renders the utilization traces of the three policies at
// fixed sampling points (one per minute).
func fig16Table(res TableXIResult) *Table {
	t := &Table{
		Title:  "Figure 16 — Utilization over time: Baseline vs OC-E vs OC-A",
		Header: []string{"t (s)", "QPS", "Baseline util", "OC-E util", "OC-A util", "Base VMs", "OC-E VMs", "OC-A VMs"},
	}
	phases := autoscaler.RampPhases(500, 4000, 500, 300)
	total := 0.0
	for _, p := range phases {
		total += p.DurationS
	}
	qpsAt := func(ts float64) float64 {
		off := 0.0
		for _, p := range phases {
			if ts < off+p.DurationS {
				return p.QPS
			}
			off += p.DurationS
		}
		return 0
	}
	for ts := 60.0; ts < total; ts += 60 {
		t.AddRow(
			fmt.Sprintf("%.0f", ts),
			fmt.Sprintf("%.0f", qpsAt(ts)),
			F(res.Baseline.Util.At(ts), 2),
			F(res.OCE.Util.At(ts), 2),
			F(res.OCA.Util.At(ts), 2),
			fmt.Sprintf("%.0f", res.Baseline.VMs.At(ts)),
			fmt.Sprintf("%.0f", res.OCE.VMs.At(ts)),
			fmt.Sprintf("%.0f", res.OCA.VMs.At(ts)),
		)
	}
	return t
}

func init() {
	registerTable("fig15", 150, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) {
			res, err := Fig15DataCtx(ctx, o)
			if err != nil {
				return nil, err
			}
			return fig15Table(res), nil
		})
	registerTable("fig16", 160, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) {
			res, err := TableXIDataCtx(ctx, o)
			if err != nil {
				return nil, err
			}
			return fig16Table(res), nil
		})
	registerTable("table11", 170, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) {
			res, err := TableXIDataCtx(ctx, o)
			if err != nil {
				return nil, err
			}
			return tableXITable(res), nil
		})
}
