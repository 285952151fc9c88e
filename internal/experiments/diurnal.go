package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/autoscaler"
)

// DiurnalResult compares auto-scaler policies over a compressed
// diurnal day.
type DiurnalResult struct {
	Results []*autoscaler.Result
}

// DiurnalDataCtx runs Baseline, OC-E and OC-A over a compressed
// diurnal day (raised-cosine load, trough 300 QPS, peak 3300 QPS).
// Diurnal patterns are where the paper expects "scale up, then out" to
// pay off most: the overclock absorbs the morning ramp and the evening
// decline without churning VMs. The zero Options reproduces the
// published run (seed 3, 3600 s day); a cancelled context stops the
// in-flight policy simulation at the kernel's next event batch instead
// of finishing the simulated day. The three policies fan out through
// runPolicies under o.Workers.
func DiurnalDataCtx(ctx context.Context, o Options) (DiurnalResult, error) {
	results, err := runPolicies(ctx, o, autoscaler.DiurnalPhases(300, 3300, o.DurationOr(3600), 120),
		autoscaler.Baseline, autoscaler.OCE, autoscaler.OCA)
	if err != nil {
		return DiurnalResult{}, err
	}
	return DiurnalResult{Results: results}, nil
}

// diurnalTable renders the diurnal-day comparison.
func diurnalTable(res DiurnalResult) *Table {
	base := res.Results[0]
	t := &Table{
		Title:  "Extension — compressed diurnal day (300→3300→300 QPS raised cosine over 1 h)",
		Header: []string{"Policy", "Norm P95", "Max VMs", "VM×hours", "Energy/request", "Scale-outs/ins"},
		Notes: []string{
			"long-running services see this shape daily; OC-A rides the ramps with frequency",
			"instead of churning VMs",
		},
	}
	for _, r := range res.Results {
		t.AddRow(r.Policy.String(),
			F(r.P95LatencyS/base.P95LatencyS, 2),
			fmt.Sprintf("%d", r.MaxVMs),
			F(r.VMHours, 2),
			fmt.Sprintf("%.1f mJ", r.EnergyPerReqJ*1000),
			fmt.Sprintf("%d/%d", r.ScaleOuts, r.ScaleIns))
	}
	return t
}

func init() {
	registerTable("diurnal", 290, []string{"extension", "sim"},
		func(ctx context.Context, o Options) (*Table, error) {
			res, err := DiurnalDataCtx(ctx, o)
			if err != nil {
				return nil, err
			}
			return diurnalTable(res), nil
		})
}
