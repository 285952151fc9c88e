package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/power"
	"immersionoc/internal/reliability"
	"immersionoc/internal/sweep"
	"immersionoc/internal/thermal"
)

// CoolingRow summarizes one cooling technology's overclocking
// capability for a Xeon socket.
type CoolingRow struct {
	Tech          string
	TjNominalC    float64
	TjOverclockC  float64
	OCLifetime    float64
	OCDutyCycle   float64
	SustainedOCOK bool
}

// CoolingOptions returns the per-socket thermal models entering the
// comparison.
func CoolingOptions() []struct {
	Name  string
	Model thermal.Model
} {
	return []struct {
		Name  string
		Model thermal.Model
	}{
		{"Air (direct evaporative)", thermal.XeonTableV.Air},
		{"CPU cold plate", thermal.ColdPlateXeon},
		{"1PIC", thermal.OnePhaseXeon},
		{"2PIC FC-3284", thermal.XeonTableV.Immersion},
		{"2PIC HFE-7000", thermal.XeonTableVHFE.Immersion},
	}
}

// CoolingComparisonDataCtx evaluates each §II cooling option at the
// nominal and overclocked socket operating points: junction
// temperatures, the overclocked lifetime, and the sustainable
// overclocking duty cycle within the 5-year budget. It quantifies the
// paper's argument that liquid cooling — and 2PIC in particular —
// unlocks sustained overclocking. The technology rows fan out through
// sweep.Map under o.Workers: each cell evaluates one cooling model, so
// row order is the CoolingOptions order regardless of worker count.
func CoolingComparisonDataCtx(ctx context.Context, o Options) ([]CoolingRow, error) {
	opts := CoolingOptions()
	return sweep.Map(ctx, len(opts), sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (CoolingRow, error) {
			c := opts[i]
			nom, err := c.Model.JunctionTemp(power.NominalSocketW)
			if err != nil {
				return CoolingRow{}, err
			}
			oc, err := c.Model.JunctionTemp(power.OverclockedSocketW)
			if err != nil {
				return CoolingRow{}, err
			}
			nominal := reliability.Condition{VoltageV: power.NominalVoltage, TjMaxC: nom, TjMinC: c.Model.IdleTemp()}
			ocCond := reliability.Condition{VoltageV: power.OverclockedVoltage, TjMaxC: oc, TjMinC: c.Model.IdleTemp()}
			life, err := reliability.Composite5nm.Lifetime(ocCond)
			if err != nil {
				return CoolingRow{}, err
			}
			duty, err := reliability.Composite5nm.MaxOCDutyCycle(nominal, ocCond, reliability.ServiceLifeYears)
			if err != nil {
				return CoolingRow{}, err
			}
			return CoolingRow{
				Tech:          c.Name,
				TjNominalC:    nom,
				TjOverclockC:  oc,
				OCLifetime:    life,
				OCDutyCycle:   duty,
				SustainedOCOK: life >= reliability.ServiceLifeYears,
			}, nil
		})
}

// coolingComparisonCtx renders the §II technology comparison for
// overclocking from a sweep run.
func coolingComparisonCtx(ctx context.Context, o Options) (*Table, error) {
	rows, err := CoolingComparisonDataCtx(ctx, o)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "§II — Which cooling technologies sustain the 305 W / 0.98 V overclock?",
		Header: []string{"Technology", "Tj @205W", "Tj @305W", "OC lifetime", "OC duty cycle", "Sustained OC"},
		Notes: []string{
			"air cannot hold the overclock at all; 1PIC and FC-3284 sustain it part-time;",
			"cold plates and HFE-7000 sustain it full-time — but cold plates cool only the",
			"plated part (the rest of the server stays on air) and carry the per-SKU",
			"engineering cost that §II argues makes 2PIC the better platform",
		},
	}
	for _, r := range rows {
		ok := "no"
		if r.SustainedOCOK {
			ok = "yes"
		}
		t.AddRow(r.Tech,
			fmt.Sprintf("%.0f°C", r.TjNominalC),
			fmt.Sprintf("%.0f°C", r.TjOverclockC),
			fmt.Sprintf("%.1f y", r.OCLifetime),
			fmt.Sprintf("%.0f%%", r.OCDutyCycle*100),
			ok)
	}
	return t, nil
}

func init() {
	registerTable("cooling", 300, []string{"extension", "fast"},
		func(ctx context.Context, o Options) (*Table, error) { return coolingComparisonCtx(ctx, o) })
}
