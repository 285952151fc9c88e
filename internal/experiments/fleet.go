package experiments

import (
	"context"
	"fmt"

	"immersionoc/internal/cluster"
	"immersionoc/internal/sweep"
	"immersionoc/internal/vm"
)

// packOutcome is one fleet's trace replay: peak density, rejected
// arrivals, and the post-replay interference count (only meaningful
// for oversubscribed fleets).
type packOutcome struct {
	peak   float64
	rej    int
	atRisk int
}

// packFleets replays the same trace through independent fleets,
// fanning the replays out through sweep.Map under o.Workers. Each
// fleet replays its own generated copy of the trace: a placed VM
// carries its host record, so one VM object must not sit in two live
// clusters.
func packFleets(ctx context.Context, o Options, trace vm.TraceConfig, mk func(i int) *cluster.Cluster) ([]packOutcome, error) {
	return sweep.Map(ctx, 2, sweep.Options{Workers: o.Workers, Tel: o.Tel},
		func(ctx context.Context, i int) (packOutcome, error) {
			c := mk(i)
			peak, rej := c.PackTrace(vm.Generate(trace))
			return packOutcome{peak: peak, rej: rej, atRisk: c.InterferenceRisk()}, nil
		})
}

// PackingResult compares packing density with and without
// overclocking-backed oversubscription.
type PackingResult struct {
	BaselineDensity, OversubDensity   float64
	BaselineRejected, OversubRejected int
	// DensityGain is the relative packing-density improvement.
	DensityGain float64
	AtRisk      int
}

// PackingDataCtx replays a VM trace through two fleets of equal size:
// an air-cooled fleet (1:1 vcore:pcore) and a 2PIC fleet allowed 20%
// CPU oversubscription backed by overclocking (§V "Dense VM packing").
// The two fleet replays fan out through sweep.Map under o.Workers;
// both replay the same seeded trace, so the result is
// worker-count-independent.
func PackingDataCtx(ctx context.Context, o Options, servers int, trace vm.TraceConfig, oversub float64) (PackingResult, error) {
	outs, err := packFleets(ctx, o, trace, func(i int) *cluster.Cluster {
		if i == 0 {
			return cluster.New(cluster.AirBlade, cluster.Policy{}, servers)
		}
		return cluster.New(cluster.TwoSocketBlade, cluster.Policy{CPUOversubRatio: oversub}, servers)
	})
	if err != nil {
		return PackingResult{}, err
	}
	base, over := outs[0], outs[1]
	gain := 0.0
	if base.peak > 0 {
		gain = over.peak/base.peak - 1
	}
	return PackingResult{
		BaselineDensity:  base.peak,
		OversubDensity:   over.peak,
		BaselineRejected: base.rej,
		OversubRejected:  over.rej,
		DensityGain:      gain,
		AtRisk:           over.atRisk,
	}, nil
}

// packingCtx renders the packing-density experiment from a sweep run.
func packingCtx(ctx context.Context, o Options) (*Table, error) {
	trace := vm.DefaultTrace
	// Sized so steady demand hovers around the air fleet's 1:1
	// capacity: the oversubscribed fleet absorbs the overflow.
	trace.ArrivalRatePerS = 0.012
	res, err := PackingDataCtx(ctx, o, 24, trace, 0.25)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "§V — VM packing density via overclocking-backed oversubscription (24 servers)",
		Header: []string{"Fleet", "Peak density (vcores/pcore)", "Rejected arrivals"},
		Notes:  []string{"paper: overclocking + oversubscription increases packing density by ~20%"},
	}
	t.AddRow("Air-cooled (1:1)", F(res.BaselineDensity, 3), fmt.Sprintf("%d", res.BaselineRejected))
	t.AddRow("2PIC + 25% oversub", F(res.OversubDensity, 3), fmt.Sprintf("%d", res.OversubRejected))
	t.Notes = append(t.Notes,
		fmt.Sprintf("density gain %+.1f%%; oversubscribed servers exceeding even overclocked capacity: %d", res.DensityGain*100, res.AtRisk))
	return t, nil
}

// BufferResult compares static failover buffers with
// overclocking-backed virtual buffers (Figure 6).
type BufferResult struct {
	// StaticRecovered / VirtualRecovered are the fractions of
	// displaced VMs re-created after the failure.
	StaticRecovered, VirtualRecovered float64
	// StaticSellable / VirtualSellable are the vcores the fleet can
	// sell during normal operation (the static buffer idles
	// capacity; the virtual buffer sells it).
	StaticSellable, VirtualSellable int
	Displaced                       int
}

// BuffersData fills two equal fleets to the same demand, fails
// `failures` servers in each, and recovers the displaced VMs: the
// static fleet onto its reserved buffer servers, the virtual fleet
// onto surviving servers via oversubscription + overclocking. Each
// fleet fills from its own generated copy of the trace, since a placed
// VM carries its host record.
func BuffersData(servers, failures int, bufferFraction float64, trace vm.TraceConfig) BufferResult {
	staticC := cluster.New(cluster.TwoSocketBlade, cluster.Policy{BufferFraction: bufferFraction}, servers)
	// The virtual-buffer fleet runs 1:1 during normal operation and
	// keeps the overclocking headroom in reserve for failover.
	virtualC := cluster.New(cluster.TwoSocketBlade, cluster.Policy{}, servers)

	// Steady-state fill: place every VM that fits, no departures.
	for _, v := range vm.Generate(trace) {
		staticC.Place(v) //nolint:errcheck — rejection is the signal
	}
	for _, v := range vm.Generate(trace) {
		virtualC.Place(v) //nolint:errcheck
	}
	stStatic := staticC.Stats()
	stVirtual := virtualC.Stats()

	res := BufferResult{
		StaticSellable:  stStatic.VCoresAllocated,
		VirtualSellable: stVirtual.VCoresAllocated,
	}

	dispStatic := staticC.FailServers(failures)
	recStatic := staticC.Recover(dispStatic)
	dispVirtual := virtualC.FailServers(failures)
	// Failover: enable overclocking-backed oversubscription to absorb
	// the displaced VMs on the surviving servers.
	virtualC.SetOversubRatio(0.25)
	recVirtual := virtualC.Recover(dispVirtual)

	res.Displaced = len(dispStatic)
	if len(dispStatic) > 0 {
		res.StaticRecovered = float64(recStatic) / float64(len(dispStatic))
	}
	if len(dispVirtual) > 0 {
		res.VirtualRecovered = float64(recVirtual) / float64(len(dispVirtual))
	}
	return res
}

// Buffers renders the buffer-reduction experiment.
func Buffers() *Table {
	trace := vm.DefaultTrace
	trace.ArrivalRatePerS = 0.25
	trace.DurationS = 24 * 3600
	trace.MeanLifetimeS = 48 * 3600
	res := BuffersData(20, 2, 0.10, trace)
	t := &Table{
		Title:  "Figure 6 — Static failover buffers vs overclocking-backed virtual buffers (20 servers, 2 failures)",
		Header: []string{"Strategy", "Sellable vcores (normal op)", "Displaced VMs recovered"},
		Notes: []string{
			"the virtual buffer sells the reserve capacity during normal operation and absorbs",
			"failover through oversubscription + overclocking",
		},
	}
	t.AddRow("Static buffer (10% reserved)", fmt.Sprintf("%d", res.StaticSellable), Pct(res.StaticRecovered))
	t.AddRow("Virtual buffer (OC-backed)", fmt.Sprintf("%d", res.VirtualSellable), Pct(res.VirtualRecovered))
	return t
}

// CapacityCrisisResult quantifies Figure 7: a demand overshoot against
// fixed supply, bridged by overclocking-backed oversubscription.
type CapacityCrisisResult struct {
	// DemandVCores is the peak demanded vcores; SupplyPCores the
	// fleet's physical cores.
	DemandVCores, SupplyPCores int
	// ServedBaseline / ServedOC are peak vcores actually placed.
	ServedBaseline, ServedOC int
	// DeniedBaseline / DeniedOC are VM requests denied.
	DeniedBaseline, DeniedOC int
}

// CapacityCrisisDataCtx replays a demand trace whose peak exceeds the
// fleet's 1:1 capacity (the red gap of Figure 7) through a baseline
// and an overclocking-backed fleet, counting denied VM requests. The
// two fleet replays fan out through sweep.Map under o.Workers.
func CapacityCrisisDataCtx(ctx context.Context, o Options, servers int, trace vm.TraceConfig) (CapacityCrisisResult, error) {
	vms := vm.Generate(trace)
	peak := 0
	cur := 0
	for _, ev := range vm.Events(vms) {
		if ev.Arrival {
			cur += ev.VM.Type.VCores
			if cur > peak {
				peak = cur
			}
		} else {
			cur -= ev.VM.Type.VCores
		}
	}

	res := CapacityCrisisResult{DemandVCores: peak, SupplyPCores: servers * cluster.TwoSocketBlade.PCores}
	outs, err := packFleets(ctx, o, trace, func(i int) *cluster.Cluster {
		if i == 0 {
			return cluster.New(cluster.TwoSocketBlade, cluster.Policy{}, servers)
		}
		return cluster.New(cluster.TwoSocketBlade, cluster.Policy{CPUOversubRatio: 0.20}, servers)
	})
	if err != nil {
		return CapacityCrisisResult{}, err
	}
	res.DeniedBaseline = outs[0].rej
	res.DeniedOC = outs[1].rej
	res.ServedBaseline = int(outs[0].peak * float64(res.SupplyPCores))
	res.ServedOC = int(outs[1].peak * float64(res.SupplyPCores))
	return res, nil
}

// capacityCrisisCtx renders the capacity-crisis experiment from a
// sweep run.
func capacityCrisisCtx(ctx context.Context, o Options) (*Table, error) {
	trace := vm.DefaultTrace
	trace.Seed = 99
	trace.ArrivalRatePerS = 0.012
	trace.DurationS = 2 * 24 * 3600
	trace.MeanLifetimeS = 24 * 3600
	res, err := CapacityCrisisDataCtx(ctx, o, 16, trace)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 7 — Capacity crisis mitigation (demand beyond supply)",
		Header: []string{"Fleet", "VM requests denied"},
		Notes:  []string{fmt.Sprintf("peak demand %d vcores against %d pcores", res.DemandVCores, res.SupplyPCores)},
	}
	t.AddRow("1:1 (no overclocking)", fmt.Sprintf("%d", res.DeniedBaseline))
	t.AddRow("overclocking-backed +20%", fmt.Sprintf("%d", res.DeniedOC))
	return t, nil
}

func init() {
	registerTable("packing", 180, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) { return packingCtx(ctx, o) })
	registerTable("buffers", 190, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) { return Buffers(), nil })
	registerTable("capacity", 200, []string{"paper", "sim"},
		func(ctx context.Context, o Options) (*Table, error) { return capacityCrisisCtx(ctx, o) })
}
