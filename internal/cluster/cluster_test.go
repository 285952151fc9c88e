package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"immersionoc/internal/vm"
)

func mkVM(id, vcores int, memGB float64) *vm.VM {
	return &vm.VM{ID: id, Type: vm.Type{Name: "t", VCores: vcores, MemoryGB: memGB}, AvgUtil: 0.4}
}

func TestPlaceAndRemove(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 2)
	v := mkVM(1, 8, 32)
	s, err := c.Place(v)
	if err != nil {
		t.Fatal(err)
	}
	if s.VCoresUsed() != 8 || s.MemoryUsed() != 32 || s.VMs() != 1 {
		t.Fatalf("server state %d/%v/%d", s.VCoresUsed(), s.MemoryUsed(), s.VMs())
	}
	if err := c.Remove(v); err != nil {
		t.Fatal(err)
	}
	if s.VCoresUsed() != 0 || s.MemoryUsed() != 0 {
		t.Fatal("remove did not free resources")
	}
	if err := c.Remove(v); err == nil {
		t.Fatal("double remove accepted")
	}
}

func TestVCoreCapWithoutOversub(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 1)
	if _, err := c.Place(mkVM(1, 48, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(mkVM(2, 2, 8)); err == nil {
		t.Fatal("placement beyond 1:1 vcore cap accepted")
	}
	if c.Rejected != 1 {
		t.Fatalf("rejected count %d", c.Rejected)
	}
}

func TestOversubscriptionCap(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 1)
	if _, err := c.Place(mkVM(1, 48, 100)); err != nil {
		t.Fatal(err)
	}
	// 25% oversubscription allows 60 vcores total.
	if _, err := c.Place(mkVM(2, 12, 48)); err != nil {
		t.Fatalf("oversubscribed placement rejected: %v", err)
	}
	if _, err := c.Place(mkVM(3, 2, 8)); err == nil {
		t.Fatal("placement beyond oversubscription cap accepted")
	}
	st := c.Stats()
	if st.OversubscribedSrv != 1 {
		t.Fatalf("oversubscribed servers %d, want 1", st.OversubscribedSrv)
	}
}

func TestOversubRequiresOverclockable(t *testing.T) {
	c := New(AirBlade, Policy{CPUOversubRatio: 0.25}, 1)
	if _, err := c.Place(mkVM(1, 48, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(mkVM(2, 2, 8)); err == nil {
		t.Fatal("air-cooled server oversubscribed")
	}
}

func TestMemoryBound(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 1)
	if _, err := c.Place(mkVM(1, 2, 384)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(mkVM(2, 2, 1)); err == nil {
		t.Fatal("placement beyond memory capacity accepted")
	}
}

func TestHighPerfNeedsHeadroom(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 1)
	if _, err := c.Place(mkVM(1, 46, 100)); err != nil {
		t.Fatal(err)
	}
	hp := mkVM(2, 4, 16)
	hp.Class = vm.HighPerf
	// 46+4 = 50 > 48 pcores: a high-performance VM cannot share
	// oversubscribed cores.
	if _, err := c.Place(hp); err == nil {
		t.Fatal("high-perf VM placed into oversubscribed capacity")
	}
	reg := mkVM(3, 4, 16)
	if _, err := c.Place(reg); err != nil {
		t.Fatalf("regular VM should fit via oversubscription: %v", err)
	}
}

// TestHugeVCoresFitNowhere pins the vcore checks against integer
// overflow. A VM's vcores come from an API client; added to a loaded
// server's usage, a value near 2^63 wraps negative and used to pass
// the capacity check there while failing on every empty server. Such a
// VM must fail on capacity everywhere — in Explain and in Flat.Explain
// — and placement must reject it, high-performance class included.
func TestHugeVCoresFitNowhere(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 3)
	if _, err := c.Place(mkVM(1, 4, 16)); err != nil {
		t.Fatal(err)
	}
	var flat Flat
	c.ExportFlat(&flat)
	rejected := 0
	for _, vcores := range []int{math.MaxInt, math.MaxInt - 1, math.MaxInt - 3} {
		for _, class := range []vm.Class{vm.Regular, vm.HighPerf} {
			v := mkVM(2, vcores, 16)
			v.Class = class
			for i, s := range c.Servers() {
				if got := c.Explain(s, v); got != ReasonCapacity {
					t.Errorf("Explain(server %d, %d vcores, %v) = %q, want %q", i, vcores, class, got, ReasonCapacity)
				}
				if got := flat.Explain(i, vcores, 16, class == vm.HighPerf); got != ReasonCapacity {
					t.Errorf("Flat.Explain(server %d, %d vcores, %v) = %q, want %q", i, vcores, class, got, ReasonCapacity)
				}
			}
			rejected++
			if s, err := c.Place(v); err == nil {
				t.Fatalf("%d-vcore %v VM placed on server %d", vcores, class, s.ID)
			}
		}
	}
	if c.Rejected != rejected {
		t.Fatalf("rejected %d, want %d", c.Rejected, rejected)
	}
	if st := c.Stats(); st.PlacedVMs != 1 || c.Density() != st.Density || st.Density < 0 {
		t.Fatalf("after rejections: %d VMs, density %v (incremental %v)", st.PlacedVMs, st.Density, c.Density())
	}
}

func TestHighPerfNeedsOverclockableServer(t *testing.T) {
	c := New(AirBlade, Policy{}, 1)
	hp := mkVM(1, 4, 16)
	hp.Class = vm.HighPerf
	if _, err := c.Place(hp); err == nil {
		t.Fatal("high-perf VM placed on non-overclockable server")
	}
}

func TestBestFitConsolidates(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 3)
	c.Place(mkVM(1, 40, 100))
	c.Place(mkVM(2, 20, 60))
	// A 8-vcore VM fits on server 0 (40+8=48, exact) — best fit must
	// choose it over the emptier server 1.
	s, err := c.Place(mkVM(3, 8, 30))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != 0 {
		t.Fatalf("best fit placed on server %d, want 0", s.ID)
	}
}

func TestReservedServersSkipped(t *testing.T) {
	c := New(TwoSocketBlade, Policy{BufferFraction: 0.5}, 2)
	st := c.Stats()
	if st.ReservedServers != 1 {
		t.Fatalf("reserved %d, want 1", st.ReservedServers)
	}
	if _, err := c.Place(mkVM(1, 48, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Place(mkVM(2, 48, 100)); err == nil {
		t.Fatal("normal placement used the reserved buffer")
	}
}

func TestFailAndRecoverWithBuffer(t *testing.T) {
	c := New(TwoSocketBlade, Policy{BufferFraction: 0.25}, 4)
	var placed []*vm.VM
	for i := 1; i <= 6; i++ {
		v := mkVM(i, 16, 64)
		if _, err := c.Place(v); err != nil {
			t.Fatal(err)
		}
		placed = append(placed, v)
	}
	displaced := c.FailServers(1)
	if len(displaced) == 0 {
		t.Fatal("failure displaced nothing")
	}
	recovered := c.Recover(displaced)
	if recovered != len(displaced) {
		t.Fatalf("recovered %d of %d with a reserved buffer", recovered, len(displaced))
	}
	st := c.Stats()
	if st.FailedServers != 1 {
		t.Fatalf("failed servers %d", st.FailedServers)
	}
}

func TestFailServersTargetsLoaded(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 3)
	c.Place(mkVM(1, 16, 64))
	c.Place(mkVM(2, 16, 64))
	c.Place(mkVM(3, 16, 64)) // all consolidate onto server 0 (best fit)
	displaced := c.FailServers(1)
	if len(displaced) != 3 {
		t.Fatalf("displaced %d VMs, want 3 (most loaded server)", len(displaced))
	}
}

func TestSetOversubRatio(t *testing.T) {
	c := New(TwoSocketBlade, Policy{}, 1)
	c.Place(mkVM(1, 48, 100))
	if _, err := c.Place(mkVM(2, 4, 16)); err == nil {
		t.Fatal("1:1 fleet oversubscribed")
	}
	c.SetOversubRatio(0.25)
	if _, err := c.Place(mkVM(3, 4, 16)); err != nil {
		t.Fatalf("post-enable oversubscription rejected: %v", err)
	}
	c.SetOversubRatio(-1)
	if c.Policy.CPUOversubRatio != 0 {
		t.Fatal("negative ratio not clamped")
	}
}

func TestStatsDensity(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 2)
	c.Place(mkVM(1, 48, 100))
	c.Place(mkVM(2, 24, 60))
	st := c.Stats()
	if st.PlacedVMs != 2 {
		t.Fatalf("placed %d", st.PlacedVMs)
	}
	want := 72.0 / 96.0
	if st.Density != want {
		t.Fatalf("density %v, want %v", st.Density, want)
	}
}

func TestInterferenceRisk(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 1)
	hot := mkVM(1, 48, 100)
	hot.AvgUtil = 1.0
	c.Place(hot)
	hot2 := mkVM(2, 24, 60)
	hot2.AvgUtil = 1.0
	c.Place(hot2)
	// Demand 72 core-equivalents > 48 × 1.20 = 57.6 even overclocked.
	if got := c.InterferenceRisk(); got != 1 {
		t.Fatalf("interference risk %d, want 1", got)
	}
	// Low utilization: overclocking covers the oversubscription.
	c2 := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 1)
	cold := mkVM(1, 48, 100)
	cold.AvgUtil = 0.3
	c2.Place(cold)
	cold2 := mkVM(2, 24, 60)
	cold2.AvgUtil = 0.3
	c2.Place(cold2)
	if got := c2.InterferenceRisk(); got != 0 {
		t.Fatalf("interference risk %d, want 0", got)
	}
}

func TestPackTraceConservesResources(t *testing.T) {
	f := func(seed uint64) bool {
		trace := vm.Generate(vm.TraceConfig{
			Seed: seed, ArrivalRatePerS: 0.02, DurationS: 6 * 3600,
			MeanLifetimeS: 3600, HighPerfFraction: 0.1,
		})
		c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.2}, 4)
		c.PackTrace(trace)
		for _, s := range c.Servers() {
			if s.VCoresUsed() < 0 || s.MemoryUsed() < -1e-9 {
				return false
			}
			if s.VCoresUsed() > int(float64(s.Spec.PCores)*1.2+0.5) {
				return false
			}
			if s.MemoryUsed() > s.Spec.MemoryGB+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPackTraceDeterministic(t *testing.T) {
	trace := vm.Generate(vm.TraceConfig{Seed: 5, ArrivalRatePerS: 0.02, DurationS: 6 * 3600, MeanLifetimeS: 3600})
	c1 := New(TwoSocketBlade, Policy{}, 4)
	d1, r1 := c1.PackTrace(trace)
	c2 := New(TwoSocketBlade, Policy{}, 4)
	d2, r2 := c2.PackTrace(trace)
	if d1 != d2 || r1 != r2 {
		t.Fatalf("pack trace not deterministic: %v/%d vs %v/%d", d1, r1, d2, r2)
	}
}

func TestPlanMigrationsRelievesOversubscription(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 3)
	// Fill server 0 to 60/48 vcores (oversubscribed), leave 1 and 2
	// nearly empty.
	for i := 1; i <= 15; i++ {
		if _, err := c.Place(mkVM(i, 4, 16)); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.OversubscribedSrv == 0 {
		t.Fatal("setup did not oversubscribe")
	}
	plan := c.PlanMigrations(10)
	if len(plan) == 0 {
		t.Fatal("no migrations planned")
	}
	moved := c.ApplyMigrations(plan)
	if moved != len(plan) {
		t.Fatalf("applied %d of %d", moved, len(plan))
	}
	if c.Stats().OversubscribedSrv != 0 {
		t.Fatal("oversubscription not cleared by migration")
	}
	// Resource conservation: total vcores unchanged.
	if got := c.Stats().VCoresAllocated; got != 60 {
		t.Fatalf("vcores after migration %d, want 60", got)
	}
}

func TestPlanMigrationsRespectsMaxMoves(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 3)
	for i := 1; i <= 15; i++ {
		c.Place(mkVM(i, 4, 16))
	}
	plan := c.PlanMigrations(1)
	if len(plan) != 1 {
		t.Fatalf("plan size %d, want 1", len(plan))
	}
}

func TestPlanMigrationsNoDestination(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 1)
	for i := 1; i <= 15; i++ {
		c.Place(mkVM(i, 4, 16))
	}
	if plan := c.PlanMigrations(10); len(plan) != 0 {
		t.Fatalf("planned %d moves with nowhere to go", len(plan))
	}
}

func TestPlanMigrationsIdempotentReservations(t *testing.T) {
	c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.25}, 3)
	for i := 1; i <= 15; i++ {
		c.Place(mkVM(i, 4, 16))
	}
	before := c.Stats().VCoresAllocated
	_ = c.PlanMigrations(10) // plan only, never applied
	if got := c.Stats().VCoresAllocated; got != before {
		t.Fatalf("planning leaked reservations: %d vs %d", got, before)
	}
}
