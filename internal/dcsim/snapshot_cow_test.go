package dcsim

import (
	"math/rand"
	"testing"

	"immersionoc/internal/vm"
)

// TestSnapshotCOWMatchesFullCopy is the randomized COW differential:
// a chained snapshot (re-exported into the same destination after
// every mutation batch, so it exercises the chunk-sharing path) must
// stay byte-identical to a fresh fully-materialized snapshot taken at
// the same instant, across arbitrary mutation traces — placements,
// removals, overclock toggles, steps, server failures and
// remove-after-fail — and across chunk geometries, including chunk
// sizes that do not divide the fleet size.
func TestSnapshotCOWMatchesFullCopy(t *testing.T) {
	for _, shift := range []uint{1, 3, 10} {
		shift := shift
		t.Run(map[uint]string{1: "chunk2", 3: "chunk8", 10: "chunk1024"}[shift], func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Servers = 37 // 37 % 2, 37 % 8, 37 % 1024 all non-zero
			cfg.ServersPerTank = 4
			cfg.Events = []vm.Event{}
			cfg.SnapshotChunkShift = shift
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(int64(shift)))
			sizes := []vm.Type{vm.Size2, vm.Size4, vm.Size8}
			var live []*vm.VM
			nextID := 0

			var chained FleetSnapshot
			for round := 0; round < 60; round++ {
				// One mutation batch.
				for k := 0; k < 1+rng.Intn(5); k++ {
					switch op := rng.Intn(10); {
					case op < 4: // place
						v := &vm.VM{ID: nextID, Type: sizes[rng.Intn(len(sizes))], AvgUtil: 0.3 + 0.4*rng.Float64()}
						nextID++
						if _, err := sim.Place(v); err == nil {
							live = append(live, v)
						}
					case op < 6 && len(live) > 0: // remove
						j := rng.Intn(len(live))
						sim.Remove(live[j])
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
					case op < 8: // overclock toggle
						sim.SetOverclock(rng.Intn(sim.ServerCount()), rng.Intn(2) == 0)
					default:
						sim.Step()
					}
				}
				switch round {
				case 25: // failure batch: Failed column + KPI drops
					gone := map[int]bool{}
					for _, v := range sim.Cluster().FailServers(3) {
						gone[v.ID] = true
					}
					kept := live[:0]
					for _, v := range live {
						if !gone[v.ID] {
							kept = append(kept, v)
						}
					}
					live = kept
				case 26: // remove-after-fail: a displaced VM's departure is a no-op
					sim.Remove(&vm.VM{ID: nextID - 1, Type: vm.Size2})
				}

				sim.Snapshot(&chained)
				var full FleetSnapshot
				sim.Snapshot(&full)
				compareSnapshots(t, round, &chained, &full)
			}
		})
	}
}

// compareSnapshots requires a and b byte-identical in every exported
// field (floats compared exactly: the COW path must share or copy the
// very same values the full materialization reads).
func compareSnapshots(t *testing.T, round int, a, b *FleetSnapshot) {
	t.Helper()
	if a.SimTimeS != b.SimTimeS || a.StepS != b.StepS || a.ServersPerTank != b.ServersPerTank ||
		a.RowPowerW != b.RowPowerW || a.Overclocked != b.Overclocked ||
		a.Rejected != b.Rejected || a.MaxBathC != b.MaxBathC ||
		a.TotalGrants != b.TotalGrants || a.CancelledOverclocks != b.CancelledOverclocks ||
		a.CapEvents != b.CapEvents || a.OverclockServerHours != b.OverclockServerHours ||
		a.MeanWearUsed != b.MeanWearUsed {
		t.Fatalf("round %d: scalar KPI mismatch:\nchained %+v\nfull    %+v", round, a, b)
	}
	if len(a.OCPerTank) != len(b.OCPerTank) || len(a.TankBathC) != len(b.TankBathC) ||
		len(a.TankBudget) != len(b.TankBudget) {
		t.Fatalf("round %d: tank column lengths diverged", round)
	}
	for i := range a.OCPerTank {
		if a.OCPerTank[i] != b.OCPerTank[i] || a.TankBudget[i] != b.TankBudget[i] ||
			a.TankBathC[i] != b.TankBathC[i] {
			t.Fatalf("round %d tank %d: column mismatch", round, i)
		}
	}
	fa, fb := &a.Flat, &b.Flat
	if fa.Servers != fb.Servers || fa.PlacedVMs != fb.PlacedVMs || fa.Density != fb.Density ||
		fa.Spec != fb.Spec || fa.VCoreCap != fb.VCoreCap {
		t.Fatalf("round %d: flat scalar mismatch", round)
	}
	for i := 0; i < fa.Servers; i++ {
		if a.WearUsed.At(i) != b.WearUsed.At(i) || a.WearProRata.At(i) != b.WearProRata.At(i) {
			t.Fatalf("round %d server %d: wear column mismatch", round, i)
		}
		if fa.ID.At(i) != fb.ID.At(i) || fa.VCoresUsed.At(i) != fb.VCoresUsed.At(i) ||
			fa.VMs.At(i) != fb.VMs.At(i) || fa.MemoryUsedGB.At(i) != fb.MemoryUsedGB.At(i) ||
			fa.DemandCores.At(i) != fb.DemandCores.At(i) ||
			fa.Failed.At(i) != fb.Failed.At(i) || fa.Reserved.At(i) != fb.Reserved.At(i) {
			t.Fatalf("round %d server %d: flat column mismatch", round, i)
		}
	}
}
