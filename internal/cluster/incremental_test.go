package cluster

// Randomized equivalence of the incrementally maintained per-server
// expected demand against a from-scratch recompute, plus the ordering
// invariants of the sorted VM storage the allocation-free iteration
// path relies on.

import (
	"math"
	"testing"
	"testing/quick"

	"immersionoc/internal/rng"
	"immersionoc/internal/vm"
)

// naiveDemand recomputes Σ vcores·AvgUtil from the VM list, the way
// the pre-optimization control loop derived demand every step.
func naiveDemand(s *Server) float64 {
	var d float64
	for _, v := range s.VMsList() {
		d += float64(v.Type.VCores) * v.AvgUtil
	}
	return d
}

func TestExpectedDemandMatchesRecompute(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, 6)
		var placed []*vm.VM
		nextID := 1
		for op := 0; op < 400; op++ {
			if r.Intn(3) > 0 || len(placed) == 0 { // bias toward placing
				v := &vm.VM{
					ID:      nextID,
					Type:    vm.Type{Name: "q", VCores: 1 + r.Intn(12), MemoryGB: 2},
					AvgUtil: 0.01 + 0.98*r.Float64(),
				}
				nextID++
				if _, err := c.Place(v); err == nil {
					placed = append(placed, v)
				}
			} else {
				i := r.Intn(len(placed))
				if err := c.Remove(placed[i]); err != nil {
					return false
				}
				placed[i] = placed[len(placed)-1]
				placed = placed[:len(placed)-1]
			}
			for _, s := range c.Servers() {
				want := naiveDemand(s)
				got := s.ExpectedDemand()
				if s.VMs() == 0 {
					// A drained server must reset exactly, not carry
					// accumulated floating-point residue.
					if got != 0 {
						t.Logf("seed %d: drained server %d demand %v", seed, s.ID, got)
						return false
					}
					continue
				}
				if math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Logf("seed %d: server %d incremental %v vs recompute %v", seed, s.ID, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestVMOrderingInvariants checks that the sorted-slice VM storage
// keeps ID order under randomized churn.
func TestVMOrderingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(TwoSocketBlade, Policy{CPUOversubRatio: 1.0}, 2)
		var placed []*vm.VM
		nextID := 1
		for op := 0; op < 200; op++ {
			if r.Intn(3) > 0 || len(placed) == 0 {
				v := &vm.VM{ID: nextID, Type: vm.Type{Name: "q", VCores: 1, MemoryGB: 1}, AvgUtil: 0.5}
				nextID++
				if _, err := c.Place(v); err == nil {
					placed = append(placed, v)
				}
			} else {
				i := r.Intn(len(placed))
				if err := c.Remove(placed[i]); err != nil {
					return false
				}
				placed[i] = placed[len(placed)-1]
				placed = placed[:len(placed)-1]
			}
		}
		for _, s := range c.Servers() {
			list := s.VMsList()
			for i := 1; i < len(list); i++ {
				if list[i-1].ID >= list[i].ID {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
