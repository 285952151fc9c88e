package cluster

// Randomized equivalence of the incrementally maintained per-server
// expected demand against a from-scratch recompute, plus the host
// records and the ordering invariants of the sorted VM storage the
// allocation-free iteration path relies on.

import (
	"fmt"
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

// TestVMOrderingInvariants drives random churn through a cluster:
// placements with non-monotone IDs, removals, server failures,
// recovery, migration plans applied fresh or gone stale, and
// oversubscription changes. After every operation it checks the host
// records against the server lists, the sorted ID storage and the
// incremental accounting. A twin cluster places its own copy of each
// VM, with the same ID and often on the same server index, and must
// never see the original as placed.
func TestVMOrderingInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		const servers = 8
		c := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, servers)
		twin := New(TwoSocketBlade, Policy{CPUOversubRatio: 0.5}, servers)
		copies := map[*vm.VM]*vm.VM{} // VM in c → its copy in twin
		used := map[int]bool{}
		var live, unplaced, displaced []*vm.VM
		take := func(list []*vm.VM, i int) (*vm.VM, []*vm.VM) {
			v := list[i]
			list[i] = list[len(list)-1]
			return v, list[:len(list)-1]
		}
		drop := func(v *vm.VM) {
			for i := range live {
				if live[i] == v {
					_, live = take(live, i)
					return
				}
			}
		}
		fail := func() {
			if c.Stats().FailedServers >= servers/2 {
				return
			}
			out := c.FailServers(1)
			for _, v := range out {
				drop(v)
			}
			displaced = append(displaced, out...)
		}
		for op := 0; op < 300; op++ {
			var what string
			switch p := r.Float64(); {
			case p < 0.45 || len(live) == 0:
				what = "place"
				id := 1 + r.Intn(1_000_000)
				for used[id] {
					id = 1 + r.Intn(1_000_000)
				}
				used[id] = true
				vc := 1 + r.Intn(16)
				v := &vm.VM{ID: id, Type: vm.Type{Name: "q", VCores: vc, MemoryGB: float64(1 + r.Intn(4*vc))}, AvgUtil: 0.01 + 0.98*r.Float64()}
				cp := *v
				if _, err := twin.Place(&cp); err == nil {
					copies[v] = &cp
				}
				if _, err := c.Place(v); err != nil {
					unplaced = append(unplaced, v)
				} else {
					live = append(live, v)
				}
			case p < 0.75:
				what = "remove"
				var v *vm.VM
				v, live = take(live, r.Intn(len(live)))
				if err := c.Remove(v); err != nil {
					t.Logf("seed %d op %d: remove VM %d: %v", seed, op, v.ID, err)
					return false
				}
				unplaced = append(unplaced, v)
			case p < 0.79:
				what = "fail"
				fail()
			case p < 0.85:
				what = "recover"
				c.Recover(displaced)
				for _, v := range displaced {
					if _, ok := c.Host(v); ok {
						live = append(live, v)
					} else {
						unplaced = append(unplaced, v)
					}
				}
				displaced = nil
			case p < 0.95:
				what = "migrate"
				plan := c.PlanMigrations(1 + r.Intn(4))
				switch q := r.Float64(); {
				case len(plan) == 0:
				case q < 0.3:
					// The plan goes stale: its first VM departs.
					drop(plan[0].VM)
					if err := c.Remove(plan[0].VM); err != nil {
						t.Logf("seed %d op %d: remove planned VM: %v", seed, op, err)
						return false
					}
					unplaced = append(unplaced, plan[0].VM)
				case q < 0.5:
					// The plan goes stale: a server fails.
					fail()
				}
				c.ApplyMigrations(plan)
			default:
				what = "oversub"
				c.SetOversubRatio([]float64{0, 0.25, 0.5}[r.Intn(3)])
			}
			if msg := checkHostRecords(c, twin, copies, live, append(unplaced, displaced...)); msg != "" {
				t.Logf("seed %d op %d (%s): %s", seed, op, what, msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// checkHostRecords returns what is wrong with c's placement state, or
// "" when every invariant holds.
func checkHostRecords(c, twin *Cluster, copies map[*vm.VM]*vm.VM, live, unplaced []*vm.VM) string {
	holder := map[*vm.VM]*Server{}
	total := 0
	for _, s := range c.Servers() {
		list := s.VMsList()
		if s.Failed && len(list) > 0 {
			return fmt.Sprintf("failed server %d holds %d VMs", s.ID, len(list))
		}
		vcores, mem := 0, 0.0
		for i, v := range list {
			if i > 0 && list[i-1].ID >= v.ID {
				return fmt.Sprintf("server %d lists ID %d after %d", s.ID, v.ID, list[i-1].ID)
			}
			if h, dup := holder[v]; dup {
				return fmt.Sprintf("VM %d on servers %d and %d", v.ID, h.ID, s.ID)
			}
			holder[v] = s
			vcores += v.Type.VCores
			mem += v.Type.MemoryGB
		}
		total += s.VMs()
		if s.VCoresUsed() != vcores || math.Abs(s.MemoryUsed()-mem) > 1e-9 {
			return fmt.Sprintf("server %d reports %d vcores %v GB, its list holds %d vcores %v GB", s.ID, s.VCoresUsed(), s.MemoryUsed(), vcores, mem)
		}
		if got, want := s.ExpectedDemand(), naiveDemand(s); (len(list) == 0 && got != 0) || math.Abs(got-want) > 1e-9*math.Max(1, want) {
			return fmt.Sprintf("server %d expected demand %v, recomputed %v", s.ID, got, want)
		}
	}
	if total != c.PlacedVMs() || len(holder) != len(live) {
		return fmt.Sprintf("lists hold %d VMs, PlacedVMs %d, live %d", total, c.PlacedVMs(), len(live))
	}
	before := twin.Stats()
	for _, v := range live {
		h, ok := c.Host(v)
		if !ok || h != holder[v] {
			return fmt.Sprintf("live VM %d: Host %v/%v, listed on %v", v.ID, h, ok, holder[v])
		}
		if _, ok := twin.Host(v); ok {
			return fmt.Sprintf("VM %d placed in the twin", v.ID)
		}
		if twin.Remove(v) == nil {
			return fmt.Sprintf("twin removed VM %d", v.ID)
		}
		if cp := copies[v]; cp != nil {
			if _, ok := c.Host(cp); ok {
				return fmt.Sprintf("twin's copy of VM %d placed in the cluster", v.ID)
			}
		}
	}
	if after := twin.Stats(); after != before {
		return fmt.Sprintf("twin changed: %+v → %+v", before, after)
	}
	for _, v := range unplaced {
		if h, ok := c.Host(v); ok || holder[v] != nil {
			return fmt.Sprintf("unplaced VM %d: Host %v/%v, listed on %v", v.ID, h, ok, holder[v])
		}
	}
	return ""
}
