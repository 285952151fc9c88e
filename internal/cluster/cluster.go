// Package cluster simulates fleet-level VM placement: the
// multi-dimensional bin packing providers use (§V "Dense VM packing"),
// CPU oversubscription backed by overclocking, failover buffers
// (Figure 6), and capacity-crisis mitigation (Figure 7).
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"immersionoc/internal/cow"
	"immersionoc/internal/vm"
)

// ServerSpec describes the physical shape of fleet servers.
type ServerSpec struct {
	PCores   int
	MemoryGB float64
	// Overclockable reports whether the server can enter the
	// overclocking bands (2PIC fleet).
	Overclockable bool
	// OCSpeedup is the throughput gain available from overclocking
	// (e.g. 1.20 for the +20% core/uncore overclock of OC3); it
	// bounds how much CPU oversubscription overclocking can absorb.
	OCSpeedup float64
}

// TwoSocketBlade is the large-tank Open Compute shape: 2 × 24 cores.
var TwoSocketBlade = ServerSpec{PCores: 48, MemoryGB: 384, Overclockable: true, OCSpeedup: 1.20}

// AirBlade is the same shape without overclocking capability.
var AirBlade = ServerSpec{PCores: 48, MemoryGB: 384, Overclockable: false, OCSpeedup: 1.0}

// Server is one fleet server with its current allocations.
type Server struct {
	ID   int
	Spec ServerSpec
	// Reserved marks buffer servers that normal placement skips.
	Reserved bool
	// Failed marks servers lost to an infrastructure failure.
	Failed bool

	// vms holds the placed VMs sorted by ascending ID, each ID inline
	// beside its VM so the binary searches that insert and find
	// entries never dereference a VM. A sorted slice instead of a map
	// keeps iteration order deterministic without a per-read
	// sort-and-copy, which is what lets fleet control loops walk
	// allocations allocation-free.
	vms       []vmRef
	vcoresUse int
	memUse    float64
	// expDemand is the expected concurrent core demand
	// Σ vcores·AvgUtil over the placed VMs, maintained incrementally
	// on placement changes so control planes read it as a field
	// instead of re-summing the allocation list every step.
	expDemand float64
}

// vmRef is one entry of a server's VM list.
type vmRef struct {
	id int
	v  *vm.VM
}

// VCoresUsed returns allocated vcores.
func (s *Server) VCoresUsed() int { return s.vcoresUse }

// MemoryUsed returns allocated memory in GB.
func (s *Server) MemoryUsed() float64 { return s.memUse }

// VMs returns the number of VMs placed on the server.
func (s *Server) VMs() int { return len(s.vms) }

// Oversubscribed reports whether allocated vcores exceed pcores.
func (s *Server) Oversubscribed() bool { return s.vcoresUse > s.Spec.PCores }

// ExpectedDemand returns the server's expected concurrent core demand
// (Σ vcores·AvgUtil over its placed VMs). The value is maintained
// incrementally by Place/Remove/failure/migration paths, so reading it
// is O(1); drained servers reset it exactly to zero.
func (s *Server) ExpectedDemand() float64 { return s.expDemand }

// VMsList returns a copy of the server's placed VMs in ascending ID
// order.
func (s *Server) VMsList() []*vm.VM {
	out := make([]*vm.VM, len(s.vms))
	for i, r := range s.vms {
		out[i] = r.v
	}
	return out
}

// search returns the first position in s.vms whose ID is ≥ id.
func (s *Server) search(id int) int {
	lo, hi := 0, len(s.vms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s.vms[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// attach inserts v keeping s.vms sorted by ID and updates the
// incremental resource accounting.
func (s *Server) attach(v *vm.VM) {
	i := s.search(v.ID)
	s.vms = append(s.vms, vmRef{})
	copy(s.vms[i+1:], s.vms[i:])
	s.vms[i] = vmRef{id: v.ID, v: v}
	s.vcoresUse += v.Type.VCores
	s.memUse += v.Type.MemoryGB
	s.expDemand += float64(v.Type.VCores) * v.AvgUtil
}

// detach removes the VM at position i and updates the incremental
// accounting. A fully drained server resets its expected demand to an
// exact zero so floating-point residue cannot accumulate across
// place/remove cycles.
func (s *Server) detach(i int) {
	v := s.vms[i].v
	copy(s.vms[i:], s.vms[i+1:])
	s.vms[len(s.vms)-1] = vmRef{}
	s.vms = s.vms[:len(s.vms)-1]
	s.vcoresUse -= v.Type.VCores
	s.memUse -= v.Type.MemoryGB
	if len(s.vms) == 0 {
		s.expDemand = 0
	} else {
		s.expDemand -= float64(v.Type.VCores) * v.AvgUtil
	}
}

// Policy controls placement behaviour.
type Policy struct {
	// CPUOversubRatio allows allocated vcores up to
	// (1+ratio)·pcores on overclockable servers. Zero disables
	// oversubscription.
	CPUOversubRatio float64
	// BufferFraction reserves that fraction of servers for failover
	// (the static buffer of Figure 6). With overclocking-backed
	// virtual buffers this is zero.
	BufferFraction float64
}

// Cluster is a fleet of servers plus a placement policy.
type Cluster struct {
	Spec    ServerSpec
	Policy  Policy
	servers []*Server
	// idx is the best-fit placement index: non-reserved live servers
	// bucketed by remaining vcore headroom. Maintained by every
	// mutation path (place/remove/fail/migrate/policy change).
	idx *placeIndex
	// track records which export chunks the mutation paths dirtied
	// since the last ExportFlat; server IDs double as fleet indices
	// (New assigns ID = i), so marking by ID marks the export row.
	track *cow.Tracker
	// placedCount / vcoresAlloc / pcoresLive are the Stats() packing
	// KPIs maintained incrementally (failed servers excluded), so
	// PlacedVMs and Density are O(1) reads instead of fleet scans.
	placedCount int
	vcoresAlloc int
	pcoresLive  int
	// Rejected counts placement failures.
	Rejected int
}

// New builds a cluster of n servers, reserving the policy's buffer
// fraction as failover capacity.
func New(spec ServerSpec, policy Policy, n int) *Cluster {
	c := &Cluster{Spec: spec, Policy: policy}
	reserve := int(float64(n) * policy.BufferFraction)
	for i := 0; i < n; i++ {
		s := &Server{ID: i, Spec: spec}
		if i >= n-reserve {
			s.Reserved = true
		}
		c.servers = append(c.servers, s)
		c.pcoresLive += spec.PCores
	}
	c.track = cow.NewTracker(n, 0)
	c.rebuildIndex()
	return c
}

// SetExportChunkShift re-chunks the flat export at 1<<shift servers
// per chunk (shift 0 restores the default). Test hook for exercising
// the COW machinery at small chunk sizes; call it before the first
// ExportFlat — it resets dirty tracking, and a Flat filled under the
// old geometry is fully re-materialized on its next export.
func (c *Cluster) SetExportChunkShift(shift uint) {
	c.track = cow.NewTracker(len(c.servers), shift)
}

// PlacedVMs returns the number of VMs placed on non-failed servers,
// maintained incrementally — the Stats().PlacedVMs value as an O(1)
// read.
func (c *Cluster) PlacedVMs() int { return c.placedCount }

// Density returns allocated vcores per available pcore, maintained
// incrementally — the Stats().Density value as an O(1) read (same
// integer division, so the float is bit-identical).
func (c *Cluster) Density() float64 {
	if c.pcoresLive > 0 {
		return float64(c.vcoresAlloc) / float64(c.pcoresLive)
	}
	return 0
}

// Servers returns the fleet.
func (c *Cluster) Servers() []*Server { return c.servers }

// SetOversubRatio changes the CPU oversubscription policy at runtime.
// The virtual-buffer use-case (Figure 6) runs the fleet 1:1 during
// normal operation and enables overclocking-backed oversubscription
// only to absorb failover.
func (c *Cluster) SetOversubRatio(r float64) {
	if r < 0 {
		r = 0
	}
	c.Policy.CPUOversubRatio = r
	// The vcore cap re-keys every server's headroom at once.
	c.rebuildIndex()
}

// fits reports whether v fits on s under the policy.
func (c *Cluster) fits(s *Server, v *vm.VM, useReserved bool) bool {
	return c.explain(s, v, useReserved) == ""
}

// Placement-failure reasons served by the control-plane filter API.
// The vocabulary is a small fixed set of interned constants so
// rejection-heavy filter responses reference them instead of
// allocating one string per server.
const (
	// ReasonFailed covers failed or reserved hardware.
	ReasonFailed = "failed"
	// ReasonMemory is a memory-capacity rejection.
	ReasonMemory = "memory"
	// ReasonCapacity is a vcore-cap rejection.
	ReasonCapacity = "capacity"
	// ReasonClass is a high-performance VM without guaranteed
	// overclock headroom.
	ReasonClass = "class"
)

// Explain reports why v cannot be placed on s under the policy, as the
// machine-readable reason the control-plane filter API serves (the
// Reason* constants). An empty reason means v fits.
func (c *Cluster) Explain(s *Server, v *vm.VM) string {
	return c.explain(s, v, false)
}

func (c *Cluster) explain(s *Server, v *vm.VM, useReserved bool) string {
	if s.Failed || (s.Reserved && !useReserved) {
		return ReasonFailed
	}
	if s.memUse+v.Type.MemoryGB > s.Spec.MemoryGB {
		return ReasonMemory
	}
	// Vcore checks compare against remaining headroom: the request's
	// vcores come from a client, and usage + vcores wraps near 2^63.
	if v.Type.VCores > c.idx.capV-s.vcoresUse {
		return ReasonCapacity
	}
	// High-performance VMs need overclocking headroom guaranteed:
	// only non-oversubscribed overclockable servers qualify.
	if v.Class == vm.HighPerf {
		if !s.Spec.Overclockable {
			return ReasonClass
		}
		if v.Type.VCores > s.Spec.PCores-s.vcoresUse {
			return ReasonClass
		}
	}
	return ""
}

// Place assigns v to a server using best-fit on remaining vcores
// (ties broken by server ID), mirroring production packers that
// consolidate load to keep empty servers for large VMs. Returns the
// chosen server or an error when no server fits.
func (c *Cluster) Place(v *vm.VM) (*Server, error) {
	return c.place(v, false)
}

func (c *Cluster) place(v *vm.VM, useReserved bool) (*Server, error) {
	var best *Server
	if useReserved {
		// Reserved capacity lives outside the index; the recovery path
		// keeps the linear best-fit over the whole fleet.
		bestLeft := 1 << 30
		for _, s := range c.servers {
			if !c.fits(s, v, useReserved) {
				continue
			}
			left := c.idx.capV - s.vcoresUse - v.Type.VCores
			if left < bestLeft || (left == bestLeft && best != nil && s.ID < best.ID) {
				best, bestLeft = s, left
			}
		}
	} else {
		best = c.placeIndexed(v)
	}
	if best == nil {
		c.Rejected++
		return nil, fmt.Errorf("cluster: no server fits VM %d (%d vcores, %.0f GB)", v.ID, v.Type.VCores, v.Type.MemoryGB)
	}
	oldR := c.headroom(best)
	best.attach(v)
	v.Host = best.ID + 1
	c.placedCount++
	c.vcoresAlloc += v.Type.VCores
	c.track.Mark(best.ID)
	if c.indexed(best) {
		c.idx.move(best.ID, oldR, c.headroom(best))
	}
	return best, nil
}

// placeIndexed finds the best-fit server through the headroom index:
// buckets scanned in ascending remaining-vcore order (= ascending
// "left" for a fixed VM), bits within a bucket in ascending ID order,
// so the first candidate that passes explain() is exactly the server
// the linear scan would pick.
func (c *Cluster) placeIndexed(v *vm.VM) *Server {
	want := v.Type.VCores
	if want > c.idx.capV {
		// Larger than any server's cap: fits nowhere, and want + over
		// below could wrap.
		return nil
	}
	minR := want
	if v.Class == vm.HighPerf {
		if !c.Spec.Overclockable {
			// A uniform fleet without overclock headroom can never
			// host a high-performance VM.
			return nil
		}
		// The class constraint vcoresUse + want ≤ PCores rewritten in
		// headroom terms: r ≥ want + (capV − PCores). Buckets below
		// that would be rejected by explain one by one; skip them.
		if over := c.idx.capV - c.Spec.PCores; over > 0 {
			minR = want + over
		}
	}
	var best *Server
	c.idx.scan(minR, func(id int) bool {
		s := c.servers[id]
		if c.explain(s, v, false) != "" {
			return false
		}
		best = s
		return true
	})
	return best
}

// locate returns the server hosting v and v's position in its list.
// It reads the host record v carries and trusts it only when that
// server's list holds this very VM, so a VM removed, displaced, or
// placed by another cluster is not found.
func (c *Cluster) locate(v *vm.VM) (*Server, int) {
	h := v.Host - 1
	if h < 0 || h >= len(c.servers) {
		return nil, -1
	}
	s := c.servers[h]
	for i := s.search(v.ID); i < len(s.vms) && s.vms[i].id == v.ID; i++ {
		if s.vms[i].v == v {
			return s, i
		}
	}
	return nil, -1
}

// Host returns the server currently hosting v, if v is placed in this
// cluster.
func (c *Cluster) Host(v *vm.VM) (*Server, bool) {
	s, _ := c.locate(v)
	return s, s != nil
}

// Remove releases a VM's resources. A VM not placed in this cluster is
// an error and changes nothing.
func (c *Cluster) Remove(v *vm.VM) error {
	s, i := c.locate(v)
	if s == nil {
		return errors.New("cluster: VM not placed")
	}
	oldR := c.headroom(s)
	s.detach(i)
	v.Host = 0
	c.placedCount--
	c.vcoresAlloc -= v.Type.VCores
	c.track.Mark(s.ID)
	if c.indexed(s) {
		c.idx.move(s.ID, oldR, c.headroom(s))
	}
	return nil
}

// Stats summarizes fleet utilization.
type Stats struct {
	Servers, FailedServers, ReservedServers int
	PlacedVMs                               int
	VCoresAllocated, PCoresTotal            int
	// Density is allocated vcores per available pcore.
	Density float64
	// VMsPerActiveServer is mean VMs per non-empty server.
	VMsPerActiveServer float64
	OversubscribedSrv  int
}

// Stats computes current fleet statistics.
func (c *Cluster) Stats() Stats {
	st := Stats{Servers: len(c.servers)}
	active := 0
	for _, s := range c.servers {
		if s.Failed {
			st.FailedServers++
			continue
		}
		if s.Reserved {
			st.ReservedServers++
		}
		st.PCoresTotal += s.Spec.PCores
		st.VCoresAllocated += s.vcoresUse
		st.PlacedVMs += len(s.vms)
		if len(s.vms) > 0 {
			active++
		}
		if s.Oversubscribed() {
			st.OversubscribedSrv++
		}
	}
	if st.PCoresTotal > 0 {
		st.Density = float64(st.VCoresAllocated) / float64(st.PCoresTotal)
	}
	if active > 0 {
		st.VMsPerActiveServer = float64(st.PlacedVMs) / float64(active)
	}
	return st
}

// FailServers marks n servers (highest VM counts first, emulating a
// rack/row failure hitting loaded machines) as failed and returns the
// VMs that must be re-created.
func (c *Cluster) FailServers(n int) []*vm.VM {
	candidates := make([]*Server, 0, len(c.servers))
	for _, s := range c.servers {
		if !s.Failed && !s.Reserved {
			candidates = append(candidates, s)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		if len(candidates[i].vms) != len(candidates[j].vms) {
			return len(candidates[i].vms) > len(candidates[j].vms)
		}
		return candidates[i].ID < candidates[j].ID
	})
	if n > len(candidates) {
		n = len(candidates)
	}
	var displaced []*vm.VM
	for _, s := range candidates[:n] {
		// Drop the server from the placement index while its headroom
		// is still well-defined; failed servers never come back.
		c.idx.remove(s.ID, c.headroom(s))
		s.Failed = true
		c.placedCount -= len(s.vms)
		c.vcoresAlloc -= s.vcoresUse
		c.pcoresLive -= s.Spec.PCores
		c.track.Mark(s.ID)
		for i, r := range s.vms {
			r.v.Host = 0
			displaced = append(displaced, r.v)
			s.vms[i] = vmRef{}
		}
		s.vms = s.vms[:0]
		s.vcoresUse = 0
		s.memUse = 0
		s.expDemand = 0
	}
	return displaced
}

// Recover re-places displaced VMs. With a static buffer, reserved
// servers open up; with an overclocking-backed virtual buffer, the
// surviving servers absorb the VMs through oversubscription + OC.
// Returns the number successfully re-created.
func (c *Cluster) Recover(displaced []*vm.VM) int {
	ok := 0
	for _, v := range displaced {
		if _, err := c.place(v, true); err == nil {
			ok++
		}
	}
	return ok
}

// PackTrace replays a VM arrival/departure trace through the cluster
// and returns the peak density plus the rejection count.
func (c *Cluster) PackTrace(trace []*vm.VM) (peakDensity float64, rejected int) {
	for _, ev := range vm.Events(trace) {
		if ev.Arrival {
			if _, err := c.Place(ev.VM); err != nil {
				rejected++
			}
			if d := c.Stats().Density; d > peakDensity {
				peakDensity = d
			}
		} else {
			_ = c.Remove(ev.VM) // rejected at arrival → not placed
		}
	}
	return peakDensity, rejected
}

// Migration is one planned VM move.
type Migration struct {
	VM   *vm.VM
	From *Server
	To   *Server
}

// PlanMigrations builds a live-migration plan that relieves
// oversubscribed servers (§V: overclocking is "a stop-gap solution to
// performance loss until live VM migration ... can eliminate the
// problem completely"). Up to maxMoves VMs are moved from
// oversubscribed servers to servers with 1:1 headroom, smallest VMs
// first (live migration cost grows with VM memory). The plan is
// returned without being applied.
func (c *Cluster) PlanMigrations(maxMoves int) []Migration {
	var plan []Migration
	for _, s := range c.servers {
		if s.Failed || !s.Oversubscribed() {
			continue
		}
		over := s.vcoresUse - s.Spec.PCores
		vms := s.VMsList()
		// Smallest first: cheapest moves that still relieve pressure.
		sort.Slice(vms, func(i, j int) bool {
			if vms[i].Type.VCores != vms[j].Type.VCores {
				return vms[i].Type.VCores < vms[j].Type.VCores
			}
			return vms[i].ID < vms[j].ID
		})
		for _, v := range vms {
			if over <= 0 || len(plan) >= maxMoves {
				break
			}
			dst := c.findHeadroom(s, v)
			if dst == nil {
				continue
			}
			plan = append(plan, Migration{VM: v, From: s, To: dst})
			over -= v.Type.VCores
			// Reserve the destination capacity while planning.
			dst.vcoresUse += v.Type.VCores
			dst.memUse += v.Type.MemoryGB
		}
	}
	// Release the planning reservations; Apply re-places for real.
	for _, m := range plan {
		m.To.vcoresUse -= m.VM.Type.VCores
		m.To.memUse -= m.VM.Type.MemoryGB
	}
	return plan
}

// findHeadroom returns a destination with 1:1 headroom for v, best-fit,
// excluding src.
func (c *Cluster) findHeadroom(src *Server, v *vm.VM) *Server {
	var best *Server
	bestLeft := 1 << 30
	for _, s := range c.servers {
		if s == src || s.Failed || s.Reserved {
			continue
		}
		if s.vcoresUse+v.Type.VCores > s.Spec.PCores {
			continue
		}
		if s.memUse+v.Type.MemoryGB > s.Spec.MemoryGB {
			continue
		}
		left := s.Spec.PCores - s.vcoresUse - v.Type.VCores
		if left < bestLeft || (left == bestLeft && best != nil && s.ID < best.ID) {
			best, bestLeft = s, left
		}
	}
	return best
}

// ApplyMigrations executes a plan, returning how many moves succeeded.
// A plan can go stale between planning and applying: a move is skipped
// unless its VM is still hosted on m.From (it may have departed, been
// displaced by a failure or moved since) and m.To is live with room
// for it (it may have failed or filled).
func (c *Cluster) ApplyMigrations(plan []Migration) int {
	done := 0
	for _, m := range plan {
		from, i := c.locate(m.VM)
		if from != m.From || m.To.Failed ||
			m.To.vcoresUse+m.VM.Type.VCores > m.To.Spec.PCores ||
			m.To.memUse+m.VM.Type.MemoryGB > m.To.Spec.MemoryGB {
			continue
		}
		fromR, toR := c.headroom(m.From), c.headroom(m.To)
		m.From.detach(i)
		m.To.attach(m.VM)
		m.VM.Host = m.To.ID + 1
		// Both endpoints are live, so the packing KPIs are unchanged;
		// only the export rows move.
		c.track.Mark(m.From.ID)
		c.track.Mark(m.To.ID)
		if c.indexed(m.From) {
			c.idx.move(m.From.ID, fromR, c.headroom(m.From))
		}
		if c.indexed(m.To) {
			c.idx.move(m.To.ID, toR, c.headroom(m.To))
		}
		done++
	}
	return done
}

// InterferenceRisk estimates, for each oversubscribed server, whether
// overclocking covers the expected concurrent demand: the sum of
// per-VM average utilizations must not exceed pcores × OCSpeedup.
// Returns the number of servers whose expected demand exceeds even the
// overclocked capacity.
func (c *Cluster) InterferenceRisk() int {
	atRisk := 0
	for _, s := range c.servers {
		if s.Failed || !s.Oversubscribed() {
			continue
		}
		demand := s.ExpectedDemand()
		capacity := float64(s.Spec.PCores)
		if s.Spec.Overclockable {
			capacity *= s.Spec.OCSpeedup
		}
		if demand > capacity {
			atRisk++
		}
	}
	return atRisk
}
