// Package capping implements workload-priority-based power capping for
// overclocked fleets. §IV of the paper warns that "overclocking in
// oversubscribed datacenters increases the chance of hitting limits and
// triggering power capping mechanisms" and prescribes the remedy:
// "use workload-priority-based capping to minimize the impact on
// critical/overclocked workloads when power limits are breached" (in
// the style of Dynamo and the medium-voltage priority cappers it
// cites).
//
// A Controller owns a power budget (a feeder, PDU or row) and a set of
// server groups with priorities. When aggregate power exceeds the
// budget it sheds frequency from the lowest-priority groups first, one
// ladder rung at a time; when headroom returns it restores frequency
// highest-priority first. A uniform capper (everyone steps down
// together, RAPL-style) is provided as the baseline the paper's
// recommendation is measured against.
package capping

import (
	"errors"
	"fmt"
	"sort"

	"immersionoc/internal/freq"
	"immersionoc/internal/power"
)

// Priority orders workload classes; higher values shed power later.
type Priority int

const (
	// Harvest is evictable filler capacity.
	Harvest Priority = iota
	// Batch is throughput work with loose deadlines.
	Batch
	// Production is standard customer workloads.
	Production
	// Critical is latency-sensitive or overclocking-dependent work
	// (e.g. VMs whose oversubscription is being hidden by
	// overclocking — capping those recreates the interference).
	Critical
)

func (p Priority) String() string {
	switch p {
	case Harvest:
		return "harvest"
	case Batch:
		return "batch"
	case Production:
		return "production"
	case Critical:
		return "critical"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}

// Group is a homogeneous set of servers sharing a priority and a
// frequency setting.
type Group struct {
	Name     string
	Priority Priority
	// Servers is the number of servers in the group.
	Servers int
	// UtilSum and ActiveCores describe per-server load.
	UtilSum     float64
	ActiveCores int
	// Model computes per-server power.
	Model power.ServerModel
	// Ladder is the frequency range the capper may move within.
	Ladder *freq.Ladder
	// Config is the group's frequency configuration template; the
	// capper adjusts its core clock.
	Config freq.Config
	// ScalableFraction converts a frequency reduction into a
	// performance impact estimate.
	ScalableFraction float64

	curGHz freq.GHz
}

// Validate checks the group definition.
func (g *Group) Validate() error {
	if g.Servers <= 0 {
		return fmt.Errorf("capping: group %s has no servers", g.Name)
	}
	if g.Ladder == nil {
		return fmt.Errorf("capping: group %s has no ladder", g.Name)
	}
	if g.ScalableFraction < 0 || g.ScalableFraction > 1 {
		return fmt.Errorf("capping: group %s scalable fraction %v", g.Name, g.ScalableFraction)
	}
	return nil
}

// FreqGHz returns the group's current core clock.
func (g *Group) FreqGHz() freq.GHz { return g.curGHz }

// config returns the group's configuration at its current clock.
func (g *Group) config() freq.Config {
	c := g.Config
	c.CoreGHz = g.curGHz
	return c
}

// PowerW returns the group's aggregate power at its current clock.
func (g *Group) PowerW() float64 {
	return float64(g.Servers) * g.Model.Power(g.config(), g.UtilSum, g.ActiveCores)
}

// powerAt returns aggregate power at a hypothetical clock.
func (g *Group) powerAt(f freq.GHz) float64 {
	c := g.Config
	c.CoreGHz = f
	return float64(g.Servers) * g.Model.Power(c, g.UtilSum, g.ActiveCores)
}

// PerfImpact returns the estimated throughput loss versus the group's
// target (top-of-ladder) frequency: the frequency-scalable fraction of
// work slows with the clock.
func (g *Group) PerfImpact() float64 {
	top := g.Ladder.Max()
	if g.curGHz >= top {
		return 0
	}
	ratio := g.ScalableFraction*float64(top/g.curGHz) + (1 - g.ScalableFraction)
	return 1 - 1/ratio
}

// Action records one capping step.
type Action struct {
	Group   string
	FromGHz freq.GHz
	ToGHz   freq.GHz
	// Shed is the power released (positive) or reclaimed (negative
	// for restores).
	Shed float64
}

// Controller enforces a power budget across groups.
type Controller struct {
	// BudgetW is the delivery limit.
	BudgetW float64
	// RestoreMarginW is the headroom required before restoring
	// frequency (hysteresis against oscillation).
	RestoreMarginW float64
	groups         []*Group
	// CapEvents counts Enforce invocations that had to shed.
	CapEvents int
}

// NewController builds a controller over the groups; every group
// starts at the top of its ladder.
func NewController(budgetW, restoreMarginW float64, groups ...*Group) (*Controller, error) {
	if budgetW <= 0 {
		return nil, errors.New("capping: non-positive budget")
	}
	for _, g := range groups {
		if err := g.Validate(); err != nil {
			return nil, err
		}
		g.curGHz = g.Ladder.Max()
	}
	c := &Controller{BudgetW: budgetW, RestoreMarginW: restoreMarginW, groups: groups}
	return c, nil
}

// TotalPowerW returns the fleet's aggregate power.
func (c *Controller) TotalPowerW() float64 {
	var t float64
	for _, g := range c.groups {
		t += g.PowerW()
	}
	return t
}

// sortedByPriority returns groups lowest-priority first (the shedding
// order), with deterministic tie-breaking by name.
func (c *Controller) sortedByPriority() []*Group {
	gs := append([]*Group(nil), c.groups...)
	sort.Slice(gs, func(i, j int) bool {
		if gs[i].Priority != gs[j].Priority {
			return gs[i].Priority < gs[j].Priority
		}
		return gs[i].Name < gs[j].Name
	})
	return gs
}

// Enforce sheds frequency until aggregate power fits the budget,
// lowest priority first, one ladder rung at a time. Within a priority
// level the group with the largest power release per rung sheds first.
// Returns the actions taken; an empty slice means the budget already
// held. If every group reaches its floor and power still exceeds the
// budget, ErrBudgetInfeasible is returned along with the actions.
func (c *Controller) Enforce() ([]Action, error) {
	var actions []Action
	if c.TotalPowerW() <= c.BudgetW {
		return actions, nil
	}
	c.CapEvents++
	for prio := Harvest; prio <= Critical; prio++ {
		for {
			if c.TotalPowerW() <= c.BudgetW {
				return actions, nil
			}
			// Candidates at this priority that can still step down.
			var best *Group
			var bestShed float64
			for _, g := range c.sortedByPriority() {
				if g.Priority != prio || g.curGHz <= g.Ladder.Min() {
					continue
				}
				shed := g.PowerW() - g.powerAt(g.Ladder.Down(g.curGHz))
				if shed > bestShed {
					best, bestShed = g, shed
				}
			}
			if best == nil {
				break // this priority exhausted; move up
			}
			from := best.curGHz
			best.curGHz = best.Ladder.Down(best.curGHz)
			actions = append(actions, Action{Group: best.Name, FromGHz: from, ToGHz: best.curGHz, Shed: bestShed})
		}
	}
	if c.TotalPowerW() > c.BudgetW {
		return actions, fmt.Errorf("%w: %.0fW demand against %.0fW budget at minimum frequencies",
			ErrBudgetInfeasible, c.TotalPowerW(), c.BudgetW)
	}
	return actions, nil
}

// ErrBudgetInfeasible is returned when even minimum frequencies exceed
// the budget (load must be shed by other means — migration, eviction).
var ErrBudgetInfeasible = errors.New("capping: budget infeasible")

// Restore raises frequencies while headroom (budget − margin) permits,
// highest priority first, one rung at a time. Returns the actions (with
// negative Shed values).
func (c *Controller) Restore() []Action {
	var actions []Action
	for {
		raised := false
		gs := c.sortedByPriority()
		// Highest priority first.
		for i := len(gs) - 1; i >= 0; i-- {
			g := gs[i]
			if g.curGHz >= g.Ladder.Max() {
				continue
			}
			next := g.Ladder.Up(g.curGHz)
			delta := g.powerAt(next) - g.PowerW()
			if c.TotalPowerW()+delta <= c.BudgetW-c.RestoreMarginW {
				from := g.curGHz
				g.curGHz = next
				actions = append(actions, Action{Group: g.Name, FromGHz: from, ToGHz: next, Shed: -delta})
				raised = true
				break
			}
		}
		if !raised {
			return actions
		}
	}
}

// UniformEnforce is the RAPL-style baseline: all groups step down in
// lockstep (one rung each per round, regardless of priority) until the
// budget holds. It mutates the same group state as Enforce.
func (c *Controller) UniformEnforce() ([]Action, error) {
	var actions []Action
	if c.TotalPowerW() <= c.BudgetW {
		return actions, nil
	}
	c.CapEvents++
	for {
		if c.TotalPowerW() <= c.BudgetW {
			return actions, nil
		}
		stepped := false
		for _, g := range c.sortedByPriority() {
			if g.curGHz <= g.Ladder.Min() {
				continue
			}
			from := g.curGHz
			shed := g.PowerW() - g.powerAt(g.Ladder.Down(g.curGHz))
			g.curGHz = g.Ladder.Down(g.curGHz)
			actions = append(actions, Action{Group: g.Name, FromGHz: from, ToGHz: g.curGHz, Shed: shed})
			stepped = true
			if c.TotalPowerW() <= c.BudgetW {
				return actions, nil
			}
		}
		if !stepped {
			return actions, fmt.Errorf("%w: %.0fW demand against %.0fW budget at minimum frequencies",
				ErrBudgetInfeasible, c.TotalPowerW(), c.BudgetW)
		}
	}
}

// SetLoad updates a group's per-server load (demand spikes between
// Enforce calls).
func (g *Group) SetLoad(utilSum float64, activeCores int) {
	g.UtilSum = utilSum
	g.ActiveCores = activeCores
}
