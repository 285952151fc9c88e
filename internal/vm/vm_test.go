package vm

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultTrace)
	b := Generate(DefaultTrace)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("trace diverges at VM %d", i)
		}
	}
}

func TestGenerateSeedChangesTrace(t *testing.T) {
	cfg := DefaultTrace
	cfg.Seed = 43
	a := Generate(DefaultTrace)
	b := Generate(cfg)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i].ArrivalS != b[i].ArrivalS {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestTraceShape(t *testing.T) {
	trace := Generate(DefaultTrace)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	expected := DefaultTrace.ArrivalRatePerS * DefaultTrace.DurationS
	if math.Abs(float64(len(trace))-expected)/expected > 0.15 {
		t.Fatalf("trace size %d, expected ≈%v", len(trace), expected)
	}
	var lifeSum float64
	highPerf := 0
	for _, v := range trace {
		if v.ArrivalS < 0 || v.ArrivalS >= DefaultTrace.DurationS {
			t.Fatalf("arrival %v outside trace horizon", v.ArrivalS)
		}
		if v.LifetimeS <= 0 {
			t.Fatalf("non-positive lifetime")
		}
		if v.AvgUtil < 0.15 || v.AvgUtil > 0.65 {
			t.Fatalf("avg util %v out of range", v.AvgUtil)
		}
		if v.ScalableFraction < 0.4 || v.ScalableFraction > 0.9 {
			t.Fatalf("scalable fraction %v out of range", v.ScalableFraction)
		}
		lifeSum += v.LifetimeS
		if v.Class == HighPerf {
			highPerf++
		}
	}
	meanLife := lifeSum / float64(len(trace))
	// Pareto lifetimes with truncation: mean lands near configured.
	if meanLife < DefaultTrace.MeanLifetimeS*0.5 || meanLife > DefaultTrace.MeanLifetimeS*1.8 {
		t.Fatalf("mean lifetime %v, configured %v", meanLife, DefaultTrace.MeanLifetimeS)
	}
	frac := float64(highPerf) / float64(len(trace))
	if math.Abs(frac-DefaultTrace.HighPerfFraction) > 0.04 {
		t.Fatalf("high-perf fraction %v, want ~%v", frac, DefaultTrace.HighPerfFraction)
	}
}

// eventsOracle is the reference stream: every event appended in trace
// order, then sorted with the (time, departures first, VM ID)
// comparator that Events' merge replaced.
func eventsOracle(trace []*VM) []Event {
	evs := make([]Event, 0, 2*len(trace))
	for _, v := range trace {
		evs = append(evs, Event{TimeS: v.ArrivalS, VM: v, Arrival: true})
		evs = append(evs, Event{TimeS: v.EndS(), VM: v, Arrival: false})
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TimeS != b.TimeS {
			return a.TimeS < b.TimeS
		}
		if a.Arrival != b.Arrival {
			return !a.Arrival
		}
		return a.VM.ID < b.VM.ID
	})
	return evs
}

// tieTrace is hand-built, in arrival order, to hit every tie of the
// total order: equal arrival times, one VM departing exactly when
// another arrives, a zero lifetime, and equal departure times with IDs
// out of trace order.
func tieTrace() []*VM {
	return []*VM{
		{ID: 1, ArrivalS: 0, LifetimeS: 10},
		{ID: 2, ArrivalS: 0, LifetimeS: 30},
		{ID: 3, ArrivalS: 5, LifetimeS: 0},
		{ID: 6, ArrivalS: 5, LifetimeS: 25},
		{ID: 4, ArrivalS: 10, LifetimeS: 5},
		{ID: 5, ArrivalS: 10, LifetimeS: 20},
		{ID: 7, ArrivalS: 15, LifetimeS: 0},
		{ID: 8, ArrivalS: 30, LifetimeS: 1},
	}
}

func reversed(trace []*VM) []*VM {
	out := slices.Clone(trace)
	slices.Reverse(out)
	return out
}

// eventInputs are the traces Events is checked on: a generated trace,
// the tie trace, the reverse of each (out of arrival order, so Events
// sorts it first), and the empty trace.
func eventInputs() map[string][]*VM {
	gen := Generate(DefaultTrace)
	return map[string][]*VM{
		"generated":     gen,
		"reversed":      reversed(gen),
		"ties":          tieTrace(),
		"ties-reversed": reversed(tieTrace()),
		"empty":         nil,
	}
}

// TestEventsOrderedAndPaired checks each input's stream against the
// oracle, element for element, and that every VM arrives once and
// departs once.
func TestEventsOrderedAndPaired(t *testing.T) {
	for name, trace := range eventInputs() {
		if inOrder := slices.IsSortedFunc(trace, byArrival); inOrder == strings.HasSuffix(name, "reversed") {
			t.Fatalf("%s: in arrival order %v; the input misses the path it is for", name, inOrder)
		}
		before := slices.Clone(trace)
		evs, want := Events(trace), eventsOracle(trace)
		if len(evs) != 2*len(trace) || len(want) != len(evs) {
			t.Fatalf("%s: %d events for %d VMs", name, len(evs), len(trace))
		}
		for i := range want {
			if evs[i] != want[i] {
				t.Fatalf("%s: event %d is %+v (VM %d), oracle %+v (VM %d)", name, i, evs[i], evs[i].VM.ID, want[i], want[i].VM.ID)
			}
		}
		if !slices.Equal(trace, before) {
			t.Fatalf("%s: Events reordered the caller's trace", name)
		}
		arrivals, departures := map[*VM]int{}, map[*VM]int{}
		for _, e := range evs {
			if e.Arrival {
				arrivals[e.VM]++
			} else {
				departures[e.VM]++
			}
		}
		for _, v := range trace {
			if arrivals[v] != 1 || departures[v] != 1 {
				t.Fatalf("%s: VM %d has %d arrivals and %d departures", name, v.ID, arrivals[v], departures[v])
			}
		}
	}
}

func TestEventsDepartureBeforeArrivalOnTie(t *testing.T) {
	a := &VM{ID: 1, ArrivalS: 0, LifetimeS: 10}
	b := &VM{ID: 2, ArrivalS: 10, LifetimeS: 5}
	evs := Events([]*VM{a, b})
	// At t=10: a departs, then b arrives.
	if evs[1].Arrival || evs[1].VM.ID != 1 {
		t.Fatalf("tie order: %+v", evs[1])
	}
	if !evs[2].Arrival || evs[2].VM.ID != 2 {
		t.Fatalf("tie order: %+v", evs[2])
	}
	// The tie trace at t=10: the departure (VM 1) before the arrivals
	// (4, 5); at t=30 the departures in ID order (2, 5, 6, though 6
	// is listed first) before VM 8 arrives.
	var at10, at30 []string
	for _, e := range Events(tieTrace()) {
		tag := fmt.Sprintf("%s%d", map[bool]string{true: "+", false: "-"}[e.Arrival], e.VM.ID)
		switch e.TimeS {
		case 10:
			at10 = append(at10, tag)
		case 30:
			at30 = append(at30, tag)
		}
	}
	if got := fmt.Sprint(at10); got != "[-1 +4 +5]" {
		t.Fatalf("t=10 order %s", got)
	}
	if got := fmt.Sprint(at30); got != "[-2 -5 -6 +8]" {
		t.Fatalf("t=30 order %s", got)
	}
}

func TestTypesCatalog(t *testing.T) {
	ts := Types()
	if len(ts) != 4 {
		t.Fatalf("%d types", len(ts))
	}
	for _, ty := range ts {
		if ty.VCores <= 0 || ty.MemoryGB <= 0 {
			t.Fatalf("bad type %+v", ty)
		}
		if ty.MemoryGB/float64(ty.VCores) != 4 {
			t.Fatalf("%s: memory-to-vcore ratio %v, want 4", ty.Name, ty.MemoryGB/float64(ty.VCores))
		}
	}
}

func TestEndS(t *testing.T) {
	v := &VM{ArrivalS: 5, LifetimeS: 7}
	if v.EndS() != 12 {
		t.Fatalf("EndS %v", v.EndS())
	}
}

func TestClassStrings(t *testing.T) {
	if Regular.String() != "regular" || HighPerf.String() != "high-perf" || Harvest.String() != "harvest" {
		t.Fatal("class strings wrong")
	}
}

func TestCreationLatencyMatchesPaper(t *testing.T) {
	if CreationLatencyS != 60 {
		t.Fatalf("creation latency %v, want 60 s (paper)", CreationLatencyS)
	}
}

// Property: traces are valid for arbitrary seeds and moderate rates.
func TestGeneratePropertyValid(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := TraceConfig{Seed: seed, ArrivalRatePerS: 0.01, DurationS: 3600, MeanLifetimeS: 1800, HighPerfFraction: 0.2}
		for _, v := range Generate(cfg) {
			if v.ArrivalS >= cfg.DurationS || v.LifetimeS <= 0 || v.Type.VCores == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
