package main

import (
	"sync"

	"immersionoc/internal/dcsim"
	"immersionoc/internal/placement"
	"immersionoc/internal/vm"
)

// defaultDecider returns the decider dcsim.New makes for cfg, taken from
// a probe Sim of the same geometry.
func defaultDecider(cfg dcsim.Config) (placement.Decider, error) {
	cfg.Events = []vm.Event{}
	cfg.Decider = nil
	probe, err := dcsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return probe.Decider(), nil
}

// timedDecider is a placement.Decider that times each call into the
// decider it wraps and counts what the calls decided. A control step is
// timed from Begin to the return of Decide, so it includes the Offer
// loop.
type timedDecider struct {
	inner placement.Decider
	tr    *tracer

	// trace and parent label the spans of the next calls; the fleet loop
	// sets them per step. The serving workloads leave them 0 and assign
	// the spans to their HTTP handler afterwards.
	trace, parent uint64

	mu sync.Mutex
	// beginAt and decideAt are the tracer times of the last Begin and
	// Decide return.
	beginAt, decideAt int64
	offers            int
	st                deciderStats
}

// deciderStats is what the decider counted.
type deciderStats struct {
	decideMs                          []float64
	steps, offers, granted, cancelled int
	evaluateUs                        []float64
	deny                              map[string]int
}

var _ placement.Decider = (*timedDecider)(nil)

func newTimedDecider(inner placement.Decider, tr *tracer) *timedDecider {
	return &timedDecider{inner: inner, tr: tr, st: deciderStats{deny: map[string]int{}}}
}

func (t *timedDecider) Begin(nTanks int) {
	t.mu.Lock()
	t.beginAt = t.tr.now()
	t.offers = 0
	t.mu.Unlock()
	t.inner.Begin(nTanks)
}

func (t *timedDecider) Offer(c placement.Candidate) bool {
	ok := t.inner.Offer(c)
	if ok {
		t.offers++
	}
	return ok
}

func (t *timedDecider) Decide(act placement.Actuator) placement.Outcome {
	out := t.inner.Decide(act)
	end := t.tr.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.decideAt = end
	t.st.decideMs = append(t.st.decideMs, float64(end-t.beginAt)/1e6)
	t.st.steps++
	t.st.offers += t.offers
	t.st.granted += out.Granted
	t.st.cancelled += out.Cancelled
	t.tr.add(span{Trace: t.trace, Parent: t.parent, Name: "placement.decide", Start: t.beginAt, End: end})
	return out
}

func (t *timedDecider) Evaluate(q placement.GrantQuery) placement.Decision {
	start := t.tr.now()
	d := t.inner.Evaluate(q)
	end := t.tr.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.evaluateUs = append(t.st.evaluateUs, float64(end-start)/1e3)
	if !d.Allow {
		t.st.deny[string(d.Reason)]++
	}
	t.tr.add(span{Trace: t.trace, Parent: t.parent, Name: "placement.evaluate", Start: start, End: end})
	return d
}

// phases returns the tracer times of the last step's Begin and Decide
// return.
func (t *timedDecider) phases() (begin, decide int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginAt, t.decideAt
}

// stats returns a copy of the counts so far.
func (t *timedDecider) stats() deciderStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.decideMs = append([]float64(nil), st.decideMs...)
	st.evaluateUs = append([]float64(nil), st.evaluateUs...)
	st.deny = map[string]int{}
	for k, v := range t.st.deny {
		st.deny[k] = v
	}
	return st
}

// placementMetrics fills the placement.* metrics from decider counts.
func placementMetrics(st deciderStats, v map[string]float64) {
	v["placement.evaluate_us.p50"] = median(st.evaluateUs)
	v["placement.evaluate.count"] = float64(len(st.evaluateUs))
	v["placement.grant_ratio"] = ratio(float64(st.granted), float64(st.offers))
	for _, r := range denyReasons {
		v["placement.deny."+r] = float64(st.deny[r])
	}
	v["placement.decide_ms.p50"] = median(st.decideMs)
	v["placement.offers_per_step"] = ratio(float64(st.offers), float64(st.steps))
	v["placement.granted_per_step"] = ratio(float64(st.granted), float64(st.steps))
	v["placement.cancelled_per_step"] = ratio(float64(st.cancelled), float64(st.steps))
}
