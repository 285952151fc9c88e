package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"time"

	"immersionoc/internal/cow"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/vm"
)

// fleetConfig is BenchmarkFleetHyperScale's fleet: 100,000 servers in
// 8,334 tanks absorbing a 1,000,000-VM four-hour wave in 48 steps over 8
// shards.
func fleetConfig() dcsim.Config {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 100_000
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 34_700_000
	cfg.Shards = 8
	cfg.Trace.DurationS = 4 * 3600
	cfg.Trace.ArrivalRatePerS = 1_000_000.0 / (4 * 3600)
	cfg.Trace.MeanLifetimeS = 3600
	return cfg
}

// minFleetReps is the fewest repetitions a fleet run makes, however
// short its time budget.
const minFleetReps = 3

// fleetRep is what one repetition (one trace seed) measured.
type fleetRep struct {
	traceSeed  uint64
	genS, newS float64
	// stepMs is each control step's host time: due events replayed plus
	// Sim.Step.
	stepMs []float64
	loop   time.Duration
	report *dcsim.Report
	digest string
	// invalid is the first KPI invariant the report breaks, if any.
	invalid error

	// Traced repetitions only.
	simStepMs, phase1Ms, phase2Ms, replayMs, snapshotMs []float64
	events, arrivals, placed                            int
	chunksRebuilt, chunksCompared                       int
}

// fleetResult is what one pass of fleet-hyperscale measured.
type fleetResult struct {
	reps              []fleetRep
	dec               *timedDecider
	goBefore, goAfter goStats
}

// runFleet repeats the fleet run with trace seeds seed, seed+1, ...,
// modulo fleetGoldenSeeds, until the next repetition would overrun
// seconds. Untraced, it is dcsim.Run with every step timed. Traced, the
// benchmark replays due events itself through Sim.Place and Sim.Remove,
// decides through a timing Decider and takes a chained Snapshot after
// each step; none of that changes a KPI.
//
// gold, when given, maps trace seeds to the report digests known to be
// correct for cfg, and every repetition must match its seed's digest.
func runFleet(cfg dcsim.Config, gold map[string]string, seed uint64, seconds float64, tr *tracer, o *outcome) (*fleetResult, error) {
	res := &fleetResult{}
	if tr != nil {
		dec, err := defaultDecider(cfg)
		if err != nil {
			return nil, err
		}
		res.dec = newTimedDecider(dec, tr)
	}
	runtime.GC()
	res.goBefore = readGoStats()
	start := time.Now()
	for r := 0; ; r++ {
		if elapsed := time.Since(start).Seconds(); r >= minFleetReps && elapsed*float64(r+1)/float64(r) > seconds {
			break
		}
		traceSeed := (seed%fleetGoldenSeeds + uint64(r)) % fleetGoldenSeeds
		rep, err := runFleetRep(cfg, traceSeed, tr, res.dec)
		if err != nil {
			return nil, err
		}
		o.attempted++
		checkFleetRep(cfg, gold, rep, o)
		res.reps = append(res.reps, rep)
		runtime.GC()
	}
	res.goAfter = readGoStats()
	return res, nil
}

func runFleetRep(cfg dcsim.Config, traceSeed uint64, tr *tracer, dec *timedDecider) (fleetRep, error) {
	rep := fleetRep{traceSeed: traceSeed}
	cfg.Trace.Seed = traceSeed
	t0 := time.Now()
	events := vm.Events(vm.Generate(cfg.Trace))
	t1 := time.Now()
	if tr == nil {
		cfg.Events = events
	} else {
		cfg.Events = []vm.Event{}
		cfg.Decider = dec
	}
	s, err := dcsim.New(cfg)
	if err != nil {
		return rep, err
	}
	t2 := time.Now()
	rep.genS, rep.newS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	if tr != nil {
		setup := tr.id()
		tr.add(span{Trace: setup, ID: setup, Name: "fleet.setup", Start: tr.at(t0), End: tr.at(t2)})
		tr.add(span{Trace: setup, Parent: setup, Name: "vm.generate", Start: tr.at(t0), End: tr.at(t1)})
		tr.add(span{Trace: setup, Parent: setup, Name: "dcsim.New", Start: tr.at(t1), End: tr.at(t2)})
	}

	var snap dcsim.FleetSnapshot
	var prevChunks []any
	ei := 0
	for !s.Done() {
		var trace, stepID uint64
		ts := time.Now()
		tReplay := ts
		if tr != nil {
			trace, stepID = tr.id(), tr.id()
			dec.trace, dec.parent = trace, stepID
			n0 := ei
			for ei < len(events) && events[ei].TimeS <= s.Now() {
				ev := events[ei]
				ei++
				if !ev.Arrival {
					s.Remove(ev.VM)
					continue
				}
				rep.arrivals++
				if _, err := s.Place(ev.VM); err == nil {
					rep.placed++
				}
			}
			rep.events += ei - n0
			tReplay = time.Now()
		}
		s.Step()
		te := time.Now()
		rep.stepMs = append(rep.stepMs, ms(te.Sub(ts)))
		if tr == nil {
			continue
		}
		begin, decided := dec.phases()
		rep.replayMs = append(rep.replayMs, ms(tReplay.Sub(ts)))
		rep.simStepMs = append(rep.simStepMs, ms(te.Sub(tReplay)))
		rep.phase1Ms = append(rep.phase1Ms, float64(begin-tr.at(tReplay))/1e6)
		rep.phase2Ms = append(rep.phase2Ms, float64(tr.at(te)-decided)/1e6)

		s.Snapshot(&snap)
		tSnap := time.Now()
		rep.snapshotMs = append(rep.snapshotMs, ms(tSnap.Sub(te)))
		chunks := snapshotChunks(&snap)
		if prevChunks != nil && len(prevChunks) == len(chunks) {
			for i := range chunks {
				if chunks[i] != prevChunks[i] {
					rep.chunksRebuilt++
				}
			}
			rep.chunksCompared += len(chunks)
		}
		prevChunks = chunks

		tr.add(span{Trace: trace, ID: trace, Name: "fleet.step", Start: tr.at(ts), End: tr.at(tSnap)})
		tr.add(span{Trace: trace, Parent: trace, Name: "cluster.replay", Start: tr.at(ts), End: tr.at(tReplay)})
		tr.add(span{Trace: trace, ID: stepID, Parent: trace, Name: "dcsim.Step", Start: tr.at(tReplay), End: tr.at(te)})
		tr.add(span{Trace: trace, Parent: trace, Name: "dcsim.Snapshot", Start: tr.at(te), End: tr.at(tSnap)})
	}
	rep.loop = time.Since(t2)
	rep.report = s.Report()
	rep.digest = reportDigest(rep.report)
	rep.invalid = checkFleetReport(cfg, rep.report)
	return rep, nil
}

// snapshotChunks lists the backing chunk of every per-server column of
// a snapshot. A chunk the next export shares has the same address.
func snapshotChunks(s *dcsim.FleetSnapshot) []any {
	var out []any
	out = appendChunks(out, &s.WearUsed)
	out = appendChunks(out, &s.WearProRata)
	out = appendChunks(out, &s.Flat.ID)
	out = appendChunks(out, &s.Flat.VCoresUsed)
	out = appendChunks(out, &s.Flat.VMs)
	out = appendChunks(out, &s.Flat.MemoryUsedGB)
	out = appendChunks(out, &s.Flat.DemandCores)
	out = appendChunks(out, &s.Flat.Failed)
	return appendChunks(out, &s.Flat.Reserved)
}

func appendChunks[T any](out []any, c *cow.Col[T]) []any {
	for ci := 0; ci < c.NumChunks(); ci++ {
		if ch := c.Chunk(ci); len(ch) > 0 {
			out = append(out, &ch[0])
		}
	}
	return out
}

// reportDigest fingerprints a run's KPIs: the printed summary plus the
// exact values it rounds.
func reportDigest(r *dcsim.Report) string {
	s := fmt.Sprintf("%s|grants=%d|at_risk=%d|oc_hours=%s|max_bath=%s|wear=%s|density=%s",
		r.String(), r.TotalGrants, r.InterferenceAtRisk,
		exact(r.OverclockServerHours), exact(r.MaxBathC), exact(r.MeanWearUsed), exact(r.PeakDensity))
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:16])
}

func exact(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// checkFleetRep checks a repetition's report against the golden digest
// of its trace seed, when gold is given, and against invariants any seed
// must satisfy.
func checkFleetRep(cfg dcsim.Config, gold map[string]string, rep fleetRep, o *outcome) {
	if gold != nil {
		want, ok := gold[strconv.FormatUint(rep.traceSeed, 10)]
		o.check(ok && rep.digest == want, "fleet trace seed %d: report digest %s, golden %q", rep.traceSeed, rep.digest, want)
	}
	wantSteps := int(math.Ceil(cfg.Trace.DurationS / cfg.StepS))
	o.check(len(rep.stepMs) == wantSteps, "fleet trace seed %d: %d steps, want %d", rep.traceSeed, len(rep.stepMs), wantSteps)
	o.check(rep.invalid == nil, "fleet trace seed %d: %v", rep.traceSeed, rep.invalid)
}

// checkFleetReport checks KPI invariants any trace must satisfy.
func checkFleetReport(cfg dcsim.Config, r *dcsim.Report) error {
	hours := float64(r.TotalGrants) * cfg.StepS / 3600
	switch {
	case math.Abs(r.OverclockServerHours-hours) > 1e-9*math.Max(1, hours):
		return fmt.Errorf("overclock server-hours %v, grants imply %v", r.OverclockServerHours, hours)
	case r.PeakOverclocked > cfg.Servers || r.PeakOverclocked < 0:
		return fmt.Errorf("peak overclocked %d of %d servers", r.PeakOverclocked, cfg.Servers)
	case !(r.MaxBathC > 0 && r.MaxBathC < 100):
		return fmt.Errorf("max bath %v °C", r.MaxBathC)
	case !(r.PeakDensity > 0):
		return fmt.Errorf("peak density %v", r.PeakDensity)
	case r.CancelledOverclocks < 0 || r.Rejected < 0:
		return fmt.Errorf("negative counts: %d cancelled, %d rejected", r.CancelledOverclocks, r.Rejected)
	}
	return nil
}

func (f *fleetResult) endToEnd(v map[string]float64) {
	var setup, steps []float64
	for _, r := range f.reps {
		setup = append(setup, r.genS+r.newS)
		steps = append(steps, r.stepMs...)
	}
	v["setup_s"] = median(setup)
	v["p50_ms"] = median(steps)
}

// summary reports the step tails, and steps per second of step-loop
// time, the median over repetitions.
func (f *fleetResult) summary(v map[string]float64) {
	var steps, rates []float64
	for _, r := range f.reps {
		steps = append(steps, r.stepMs...)
		rates = append(rates, float64(len(r.stepMs))/r.loop.Seconds())
	}
	st := sortedCopy(steps)
	v["bench.samples"] = float64(len(st))
	v["bench.throughput_per_s"] = median(rates)
	v["bench.p95_ms"] = tail("bench.p95_ms", st, 0.95)
	v["bench.p99_ms"] = tail("bench.p99_ms", st, 0.99)
	v["bench.step_p50_ms"] = median(st)
}

func (f *fleetResult) perLayer(v map[string]float64) {
	var gen, nw, simStep, p1, p2, replay, snap []float64
	var events, arrivals, placed, rebuilt, compared int
	for _, r := range f.reps {
		gen, nw = append(gen, r.genS), append(nw, r.newS)
		simStep = append(simStep, r.simStepMs...)
		p1, p2 = append(p1, r.phase1Ms...), append(p2, r.phase2Ms...)
		replay, snap = append(replay, r.replayMs...), append(snap, r.snapshotMs...)
		events, arrivals, placed = events+r.events, arrivals+r.arrivals, placed+r.placed
		rebuilt, compared = rebuilt+r.chunksRebuilt, compared+r.chunksCompared
	}
	ss := sortedCopy(simStep)
	v["dcsim.step_ms.p50"] = median(ss)
	v["dcsim.step_ms.p90"] = tail("dcsim.step_ms.p90", ss, 0.9)
	v["dcsim.phase1_ms.p50"] = median(p1)
	v["dcsim.phase2_ms.p50"] = median(p2)
	v["dcsim.new_s"] = median(nw)
	v["dcsim.snapshot_step_ms.p50"] = median(snap)
	v["vm.generate_s"] = median(gen)
	v["cluster.replay_ms.p50"] = median(replay)
	v["cluster.events_per_step"] = ratio(float64(events), float64(len(simStep)))
	v["cluster.placed_ratio"] = ratio(float64(placed), float64(arrivals))
	// Each repetition's first snapshot has no predecessor to share with.
	v["cow.chunks_per_step_publish"] = ratio(float64(rebuilt), float64(len(snap)-len(f.reps)))
	v["cow.chunk_reuse_ratio"] = ratio(float64(compared-rebuilt), float64(compared))
	if f.dec != nil {
		placementMetrics(f.dec.stats(), v)
	}
	goDelta(f.goBefore, f.goAfter, v)
}

// digests maps each repetition's trace seed to its report digest.
func (f *fleetResult) digests() map[uint64]string {
	m := map[uint64]string{}
	for _, r := range f.reps {
		m[r.traceSeed] = r.digest
	}
	return m
}
