package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/ocd"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// serveSpec is one serving workload: an in-process ocd daemon on a
// loopback listener, prefilled over HTTP, then driven by an open loop at
// a fixed arrival rate. The traced command follows the open loop with a
// closed loop over nproc connections, which measures capacity.
type serveSpec struct {
	servers int
	// prefill VMs (prefillVM's shape) are placed during set-up.
	prefill int
	// setups is how many times a run sets the daemon up; setup_s is
	// their median and the last one serves the measured phases.
	setups int
	// rate is the open loop's Poisson arrival rate, step requests
	// excluded; stepHz is the rate of /v1/step {"steps":1}.
	rate, stepHz float64
	// mix weights the endpoints of both loops.
	mix []weighted
}

type weighted struct {
	ep string
	w  int
}

// serveSpecs are the serving workloads. serve-read-10k's set-up is short,
// so a run repeats it more often for a steadier median;
// serve-write-100k's takes 5–7 s, so a run does it only twice.
var serveSpecs = map[string]serveSpec{
	"serve-read-10k": {
		servers: 10_000, prefill: 6_000, setups: 7, rate: 500, stepHz: 10,
		mix: []weighted{{"status", 6}, {"metrics", 2}, {"filter", 1}, {"prioritize", 1}},
	},
	"serve-write-100k": {
		servers: 100_000, prefill: 60_000, setups: 2, rate: 1000, stepHz: 2,
		mix: []weighted{{"place", 6}, {"remove", 5}, {"overclock", 4}, {"status", 1}},
	},
}

// prefillVM is the shape of every VM placed during set-up.
var prefillVM = api.VMSpec{VCores: 8, MemoryGB: 32, AvgUtil: 0.6}

const (
	// closedShare of a run's seconds is the traced command's closed loop,
	// after a warm-up of a quarter of that. The open loop takes all of the
	// seconds.
	closedShare = 0.3
	// sampleEvery is how often, per endpoint, a response is decoded and
	// validated after its timer stopped.
	sampleEvery = 50
	// prioritizeCandidates is the candidate count of each prioritize.
	prioritizeCandidates = 64
	// removeLag is how many scheduled places a remove trails, so the VM
	// it names has usually been placed by then.
	removeLag = 64
	// placeIDBase and neverPlacedID keep scheduled VM IDs clear of the
	// prefill's 0..prefill-1.
	placeIDBase   = 1_000_000_000
	neverPlacedID = placeIDBase - 1
	// closedOpsPerSec sizes the pre-generated closed-loop schedule above
	// the fastest rate the daemon reaches on a small host. A faster host
	// that runs out measures over a shorter window.
	closedOpsPerSec = 40_000
	// vmMix is how many VMs a schedule draws from vm.Generate. Place,
	// filter and prioritize requests cycle through them, each place with
	// a fresh ID.
	vmMix = 4096
)

func (s serveSpec) config() dcsim.Config {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = s.servers
	cfg.ServersPerTank = 12
	cfg.FeederBudgetW = 347 * float64(s.servers)
	cfg.Shards = 8
	cfg.Events = []vm.Event{}
	return cfg
}

func epIndex(name string) int {
	for i, e := range endpoints {
		if e == name {
			return i
		}
	}
	panic("bench: unknown endpoint " + name)
}

var epPaths = func() []string {
	p := make([]string, len(endpoints))
	for i, e := range endpoints {
		p[i] = "/v1/" + e
	}
	p[epIndex("metrics")] = "/metrics"
	return p
}()

// op is one scheduled request. Its body is encoded before timing starts
// and kept in the schedule's arena, so a schedule holds no pointers for
// the collector to scan while the load runs: the program under test
// shares this process and its heap.
type op struct {
	due    time.Duration // open loop: offset from the phase start
	off, n int32         // body: arena[off : off+n]; n == 0 sends a GET
	ep     int8
	// sample marks every sampleEvery-th op of its endpoint for
	// validation.
	sample bool
}

// schedule is a workload's whole request sequence.
type schedule struct {
	arena        []byte
	open, closed []op
}

func (s *schedule) body(o *op) []byte {
	if o.n == 0 {
		return nil
	}
	return s.arena[o.off : o.off+o.n]
}

// opGen draws requests from the workload seed.
type opGen struct {
	r      *rand.Rand
	spec   serveSpec
	sch    schedule
	vms    []*vm.VM
	nextVM int
	nextID int
	placed []int // scheduled place IDs not yet named by a remove
	// hot is how many of the lowest-indexed servers the prefill fills.
	hot int
	// pools holds the arena spans of each read endpoint's bodies.
	pools map[int][][2]int32
	step  [2]int32
	seen  []int // ops generated per endpoint
}

func newOpGen(spec serveSpec, seed uint64) (*opGen, error) {
	cfg := spec.config()
	vcoreCap, err := serverVCoreCap(cfg)
	if err != nil {
		return nil, err
	}
	// The VM sizes, utilisations and classes are the repository's own
	// trace mix; only the count is the benchmark's.
	tc := cfg.Trace
	tc.Seed, tc.ArrivalRatePerS, tc.DurationS = seed, 1, vmMix
	g := &opGen{
		r:      rand.New(rand.NewPCG(seed, 0x0cd)),
		spec:   spec,
		vms:    vm.Generate(tc),
		nextID: placeIDBase,
		hot:    max(1, min(spec.servers, spec.prefill*prefillVM.VCores/vcoreCap)),
		pools:  map[int][][2]int32{},
		seen:   make([]int, len(endpoints)),
	}
	if len(g.vms) == 0 {
		return nil, errors.New("vm.Generate drew no VMs")
	}
	// Read bodies cycle through small pools so the closed-loop schedule
	// stays small; write bodies are all distinct.
	filter, prioritize := epIndex("filter"), epIndex("prioritize")
	for i := 0; i < 64; i++ {
		v := g.vmSpec(1)
		g.pools[filter] = append(g.pools[filter], g.add(api.FilterRequest{Vers: api.Version, VM: v}))
		g.pools[prioritize] = append(g.pools[prioritize],
			g.add(api.PrioritizeRequest{Vers: api.Version, VM: v, Servers: g.distinct(prioritizeCandidates, spec.servers)}))
	}
	g.step = g.add(api.StepRequest{Vers: api.Version, Steps: 1})
	return g, nil
}

// serverVCoreCap is a server's vcore capacity in cfg's fleet, read from a
// one-tank Sim of the same configuration.
func serverVCoreCap(cfg dcsim.Config) (int, error) {
	cfg.Servers = cfg.ServersPerTank
	s, err := dcsim.New(cfg)
	if err != nil {
		return 0, err
	}
	var snap dcsim.FleetSnapshot
	s.Snapshot(&snap)
	return snap.Flat.VCoreCap, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// add encodes v into the arena and returns its span.
func (g *opGen) add(v any) [2]int32 {
	b := mustJSON(v)
	off := len(g.sch.arena)
	g.sch.arena = append(g.sch.arena, b...)
	return [2]int32{int32(off), int32(len(b))}
}

// distinct draws k different server indices below n (k ≤ n).
func (g *opGen) distinct(k, n int) []int {
	out := make([]int, 0, k)
	seen := map[int]bool{}
	for len(out) < k {
		if i := g.r.IntN(n); !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// vmSpec takes the next VM of the generated mix, under the given ID.
func (g *opGen) vmSpec(id int) api.VMSpec {
	v := g.vms[g.nextVM%len(g.vms)]
	g.nextVM++
	return api.VMSpec{
		ID:               id,
		VCores:           v.Type.VCores,
		MemoryGB:         v.Type.MemoryGB,
		Class:            v.Class.String(),
		AvgUtil:          v.AvgUtil,
		ScalableFraction: v.ScalableFraction,
	}
}

func (g *opGen) pick() int {
	total := 0
	for _, m := range g.spec.mix {
		total += m.w
	}
	x := g.r.IntN(total)
	for _, m := range g.spec.mix {
		if x < m.w {
			return epIndex(m.ep)
		}
		x -= m.w
	}
	panic("unreachable")
}

func (g *opGen) op(ep int, due time.Duration) op {
	var body [2]int32
	switch endpoints[ep] {
	case "filter", "prioritize":
		pool := g.pools[ep]
		body = pool[g.r.IntN(len(pool))]
	case "place":
		body = g.add(api.PlaceRequest{Vers: api.Version, VM: g.vmSpec(g.nextID)})
		g.placed = append(g.placed, g.nextID)
		g.nextID++
	case "remove":
		id := neverPlacedID
		if len(g.placed) > removeLag {
			id, g.placed = g.placed[0], g.placed[1:]
		}
		body = g.add(api.RemoveRequest{Vers: api.Version, ID: id})
	case "overclock":
		// Best-fit packs the prefill onto the lowest-indexed servers;
		// half the targets land there, where demand can cross the
		// Equation 1 threshold, and the rest on the emptier remainder.
		body = g.add(api.OverclockGrantRequest{Vers: api.Version, Server: g.r.IntN(min(g.spec.servers, 2*g.hot))})
	case "step":
		body = g.step
	}
	o := op{due: due, off: body[0], n: body[1], ep: int8(ep), sample: g.seen[ep]%sampleEvery == 0}
	g.seen[ep]++
	return o
}

// schedule draws the open loop (Poisson arrivals plus periodic steps, in
// due order) and the closed loop (no steps).
func (g *opGen) schedule(openFor time.Duration, closedOps int) *schedule {
	t := 0.0
	for {
		t += g.r.ExpFloat64() / g.spec.rate
		due := time.Duration(t * float64(time.Second))
		if due >= openFor {
			break
		}
		g.sch.open = append(g.sch.open, g.op(g.pick(), due))
	}
	step := epIndex("step")
	for k := 1; ; k++ {
		due := time.Duration(float64(k) / g.spec.stepHz * float64(time.Second))
		if due >= openFor {
			break
		}
		g.sch.open = append(g.sch.open, g.op(step, due))
	}
	open := g.sch.open
	sort.SliceStable(open, func(i, j int) bool { return open[i].due < open[j].due })
	g.sch.closed = make([]op, 0, closedOps)
	for i := 0; i < closedOps; i++ {
		g.sch.closed = append(g.sch.closed, g.op(g.pick(), 0))
	}
	return &g.sch
}

// serveRun is one serving workload run against one daemon.
type serveRun struct {
	spec   serveSpec
	conns  int
	tr     *tracer
	dec    *timedDecider // traced runs only
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
	o      *outcome

	prefillPlaced, prefillRejected int
}

// setUp builds the daemon, serves it on a loopback listener and places
// the prefill over HTTP, one request at a time so packing is
// deterministic.
func (s *serveRun) setUp() error {
	cfg := s.spec.config()
	if s.dec != nil {
		cfg.Decider = s.dec
	}
	d, err := ocd.New(cfg, ocd.ModeStepped, telemetry.NewRegistry())
	if err != nil {
		return err
	}
	var h http.Handler = d.Handler()
	if s.tr != nil {
		h = spanMiddleware{next: h, tr: s.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     s.conns,
		MaxIdleConnsPerHost: s.conns,
		DisableCompression:  true,
	}}
	s.prefillPlaced, s.prefillRejected = 0, 0
	var buf []byte
	place := epIndex("place")
	for i := 0; i < s.spec.prefill; i++ {
		v := prefillVM
		v.ID = i
		body := mustJSON(api.PlaceRequest{Vers: api.Version, VM: v})
		s.o.attempted++
		status, err := s.do(place, body, &buf, 0)
		if err != nil || status != http.StatusOK {
			s.o.fail("prefill place %d: status %d, %v", i, status, err)
			continue
		}
		if placedOK(buf) {
			s.prefillPlaced++
		} else {
			s.prefillRejected++
		}
	}
	return nil
}

// tearDown stops the server and waits for it to finish.
func (s *serveRun) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}

var (
	jsonCT      = []string{"application/json"}
	placedTrue  = []byte(`"placed":true`)
	removedTrue = []byte(`"removed":true`)
)

func placedOK(body []byte) bool { return bytes.Contains(body, placedTrue) }

// do sends one request and reads the whole response into *buf.
func (s *serveRun) do(ep int, body []byte, buf *[]byte, trace uint64) (int, error) {
	method := http.MethodGet
	var rd io.Reader
	if body != nil {
		method = http.MethodPost
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+epPaths[ep], rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header["Content-Type"] = jsonCT
	}
	if trace != 0 {
		req.Header["X-Bench-Trace"] = []string{strconv.FormatUint(trace, 10)}
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	*buf, err = readInto((*buf)[:0], resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// readInto appends everything r yields to buf, reusing its capacity.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// phaseStats is what a phase's connections saw. Only counts and the
// open loop's latencies are kept, not a record per request.
type phaseStats struct {
	// Open loop. A latency runs from the due time when the request was
	// sent late because every connection was busy, otherwise from the
	// actual send. late is how far past its due time an on-time request
	// was sent: sleep overshoot, the generator's own error. maxLag is the
	// furthest behind schedule a late request was sent.
	latMs, stepLatMs, lateUs []float64
	maxLag                   time.Duration

	// done counts completed requests; measured, those of the closed
	// loop that completed inside its measured window.
	done, measured                   int
	placed, rejected, removed, steps int
	failures                         []string
	samples                          []sampled
	// ranOut is when a closed loop ran out of scheduled requests, from
	// the phase start; 0 when it did not.
	ranOut time.Duration
}

func (p *phaseStats) merge(q *phaseStats) {
	p.latMs = append(p.latMs, q.latMs...)
	p.stepLatMs = append(p.stepLatMs, q.stepLatMs...)
	p.lateUs = append(p.lateUs, q.lateUs...)
	p.maxLag = max(p.maxLag, q.maxLag)
	p.done += q.done
	p.measured += q.measured
	p.placed += q.placed
	p.rejected += q.rejected
	p.removed += q.removed
	p.steps += q.steps
	p.failures = append(p.failures, q.failures...)
	p.samples = append(p.samples, q.samples...)
	p.ranOut = max(p.ranOut, q.ranOut)
}

// sampled is a response kept for validation, with its request's place
// in the schedule.
type sampled struct {
	ep, seq int
	body    []byte
}

// phase drives ops over s.conns connections, one goroutine each. An open
// phase sends each op at its due time. A closed phase sends back to back
// until `until` into the phase and counts the completions from
// `measureFrom` on.
func (s *serveRun) phase(sch *schedule, ops []op, open bool, measureFrom, until time.Duration) phaseStats {
	var next atomic.Int64
	var wg sync.WaitGroup
	per := make([]phaseStats, s.conns)
	start := time.Now()
	for c := range per {
		wg.Add(1)
		go func(st *phaseStats) {
			defer wg.Done()
			buf := make([]byte, 0, 64<<10)
			for {
				now := time.Now()
				if !open && now.Sub(start) >= until {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					if !open {
						st.ranOut = time.Since(start)
					}
					return
				}
				o := &ops[i]
				ep := int(o.ep)
				from := now
				if open {
					due := start.Add(o.due)
					if now.Before(due) {
						time.Sleep(due.Sub(now))
						from = time.Now()
						st.lateUs = append(st.lateUs, us(from.Sub(due)))
					} else {
						from = due
						st.maxLag = max(st.maxLag, now.Sub(due))
					}
				}
				var trace uint64
				if s.tr != nil {
					trace = s.tr.id()
				}
				sent := time.Now()
				status, err := s.do(ep, sch.body(o), &buf, trace)
				end := time.Now()
				st.done++
				if s.tr != nil {
					s.tr.add(span{Trace: trace, ID: trace, Name: "client." + endpoints[ep], Start: s.tr.at(sent), End: s.tr.at(end)})
				}
				if open && endpoints[ep] == "step" {
					st.stepLatMs = append(st.stepLatMs, ms(end.Sub(from)))
				} else if open {
					st.latMs = append(st.latMs, ms(end.Sub(from)))
				} else if t := end.Sub(start); t >= measureFrom && t < until {
					st.measured++
				}
				if err != nil || status != http.StatusOK {
					st.failures = append(st.failures, fmt.Sprintf("%s: status %d, %v", endpoints[ep], status, err))
					continue
				}
				switch endpoints[ep] {
				case "place":
					if placedOK(buf) {
						st.placed++
					} else {
						st.rejected++
					}
				case "remove":
					if bytes.Contains(buf, removedTrue) {
						st.removed++
					}
				case "step":
					st.steps++
				}
				if o.sample {
					st.samples = append(st.samples, sampled{ep: ep, seq: i, body: append([]byte(nil), buf...)})
				}
			}
		}(&per[c])
	}
	wg.Wait()
	for i := 1; i < len(per); i++ {
		per[0].merge(&per[i])
	}
	return per[0]
}

// spanMiddleware records one span per traced request around the
// daemon's handler, with the response size.
type spanMiddleware struct {
	next http.Handler
	tr   *tracer
}

func (m spanMiddleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trace, _ := strconv.ParseUint(r.Header.Get("X-Bench-Trace"), 10, 64)
	if trace == 0 {
		m.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := m.tr.now()
	m.next.ServeHTTP(cw, r)
	name := "ocd." + strings.TrimPrefix(strings.TrimPrefix(r.URL.Path, "/v1/"), "/")
	m.tr.add(span{Trace: trace, Parent: trace, Name: name, Start: start, End: m.tr.now(), Bytes: cw.n})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

// serveResult is what one pass of a serving workload measured.
type serveResult struct {
	setupS   []float64
	open     phaseStats
	capacity float64
	goBefore goStats
	goAfter  goStats
	dec      *timedDecider
	spans    []span
}

// runServe makes one pass of a serving workload: set-ups, open loop,
// the closed loop when capacity is asked for, validation and
// reconciliation.
func runServe(spec serveSpec, seed uint64, seconds float64, capacity bool, tr *tracer, o *outcome) (*serveResult, error) {
	conns := runtime.GOMAXPROCS(0)
	openFor := time.Duration(seconds * float64(time.Second))
	var closedFor time.Duration
	if capacity {
		closedFor = time.Duration(seconds * closedShare * float64(time.Second))
	}
	// The closed loop first runs untimed for a quarter of its measured
	// length: for a second or so after the open loop, requests complete
	// at a third to half of the steady rate.
	closedWarmup := closedFor / 4
	gen, err := newOpGen(spec, seed)
	if err != nil {
		return nil, err
	}
	sch := gen.schedule(openFor, int((closedWarmup+closedFor).Seconds()*closedOpsPerSec))

	s := &serveRun{spec: spec, conns: conns, tr: tr, o: o}
	if tr != nil {
		// One decider serves every set-up: each daemon is torn down
		// before the next starts, and the prefill never reaches it.
		dec, err := defaultDecider(spec.config())
		if err != nil {
			return nil, err
		}
		s.dec = newTimedDecider(dec, tr)
	}
	out := &serveResult{dec: s.dec}
	for i := 0; i < spec.setups; i++ {
		if i > 0 {
			s.tearDown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := s.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	defer s.tearDown()

	runtime.GC()
	out.goBefore = readGoStats()
	out.open = s.phase(sch, sch.open, true, 0, 0)
	var closed phaseStats
	if capacity {
		closed = s.phase(sch, sch.closed, false, closedWarmup, closedWarmup+closedFor)
		window := closedFor
		if closed.ranOut > 0 {
			window = min(window, closed.ranOut-closedWarmup)
		}
		if window > 0 {
			out.capacity = float64(closed.measured) / window.Seconds()
		}
		o.check(window > 0, "the closed loop ran out of its %d scheduled requests during its warm-up", len(sch.closed))
	}
	out.goAfter = readGoStats()

	for i := range closed.samples {
		closed.samples[i].seq += len(sch.open)
	}
	st := out.open
	st.merge(&closed)
	o.attempted += st.done
	for _, f := range st.failures {
		o.fail("%s", f)
	}

	cfg := spec.config()
	validateSamples(st.samples, spec.servers, cfg.StepS, o)

	// Reconcile the daemon's totals with what the generator saw.
	var buf []byte
	o.attempted++
	status, err := s.do(epIndex("status"), nil, &buf, 0)
	var fs api.FleetStatus
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(buf, &fs)
	} else if err == nil {
		err = fmt.Errorf("status %d", status)
	}
	if err != nil {
		o.fail("final status: %v", err)
	} else {
		wantPlaced := s.prefillPlaced + st.placed - st.removed
		wantRejected := s.prefillRejected + st.rejected
		o.check(fs.PlacedVMs == wantPlaced, "placed_vms %d, generator counted %d", fs.PlacedVMs, wantPlaced)
		o.check(fs.Rejected == wantRejected, "rejected %d, generator counted %d", fs.Rejected, wantRejected)
		o.check(fs.SimTimeS == float64(st.steps)*cfg.StepS, "sim_time_s %v after %d steps", fs.SimTimeS, st.steps)
	}
	if tr != nil {
		tr.update(assignDeciderSpans)
		out.spans = tr.all()
	}
	return out, nil
}

// assignDeciderSpans gives each decider span the trace and parent of the
// HTTP handler that made the call. The daemon calls the decider under
// its write lock from whichever handler holds it, so the caller is the
// earliest-started handler of the calling endpoint that contains the
// call.
func assignDeciderSpans(spans []span) {
	caller := map[string]string{"placement.decide": "ocd.step", "placement.evaluate": "ocd.overclock"}
	handlers := map[string][]int{}
	for i, s := range spans {
		if s.Name == "ocd.step" || s.Name == "ocd.overclock" {
			handlers[s.Name] = append(handlers[s.Name], i)
		}
	}
	for i := range spans {
		c := &spans[i]
		best := -1
		for _, j := range handlers[caller[c.Name]] {
			h := spans[j]
			if h.Start <= c.Start && c.End <= h.End && (best < 0 || h.Start < spans[best].Start) {
				best = j
			}
		}
		if best >= 0 {
			c.Trace, c.Parent = spans[best].Trace, spans[best].ID
		}
	}
}

// validateSamples checks every sampled response, in schedule order: the
// connections interleave, and sampled steps must show sim time
// advancing in the order they were sent.
func validateSamples(samples []sampled, servers int, stepS float64, o *outcome) {
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].ep != samples[j].ep {
			return samples[i].ep < samples[j].ep
		}
		return samples[i].seq < samples[j].seq
	})
	prevStep := -1.0
	for _, sm := range samples {
		o.attempted++
		if err := validate(endpoints[sm.ep], sm.body, servers, stepS, &prevStep); err != nil {
			o.fail("invalid %s response: %v", endpoints[sm.ep], err)
		}
	}
}

// validate decodes a sampled response and checks what the request
// implies about it. prevStep carries the last sampled step's sim time.
func validate(ep string, body []byte, servers int, stepS float64, prevStep *float64) error {
	strict := func(v any) error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	switch ep {
	case "filter":
		var r api.FilterResponse
		if err := strict(&r); err != nil {
			return err
		}
		if n := len(r.Eligible) + len(r.Failed); n != servers {
			return fmt.Errorf("eligible+failed = %d, want %d", n, servers)
		}
		for i := 1; i < len(r.Eligible); i++ {
			if r.Eligible[i].Index <= r.Eligible[i-1].Index {
				return errors.New("eligible not ascending")
			}
		}
	case "prioritize":
		var r api.PrioritizeResponse
		if err := strict(&r); err != nil {
			return err
		}
		if len(r.Scores) != prioritizeCandidates {
			return fmt.Errorf("%d scores, want %d", len(r.Scores), prioritizeCandidates)
		}
		for i, sc := range r.Scores {
			if sc.Score < 0 || sc.Score > 100 {
				return fmt.Errorf("score %v out of [0, 100]", sc.Score)
			}
			if i > 0 && sc.Score > r.Scores[i-1].Score {
				return errors.New("scores not sorted best first")
			}
		}
	case "status":
		var r api.FleetStatus
		if err := strict(&r); err != nil {
			return err
		}
		if r.Servers != servers || r.Mode != ocd.ModeStepped || math.Mod(r.SimTimeS, stepS) != 0 {
			return fmt.Errorf("servers %d, mode %q, sim_time_s %v", r.Servers, r.Mode, r.SimTimeS)
		}
	case "metrics":
		if !bytes.Contains(body, []byte("# TYPE")) || !bytes.Contains(body, []byte("http_requests")) {
			return errors.New("no http_requests family")
		}
	case "place":
		var r api.PlaceResponse
		if err := strict(&r); err != nil {
			return err
		}
		if r.Placed && (r.Server == nil || r.Server.Index < 0 || r.Server.Index >= servers) {
			return errors.New("placed without a valid server")
		}
		if !r.Placed && r.Error == "" {
			return errors.New("rejected without a reason")
		}
	case "remove":
		var r api.RemoveResponse
		if err := strict(&r); err != nil {
			return err
		}
	case "overclock":
		var r api.OverclockDecision
		if err := strict(&r); err != nil {
			return err
		}
		if known := r.Reason == "granted" || slices.Contains(denyReasons, r.Reason); !known || r.Granted != (r.Reason == "granted") {
			return fmt.Errorf("granted %v with reason %q", r.Granted, r.Reason)
		}
	case "step":
		var r api.StepResponse
		if err := strict(&r); err != nil {
			return err
		}
		if r.StepsRun != 1 || math.Mod(r.SimTimeS, stepS) != 0 || r.SimTimeS <= *prevStep {
			return fmt.Errorf("steps_run %d, sim_time_s %v after %v", r.StepsRun, r.SimTimeS, *prevStep)
		}
		*prevStep = r.SimTimeS
	}
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func (r *serveResult) endToEnd(v map[string]float64) {
	v["setup_s"] = median(r.setupS)
	v["p50_ms"] = median(r.open.latMs)
}

// summary reports the open loop's tails and step latency, and the closed
// loop's completions per second over nproc connections after its
// warm-up.
func (r *serveResult) summary(v map[string]float64) {
	lat := sortedCopy(r.open.latMs)
	v["bench.samples"] = float64(len(lat))
	v["bench.throughput_per_s"] = r.capacity
	v["bench.p95_ms"] = tail("bench.p95_ms", lat, 0.95)
	v["bench.p99_ms"] = tail("bench.p99_ms", lat, 0.99)
	v["bench.step_p50_ms"] = median(r.open.stepLatMs)
}

// perLayer computes the per-layer metrics of a traced pass from its
// spans and the decider's counts.
func (r *serveResult) perLayer(v map[string]float64) {
	client := map[uint64]span{}
	handler := map[uint64]span{}
	byName := map[string][]span{}
	kids := map[uint64][]span{}
	for _, s := range r.spans {
		switch {
		case strings.HasPrefix(s.Name, "client."):
			client[s.Trace] = s
		case strings.HasPrefix(s.Name, "ocd."):
			handler[s.Trace] = s
			byName[s.Name] = append(byName[s.Name], s)
		case strings.HasPrefix(s.Name, "placement.") && s.Trace != 0:
			kids[s.Trace] = append(kids[s.Trace], s)
		}
	}

	var httpSelf []float64
	for trace, c := range client {
		if h, ok := handler[trace]; ok {
			httpSelf = append(httpSelf, us(c.dur()-h.dur()))
		}
	}
	hs := sortedCopy(httpSelf)
	v["http.self_us.p50"] = median(hs)
	v["http.self_us.p99"] = tail("http.self_us.p99", hs, 0.99)
	for _, e := range endpoints {
		var self []float64
		var bytesSum float64
		for _, h := range byName["ocd."+e] {
			self = append(self, us(selfTime(h, kids[h.Trace])))
			bytesSum += float64(h.Bytes)
		}
		ss := sortedCopy(self)
		v["ocd."+e+".self_us.p50"] = median(ss)
		v["ocd."+e+".self_us.p99"] = tail("ocd."+e+".self_us.p99", ss, 0.99)
		v["ocd."+e+".count"] = float64(len(self))
		if slices.Contains(readEndpoints, e) {
			v["ocd."+e+".resp_bytes"] = ratio(bytesSum, float64(len(self)))
		}
	}
	if r.dec != nil {
		placementMetrics(r.dec.stats(), v)
	}
	v["bench.gen_late_p99_us"] = tail("bench.gen_late_p99_us", sortedCopy(r.open.lateUs), 0.99)
	v["bench.backlog_s"] = r.open.maxLag.Seconds()
	goDelta(r.goBefore, r.goAfter, v)
}
