// Package ocd is the overclocking control-plane daemon behind the
// `ocd` command: a stepwise dcsim.Sim served over the typed v1 API.
//
// The daemon is split into two planes:
//
//   - The WRITE plane — /v1/place, /v1/remove, /v1/overclock,
//     /v1/step, and scaled-time stepping — serializes behind one
//     mutex. The Sim is engineered for a single control loop, and a
//     mutating handler is just another entrant into that loop.
//     Decisions go through the Sim's placement.Decider, so an answer
//     served here is the same answer the batch evaluation would
//     compute.
//
//   - The READ plane — /v1/filter, /v1/prioritize, /v1/status,
//     /healthz, /metrics — never touches the mutex. After every
//     mutation (and after every step chunk) the write plane publishes
//     an immutable fleetView through an atomic pointer; readers load
//     the current view and answer entirely from it. Reads never
//     contend with stepping or with each other, and the read handlers
//     are allocation-free in steady state (see view.go).
//
// See DESIGN.md "Serving performance" for the snapshot lifecycle and
// the recycling contracts.
package ocd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/placement"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// Time modes: stepped (time advances only via POST /v1/step) or
// scaled (wall clock drives steps continuously).
const (
	ModeStepped = "stepped"
	ModeScaled  = "scaled"
)

// maxStepsPerCall bounds one /v1/step request so a typo cannot hold
// the simulation busy for minutes.
const maxStepsPerCall = 100000

// stepChunk is how many simulation steps run per lock acquisition: a
// large /v1/step batch (and scaled-mode catch-up) releases the daemon
// lock every chunk so mutating API calls interleave instead of
// starving for the whole batch, and republishes the read snapshot so
// the read plane observes the batch's progress.
const stepChunk = 64

// maxBodyBytes caps a request body. The largest legitimate v1 request
// is a prioritize call naming every server; a multi-gigabyte body is
// an attack, not a request.
const maxBodyBytes = 1 << 20

// Daemon serves one simulated fleet. Create with New, wire with
// Handler, and in scaled mode drive time with RunScaled.
type Daemon struct {
	mu   sync.Mutex
	sim  *dcsim.Sim
	vms  map[int]*vm.VM // placed VMs by ID, for Remove
	mode string
	reg  *telemetry.Registry

	// snap is the published read model: an immutable view readers load
	// without locking. Replaced (never mutated) under mu. Each view
	// chains off its predecessor through the snapshot's chunked COW
	// columns, so a publish costs O(what changed), not O(fleet).
	snap atomic.Pointer[fleetView]

	// scratch pools the per-request read-plane state (decode buffer,
	// response slices, pooled encoder); renderers pools the /metrics
	// exposition plans. Both recycle via sync.Pool so concurrent
	// readers never share state.
	scratch   sync.Pool
	renderers sync.Pool

	grants, denies *telemetry.Counter
	requests       *telemetry.Counter
}

// New builds a daemon around a fresh simulation and publishes the
// initial read snapshot. mode is ModeStepped or ModeScaled.
func New(cfg dcsim.Config, mode string, reg *telemetry.Registry) (*Daemon, error) {
	sim, err := dcsim.New(cfg)
	if err != nil {
		return nil, err
	}
	ocd := reg.Scope("ocd")
	d := &Daemon{
		sim:      sim,
		vms:      make(map[int]*vm.VM),
		mode:     mode,
		reg:      reg,
		grants:   ocd.Counter("overclock_grants"),
		denies:   ocd.Counter("overclock_denies"),
		requests: ocd.Counter("http_requests"),
	}
	d.scratch.New = func() any { return newServScratch() }
	d.renderers.New = func() any { return telemetry.NewPromRenderer(reg, "ocd") }
	d.publishLocked()
	return d, nil
}

// RunScaled drives the control loop from the wall clock. The target
// simulated time is elapsed-wall-time × scale measured from the loop's
// start; each pass steps the simulation until it catches up to the
// target, in stepChunk batches so API requests interleave. Stepping
// against the measured elapsed time — rather than counting ticker
// ticks — means a step that outruns the interval, a scheduler stall,
// or the truncation in the interval arithmetic can delay simulated
// time but never silently lose it: the next pass sees the larger
// elapsed time and catches up. The remaining gap is exported as the
// ocd.sim_time_drift_s gauge (bounded by one step period when the
// host keeps up).
func (d *Daemon) RunScaled(ctx context.Context, scale float64) {
	stepS := d.sim.StepS()
	drift := d.reg.Scope("ocd").Gauge("sim_time_drift_s")
	start := time.Now()
	d.mu.Lock()
	base := d.sim.Now()
	d.mu.Unlock()
	for ctx.Err() == nil {
		target := base + time.Since(start).Seconds()*scale
		d.mu.Lock()
		steps := 0
		for d.sim.Now()+stepS <= target && steps < stepChunk {
			d.sim.Step()
			steps++
		}
		now := d.sim.Now()
		if steps > 0 {
			d.publishLocked()
		}
		d.mu.Unlock()
		drift.Set(base + time.Since(start).Seconds()*scale - now)
		if steps == stepChunk {
			// Still behind: yield the lock briefly, then keep catching
			// up against a freshly measured target.
			continue
		}
		// Caught up. Sleep until the next step is due, bounded so
		// cancellation stays prompt even at extreme scales.
		wait := time.Duration((now + stepS - target) / scale * float64(time.Second))
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		if wait > 250*time.Millisecond {
			wait = 250 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// apiError carries an HTTP status with a message for ErrorResponse.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func errf(code int, format string, a ...any) error {
	return &apiError{code: code, msg: fmt.Sprintf(format, a...)}
}

// post wires a typed request handler: cap and decode the JSON body
// (rejecting oversized payloads and trailing garbage), check the
// version tag, run fn with the request context, and encode the
// response (or an ErrorResponse with the apiError's status). fn owns
// its locking — most handlers are wrapped by locked, while /v1/step
// chunks the lock itself.
func post[Req any, Resp any](d *Daemon, vers func(Req) string, fn func(context.Context, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d.requests.Inc()
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		dec := json.NewDecoder(body)
		var req Req
		if err := dec.Decode(&req); err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
				return
			}
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		// Exactly one JSON document per request: trailing garbage means
		// a malformed client (or two concatenated requests) and is
		// rejected rather than silently ignored.
		if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
			writeError(w, http.StatusBadRequest, "trailing data after JSON document")
			return
		}
		if v := vers(req); v != "" && v != api.Version {
			writeError(w, http.StatusBadRequest, "unsupported version "+v)
			return
		}
		resp, err := fn(r.Context(), req)
		if err != nil {
			code := http.StatusInternalServerError
			if ae, ok := err.(*apiError); ok {
				code = ae.code
			}
			writeError(w, code, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// locked adapts a handler that needs the whole daemon lock for its
// duration, republishing the read snapshot before releasing it — even
// a denied overclock refreshes power caches as a side effect, so every
// locked entrant republishes.
func locked[Req any, Resp any](d *Daemon, fn func(Req) (Resp, error)) func(context.Context, Req) (Resp, error) {
	return func(_ context.Context, req Req) (Resp, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		resp, err := fn(req)
		d.publishLocked()
		return resp, err
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, api.ErrorResponse{Vers: api.Version, Error: msg})
}

// classFromSpec validates a VMSpec and resolves its class tag, sharing
// the validation (and its exact error messages) between the write
// path, the snapshot read path and the locked-read test oracle.
func classFromSpec(s *api.VMSpec) (vm.Class, error) {
	if s.VCores <= 0 || s.MemoryGB <= 0 {
		return 0, errf(http.StatusBadRequest, "vm %d: need positive vcores and memory", s.ID)
	}
	// Both are fractions. avg_util feeds the governor's Equation 1
	// demand estimate, so an out-of-range value would buy (or dodge) an
	// overclock grant.
	if !(s.AvgUtil >= 0 && s.AvgUtil <= 1) {
		return 0, errf(http.StatusBadRequest, "vm %d: avg_util %g outside [0, 1]", s.ID, s.AvgUtil)
	}
	if !(s.ScalableFraction >= 0 && s.ScalableFraction <= 1) {
		return 0, errf(http.StatusBadRequest, "vm %d: scalable_fraction %g outside [0, 1]", s.ID, s.ScalableFraction)
	}
	switch s.Class {
	case "", "regular":
		return vm.Regular, nil
	case "high-perf":
		return vm.HighPerf, nil
	case "harvest":
		return vm.Harvest, nil
	default:
		return 0, errf(http.StatusBadRequest, "vm %d: unknown class %q", s.ID, s.Class)
	}
}

// vmFromSpec reconstructs the simulator's VM from its wire form. The
// placement models read only size, class and the utilization
// statistics, all of which survive the JSON round trip bit-exactly, so
// an API-driven arrival is indistinguishable from a trace-replayed one.
func vmFromSpec(s api.VMSpec) (*vm.VM, error) {
	class, err := classFromSpec(&s)
	if err != nil {
		return nil, err
	}
	return &vm.VM{
		ID:               s.ID,
		Type:             vm.Type{Name: fmt.Sprintf("v%d", s.VCores), VCores: s.VCores, MemoryGB: s.MemoryGB},
		Class:            class,
		AvgUtil:          s.AvgUtil,
		ScalableFraction: s.ScalableFraction,
	}, nil
}

func (d *Daemon) serverRef(i int) api.ServerRef {
	info := d.sim.Server(i)
	return api.ServerRef{Index: info.Index, ID: info.ID, Tank: info.Tank}
}

// place binds a VM through the cluster packer with trace-identical
// rejection accounting.
func (d *Daemon) place(req api.PlaceRequest) (api.PlaceResponse, error) {
	v, err := vmFromSpec(req.VM)
	if err != nil {
		return api.PlaceResponse{}, err
	}
	if _, dup := d.vms[v.ID]; dup {
		return api.PlaceResponse{}, errf(http.StatusConflict, "vm %d already placed", v.ID)
	}
	srv, err := d.sim.Place(v)
	if err != nil {
		return api.PlaceResponse{Vers: api.Version, Placed: false, Error: err.Error()}, nil
	}
	d.vms[v.ID] = v
	ref := d.serverRef(srv.ID)
	return api.PlaceResponse{Vers: api.Version, Placed: true, Server: &ref}, nil
}

// remove releases a VM; departures of VMs that were rejected at
// arrival are no-ops, matching trace replay.
func (d *Daemon) remove(req api.RemoveRequest) (api.RemoveResponse, error) {
	v, ok := d.vms[req.ID]
	if !ok {
		return api.RemoveResponse{Vers: api.Version, Removed: false}, nil
	}
	host, hosted := d.sim.Cluster().Host(v.ID)
	d.sim.Remove(v)
	if hosted {
		// Fold the departure's power delta now, as place does for
		// arrivals via serverRef: every API mutation leaves the row sum
		// fully folded, so the published snapshot and a locked read
		// report the same draw.
		d.sim.RefreshServerPower(host.ID)
	}
	delete(d.vms, req.ID)
	return api.RemoveResponse{Vers: api.Version, Removed: true}, nil
}

// overclock evaluates a grant (or applies a cancel) through the Sim's
// decider, so an API grant obeys exactly the governor's admission
// rules: Equation 1 threshold, tank condenser budget, wear-risk
// budget, feeder cap.
func (d *Daemon) overclock(req api.OverclockGrantRequest) (api.OverclockDecision, error) {
	if req.Server < 0 || req.Server >= d.sim.ServerCount() {
		return api.OverclockDecision{}, errf(http.StatusBadRequest, "server %d out of range", req.Server)
	}
	if req.Cancel {
		d.sim.SetOverclock(req.Server, false)
		return api.OverclockDecision{
			Vers: api.Version, Granted: false, Reason: "cancelled",
			RowPowerW: d.sim.RowPowerW(),
		}, nil
	}
	info := d.sim.Server(req.Server)
	if info.Overclocked {
		return api.OverclockDecision{
			Vers: api.Version, Granted: true, Reason: string(placement.ReasonGranted),
			RowPowerW: d.sim.RowPowerW(),
		}, nil
	}
	dec := d.sim.Decider().Evaluate(placement.GrantQuery{
		Overclockable:   info.Overclockable,
		DemandCores:     info.DemandCores,
		PCores:          float64(info.PCores),
		TankOverclocked: d.sim.TankOverclocked(info.Tank),
		TankBudget:      d.sim.TankBudget(info.Tank),
		WearUsed:        info.WearUsed,
		WearProRata:     info.WearProRata,
		RowPowerW:       d.sim.RowPowerW(),
		OverclockDeltaW: info.PowerOCW - info.PowerNomW,
	})
	if dec.Allow {
		d.sim.SetOverclock(req.Server, true)
		d.grants.Inc()
	} else {
		d.denies.Inc()
	}
	return api.OverclockDecision{
		Vers: api.Version, Granted: dec.Allow, Reason: string(dec.Reason),
		RowPowerW: d.sim.RowPowerW(),
	}, nil
}

// step advances the simulation deterministically (stepped mode only).
// The batch runs in stepChunk slices, releasing the daemon lock and
// republishing the read snapshot between slices so the read plane
// observes progress while a 100,000-step batch is in flight, and
// checking the request context so a disconnected client stops burning
// simulation time.
func (d *Daemon) step(ctx context.Context, req api.StepRequest) (api.StepResponse, error) {
	if d.mode != ModeStepped {
		return api.StepResponse{}, errf(http.StatusConflict, "time is %s; POST /v1/step needs -mode stepped", d.mode)
	}
	n := req.Steps
	if n < 0 {
		return api.StepResponse{}, errf(http.StatusBadRequest, "steps %d is negative", n)
	}
	if n == 0 {
		n = 1
	}
	if n > maxStepsPerCall {
		return api.StepResponse{}, errf(http.StatusBadRequest, "steps %d exceeds the per-call cap %d", n, maxStepsPerCall)
	}
	run := 0
	simT := 0.0
	for run < n {
		if err := ctx.Err(); err != nil {
			return api.StepResponse{}, errf(http.StatusRequestTimeout, "cancelled after %d of %d steps: %v", run, n, err)
		}
		chunk := n - run
		if chunk > stepChunk {
			chunk = stepChunk
		}
		d.mu.Lock()
		for i := 0; i < chunk; i++ {
			d.sim.Step()
		}
		simT = d.sim.Now()
		// The chunked COW export makes the per-chunk republish
		// O(servers the chunk's steps touched + dirty chunks), so
		// progress visibility costs what changed.
		d.publishLocked()
		d.mu.Unlock()
		run += chunk
	}
	return api.StepResponse{Vers: api.Version, SimTimeS: simT, StepsRun: run}, nil
}

// FinalReport renders the closing fleet report for the shutdown log.
func (d *Daemon) FinalReport() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sim.Report().String()
}

// Handler builds the daemon's route table. The read endpoints serve
// from the published snapshot (view.go); the write endpoints run under
// the daemon lock and republish it.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/filter", d.serveFilter)
	mux.HandleFunc("/v1/prioritize", d.servePrioritize)
	mux.HandleFunc("/v1/status", d.serveStatus)
	mux.HandleFunc("/healthz", d.serveHealthz)
	mux.HandleFunc("/metrics", d.serveMetrics)
	mux.HandleFunc("/v1/place", post(d, func(r api.PlaceRequest) string { return r.Vers }, locked(d, d.place)))
	mux.HandleFunc("/v1/remove", post(d, func(r api.RemoveRequest) string { return r.Vers }, locked(d, d.remove)))
	mux.HandleFunc("/v1/overclock", post(d, func(r api.OverclockGrantRequest) string { return r.Vers }, locked(d, d.overclock)))
	mux.HandleFunc("/v1/step", post(d, func(r api.StepRequest) string { return r.Vers }, d.step))
	return mux
}
