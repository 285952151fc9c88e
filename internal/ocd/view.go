package ocd

// The snapshot read plane: /v1/filter, /v1/prioritize, /v1/status,
// /healthz and /metrics served entirely from the last published
// fleetView, with zero locking.
//
// Correctness contract: every handler here must produce bytes
// identical to its locked oracle (locked_oracle_test.go) when the view
// was published at the same simulated instant —
// TestSnapshotMatchesLockedReads pins that equivalence response by
// response. Both planes decode through decodeBody, so request errors
// agree by construction.
//
// Allocation contract, pinned by TestServingAllocs once scratch is
// warm: status, metrics and healthz allocate nothing; filter and
// prioritize allocate only inside decodeBody (encoding/json's decoder
// and the request's strings), so their count does not grow with the
// fleet or the answer.
//
// Recycling rules:
//   - fleetView is immutable after publishLocked stores it. Views are
//     never pooled: a reader may hold one arbitrarily long, so reusing
//     a retired view's slices would race with in-flight reads. The
//     write plane pays one view allocation per publish; readers pay
//     nothing.
//   - servScratch is per-request mutable state (request structs,
//     response slices, the pooled JSON encoder). It cycles
//     through d.scratch, so a request owns its scratch exclusively
//     from Get to Put.
//   - telemetry.PromRenderer is not safe for concurrent use, so
//     /metrics cycles renderers through d.renderers the same way.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// reasonThermal is the interned filter-failure reason for a
// guaranteed-overclock VM landing in a tank with no condenser
// headroom; the cluster-level reasons are interned as cluster.Reason*.
const reasonThermal = "thermal"

// fleetView is one published read model: the simulation's columnar
// snapshot plus the daemon-level state the read endpoints report.
type fleetView struct {
	dcsim.FleetSnapshot
	// placedVMs is len(d.vms) at publish time — the daemon's notion of
	// placed VMs (includes VMs on failed servers, unlike
	// Flat.PlacedVMs, matching the locked status path).
	placedVMs int
}

// publishLocked snapshots the simulation into a new view and makes it
// the current read model. Caller must hold d.mu. The view CHAINS off
// the previously published one: the snapshot export shares every
// column chunk that no mutation dirtied since the last publish, so a
// one-VM write republishes in O(dirty chunks) instead of O(fleet). The
// previous view is never written — readers holding it are undisturbed.
func (d *Daemon) publishLocked() {
	v := &fleetView{}
	if prev := d.snap.Load(); prev != nil {
		v.FleetSnapshot = prev.FleetSnapshot
	}
	d.sim.Snapshot(&v.FleetSnapshot)
	v.placedVMs = len(d.vms)
	d.snap.Store(v)
}

// Shared header value slices: assigning a pre-built []string into the
// header map is the allocation-free spelling of Header().Set.
var (
	jsonCT = []string{"application/json"}
	textCT = []string{"text/plain; charset=utf-8"}
	promCT = []string{"text/plain; version=0.0.4; charset=utf-8"}

	healthzBody = []byte("ok\n")
)

// outputProxy is the stable io.Writer a pooled json.Encoder is bound
// to; each request points it at the live ResponseWriter for the
// duration of one Encode.
type outputProxy struct{ w io.Writer }

func (p *outputProxy) Write(b []byte) (int, error) { return p.w.Write(b) }

// hostScoreSorter is the typed sort.Interface for prioritize scores:
// score descending, fleet index ascending. The order is total (index
// breaks every tie), so any stable sort yields the same permutation as
// the locked path's sort.SliceStable — and a pointer receiver converts
// to sort.Interface without allocating, where sort.Slice's closure
// would.
type hostScoreSorter struct{ s []api.HostScore }

func (h *hostScoreSorter) Len() int      { return len(h.s) }
func (h *hostScoreSorter) Swap(i, j int) { h.s[i], h.s[j] = h.s[j], h.s[i] }
func (h *hostScoreSorter) Less(i, j int) bool {
	if h.s[i].Score != h.s[j].Score {
		return h.s[i].Score > h.s[j].Score
	}
	return h.s[i].Server.Index < h.s[j].Server.Index
}

// servScratch is the pooled per-request state of the read plane.
type servScratch struct {
	freq api.FilterRequest
	preq api.PrioritizeRequest // Servers keeps its capacity across requests

	eligible []api.ServerRef
	failed   []api.FilterFailure
	scores   []api.HostScore
	sorter   hostScoreSorter

	fresp  api.FilterResponse
	presp  api.PrioritizeResponse
	status api.FleetStatus

	out outputProxy
	enc *json.Encoder
}

func newServScratch() *servScratch {
	sc := &servScratch{}
	sc.enc = json.NewEncoder(&sc.out)
	return sc
}

// writeJSON encodes v through the scratch's pooled encoder, matching
// the locked path's writeJSON byte for byte (same encoder settings,
// same trailing newline; the 200 status is implicit).
func (sc *servScratch) writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonCT
	sc.out.w = w
	err := sc.enc.Encode(v)
	sc.out.w = nil
	if err != nil {
		// A json.Encoder's first error is sticky and would poison every
		// later request recycled through this scratch — replace it.
		sc.enc = json.NewEncoder(&sc.out)
	}
}

// serveFilter answers /v1/filter from the published view: the same
// eligibility walk as filterLocked, over the columnar export.
func (d *Daemon) serveFilter(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	sc := d.scratch.Get().(*servScratch)
	defer d.scratch.Put(sc)
	sc.freq = api.FilterRequest{}
	if !decodeBody(w, r, &sc.freq, func(q *api.FilterRequest) string { return q.Vers }) {
		return
	}
	class, err := classFromSpec(&sc.freq.VM)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	view := d.snap.Load()
	flat := &view.Flat
	highPerf := class == vm.HighPerf
	sc.eligible = sc.eligible[:0]
	sc.failed = sc.failed[:0]
	for i := 0; i < flat.Servers; i++ {
		tank := i / view.ServersPerTank
		ref := api.ServerRef{Index: i, ID: flat.ID.At(i), Tank: tank}
		reason := flat.Explain(i, sc.freq.VM.VCores, sc.freq.VM.MemoryGB, highPerf)
		if reason == "" && highPerf && view.OCPerTank[tank] >= view.TankBudget[tank] {
			// A guaranteed-overclock VM needs condenser headroom in the
			// tank, not just core headroom on the server.
			reason = reasonThermal
		}
		if reason == "" {
			sc.eligible = append(sc.eligible, ref)
		} else {
			sc.failed = append(sc.failed, api.FilterFailure{Server: ref, Reason: reason})
		}
	}
	sc.fresp = api.FilterResponse{Vers: api.Version, Eligible: sc.eligible, Failed: sc.failed}
	sc.writeJSON(w, &sc.fresp)
}

// servePrioritize answers /v1/prioritize from the published view,
// replicating prioritizeLocked's scoring arithmetic expression for
// expression (the fleet is spec-uniform, so the capacity term hoists
// out of the loop).
func (d *Daemon) servePrioritize(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	sc := d.scratch.Get().(*servScratch)
	defer d.scratch.Put(sc)
	// Decode into the pooled Servers capacity, zeroed in full first:
	// encoding/json leaves an element it decodes null untouched, and a
	// stale index from an earlier request must read as the 0 a fresh
	// slice holds.
	servers := sc.preq.Servers[:cap(sc.preq.Servers)]
	clear(servers)
	sc.preq = api.PrioritizeRequest{Servers: servers[:0]}
	if !decodeBody(w, r, &sc.preq, func(q *api.PrioritizeRequest) string { return q.Vers }) {
		return
	}
	if _, err := classFromSpec(&sc.preq.VM); err != nil {
		writeAPIError(w, err)
		return
	}
	view := d.snap.Load()
	flat := &view.Flat
	capV := float64(flat.Spec.PCores)
	if flat.OversubRatio > 0 && flat.Spec.Overclockable {
		capV = math.Floor(capV * (1 + flat.OversubRatio))
	}
	vcores := float64(sc.preq.VM.VCores)
	sc.scores = sc.scores[:0]
	for _, i := range sc.preq.Servers {
		if i < 0 || i >= flat.Servers {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("server %d out of range", i))
			return
		}
		headroom := (capV - float64(flat.VCoresUsed.At(i)) - vcores) / capV
		headroom = math.Max(0, math.Min(1, headroom))
		credit := 1.0
		if view.WearProRata.At(i) > 0 {
			credit = math.Max(0, math.Min(1, 1-view.WearUsed.At(i)/view.WearProRata.At(i)))
		}
		sc.scores = append(sc.scores, api.HostScore{
			Server: api.ServerRef{Index: i, ID: flat.ID.At(i), Tank: i / view.ServersPerTank},
			Score:  100 * (0.6*headroom + 0.4*credit),
		})
	}
	sc.sorter.s = sc.scores
	sort.Stable(&sc.sorter)
	sc.sorter.s = nil
	sc.presp = api.PrioritizeResponse{Vers: api.Version, Scores: sc.scores}
	sc.writeJSON(w, &sc.presp)
}

// serveStatus answers /v1/status from the published view's KPI block.
func (d *Daemon) serveStatus(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	view := d.snap.Load()
	sc := d.scratch.Get().(*servScratch)
	defer d.scratch.Put(sc)
	sc.status = api.FleetStatus{
		Vers:                 api.Version,
		SimTimeS:             view.SimTimeS,
		StepS:                view.StepS,
		Mode:                 d.mode,
		Servers:              view.Flat.Servers,
		Tanks:                len(view.OCPerTank),
		PlacedVMs:            view.placedVMs,
		Density:              view.Flat.Density,
		Rejected:             view.Rejected,
		RowPowerW:            view.RowPowerW,
		MaxBathC:             view.MaxBathC,
		Overclocked:          view.Overclocked,
		Grants:               view.TotalGrants,
		Cancelled:            view.CancelledOverclocks,
		CapEvents:            view.CapEvents,
		OverclockServerHours: view.OverclockServerHours,
		MeanWearUsed:         view.MeanWearUsed,
	}
	sc.writeJSON(w, &sc.status)
}

// serveHealthz mirrors the locked liveness probe: any method, no
// request accounting, a constant body.
func (d *Daemon) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = textCT
	_, _ = w.Write(healthzBody)
}

// serveMetrics renders the Prometheus exposition through a pooled
// plan-caching renderer.
func (d *Daemon) serveMetrics(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	rend := d.renderers.Get().(*telemetry.PromRenderer)
	w.Header()["Content-Type"] = promCT
	_ = rend.Render(w)
	d.renderers.Put(rend)
}
