package ocd

// The locked read plane: /v1/filter, /v1/prioritize, /v1/status,
// /healthz and /metrics answered from the live Sim under the daemon
// lock — the serving path before published snapshots. It is the
// oracle TestSnapshotMatchesLockedReads pins the snapshot read plane
// (view.go) against, and the baseline arm of
// BenchmarkServingMixedReadWhileStepping. Only reads are duplicated:
// every other route falls through to the production Handler, so a
// locked twin mutates, steps and publishes exactly as the daemon does.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"

	"immersionoc/internal/api"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// lockedHandler serves d's read endpoints through the locked oracle
// and sends every other request to d.Handler().
func lockedHandler(d *Daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/filter", post(d, func(r api.FilterRequest) string { return r.Vers },
		underLock(d, d.filterLocked)))
	mux.HandleFunc("/v1/prioritize", post(d, func(r api.PrioritizeRequest) string { return r.Vers },
		underLock(d, d.prioritizeLocked)))
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		d.requests.Inc()
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		d.mu.Lock()
		st := d.statusLocked()
		d.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		d.requests.Inc()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.NewPromRenderer(d.reg, "ocd").Render(w)
	})
	mux.Handle("/", d.Handler())
	return mux
}

// underLock runs a read under the daemon lock. Unlike locked it does
// not republish: a read changes nothing a view would show.
func underLock[Req any, Resp any](d *Daemon, fn func(Req) (Resp, error)) func(context.Context, Req) (Resp, error) {
	return func(_ context.Context, req Req) (Resp, error) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return fn(req)
	}
}

// filterLocked answers "which servers can take this VM" from the live
// simulation.
func (d *Daemon) filterLocked(req api.FilterRequest) (api.FilterResponse, error) {
	v, err := vmFromSpec(req.VM)
	if err != nil {
		return api.FilterResponse{}, err
	}
	cl := d.sim.Cluster()
	servers := cl.Servers()
	resp := api.FilterResponse{Vers: api.Version}
	for i, srv := range servers {
		ref := d.serverRef(i)
		reason := cl.Explain(srv, v)
		if reason == "" && v.Class == vm.HighPerf &&
			d.sim.TankOverclocked(ref.Tank) >= d.sim.TankBudget(ref.Tank) {
			// A guaranteed-overclock VM needs condenser headroom in the
			// tank, not just core headroom on the server.
			reason = reasonThermal
		}
		if reason == "" {
			resp.Eligible = append(resp.Eligible, ref)
		} else {
			resp.Failed = append(resp.Failed, api.FilterFailure{Server: ref, Reason: reason})
		}
	}
	return resp, nil
}

// prioritizeLocked scores candidates 0–100 from the live simulation:
// packing headroom after placement blended with remaining wear credit
// (a server with slack in both can absorb bursts by overclocking
// instead of degrading).
func (d *Daemon) prioritizeLocked(req api.PrioritizeRequest) (api.PrioritizeResponse, error) {
	v, err := vmFromSpec(req.VM)
	if err != nil {
		return api.PrioritizeResponse{}, err
	}
	pol := d.sim.Cluster().Policy
	resp := api.PrioritizeResponse{Vers: api.Version}
	for _, i := range req.Servers {
		if i < 0 || i >= d.sim.ServerCount() {
			return api.PrioritizeResponse{}, errf(http.StatusBadRequest, "server %d out of range", i)
		}
		info := d.sim.Server(i)
		capV := float64(info.PCores)
		if pol.CPUOversubRatio > 0 && info.Overclockable {
			capV = math.Floor(capV * (1 + pol.CPUOversubRatio))
		}
		headroom := (capV - float64(info.VCoresUsed) - float64(v.Type.VCores)) / capV
		headroom = math.Max(0, math.Min(1, headroom))
		credit := 1.0
		if info.WearProRata > 0 {
			credit = math.Max(0, math.Min(1, 1-info.WearUsed/info.WearProRata))
		}
		resp.Scores = append(resp.Scores, api.HostScore{
			Server: api.ServerRef{Index: info.Index, ID: info.ID, Tank: info.Tank},
			Score:  100 * (0.6*headroom + 0.4*credit),
		})
	}
	sort.SliceStable(resp.Scores, func(a, b int) bool {
		if resp.Scores[a].Score != resp.Scores[b].Score {
			return resp.Scores[a].Score > resp.Scores[b].Score
		}
		return resp.Scores[a].Server.Index < resp.Scores[b].Server.Index
	})
	return resp, nil
}

// statusLocked reports the fleet KPIs from the live simulation:
// cumulative counts from the run's report plus live row/thermal state.
func (d *Daemon) statusLocked() api.FleetStatus {
	rep := d.sim.Report()
	oc := 0
	for i := 0; i < d.sim.TankCount(); i++ {
		oc += d.sim.TankOverclocked(i)
	}
	return api.FleetStatus{
		Vers:                 api.Version,
		SimTimeS:             d.sim.Now(),
		StepS:                d.sim.StepS(),
		Mode:                 d.mode,
		Servers:              d.sim.ServerCount(),
		Tanks:                d.sim.TankCount(),
		PlacedVMs:            len(d.vms),
		Density:              d.sim.Cluster().Density(),
		Rejected:             rep.Rejected,
		RowPowerW:            d.sim.RowPowerW(),
		MaxBathC:             rep.MaxBathC,
		Overclocked:          oc,
		Grants:               rep.TotalGrants,
		Cancelled:            rep.CancelledOverclocks,
		CapEvents:            rep.CapEvents,
		OverclockServerHours: rep.OverclockServerHours,
		MeanWearUsed:         rep.MeanWearUsed,
	}
}
