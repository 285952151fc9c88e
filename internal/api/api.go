// Package api is the typed, versioned wire contract of the ocd
// control-plane daemon: the request/response structs the HTTP server
// decodes and encodes, shared verbatim by the Go client (client.go) so
// server and callers cannot drift.
//
// The API follows the shape of a Kubernetes scheduler extender —
// filter ("which servers can take this VM?"), prioritize ("score the
// candidates"), plus the overclock grant/cancel verb the paper's
// economics revolve around — with fleet status and deterministic time
// control (step) for tests and batch-equivalence checks.
//
// Wire conventions, shared with the experiment registry's JSON form:
// snake_case field names, omitempty on optional fields, and a version
// field on every top-level request/response (Version, currently "v1").
// All floats are plain JSON numbers; Go's encoder emits the shortest
// round-trippable form, so a trace driven through the HTTP path
// reproduces the batch simulation bit for bit.
package api

// Version is the wire-format version tag carried by every top-level
// request and response.
const Version = "v1"

// VMSpec describes a VM to place: the sizing fields the cluster packer
// bins by plus the utilization statistics the overclock governor's
// Equation 1 model consumes.
type VMSpec struct {
	// ID is the caller-assigned VM identity; departures reference it.
	ID int `json:"id"`
	// VCores and MemoryGB are the sold size.
	VCores   int     `json:"vcores"`
	MemoryGB float64 `json:"memory_gb"`
	// Class is "regular", "high-perf" or "harvest" (empty = regular).
	Class string `json:"class,omitempty"`
	// AvgUtil is the VM's mean CPU utilization in [0, 1].
	AvgUtil float64 `json:"avg_util"`
	// ScalableFraction is the workload's ΔPperf/ΔAperf.
	ScalableFraction float64 `json:"scalable_fraction,omitempty"`
}

// FilterRequest asks which servers can take a VM given thermal,
// row-power and wear-risk headroom.
type FilterRequest struct {
	Vers string `json:"version,omitempty"`
	VM   VMSpec `json:"vm"`
}

// ServerRef identifies one fleet server in responses.
type ServerRef struct {
	// Index is the dense fleet index used by grant and prioritize
	// calls; ID is the cluster server ID.
	Index int `json:"index"`
	ID    int `json:"id"`
	Tank  int `json:"tank"`
}

// FilterFailure names why a server was filtered out.
type FilterFailure struct {
	Server ServerRef `json:"server"`
	// Reason is a machine-readable cause: "capacity", "memory",
	// "class", "thermal", "risk_budget" or "failed".
	Reason string `json:"reason"`
}

// FilterResponse lists the servers that can host the VM and, for the
// rest, why not.
type FilterResponse struct {
	Vers string `json:"version,omitempty"`
	// Eligible are the servers that pass every headroom check,
	// ascending by index.
	Eligible []ServerRef `json:"eligible,omitempty"`
	// Failed carries the per-server rejection reasons.
	Failed []FilterFailure `json:"failed,omitempty"`
}

// PrioritizeRequest scores filter-eligible candidates for a VM.
type PrioritizeRequest struct {
	Vers string `json:"version,omitempty"`
	VM   VMSpec `json:"vm"`
	// Servers are the candidate fleet indices (typically a
	// FilterResponse's eligible set).
	Servers []int `json:"servers"`
}

// HostScore is one candidate's priority.
type HostScore struct {
	Server ServerRef `json:"server"`
	// Score is 0–100, higher is better: headroom after placement
	// combined with wear credit (perf-per-TCO proxy — a server with
	// spare thermal/wear budget can absorb bursts by overclocking
	// instead of degrading).
	Score float64 `json:"score"`
}

// PrioritizeResponse carries the scores, best first.
type PrioritizeResponse struct {
	Vers   string      `json:"version,omitempty"`
	Scores []HostScore `json:"scores,omitempty"`
}

// PlaceRequest binds a VM to a server (best-fit when Server is nil).
type PlaceRequest struct {
	Vers string `json:"version,omitempty"`
	VM   VMSpec `json:"vm"`
}

// PlaceResponse reports the binding.
type PlaceResponse struct {
	Vers string `json:"version,omitempty"`
	// Placed is false when no server fits (the arrival is rejected and
	// counted, exactly like a batch trace replay).
	Placed bool `json:"placed"`
	// Server is the binding when placed.
	Server *ServerRef `json:"server,omitempty"`
	// Error carries the placer's reason when not placed.
	Error string `json:"error,omitempty"`
}

// RemoveRequest releases a VM by ID. Removing an ID that was rejected
// at arrival (or never placed) is a no-op, matching trace replay.
type RemoveRequest struct {
	Vers string `json:"version,omitempty"`
	ID   int    `json:"id"`
}

// RemoveResponse acknowledges the departure.
type RemoveResponse struct {
	Vers string `json:"version,omitempty"`
	// Removed is false when the ID was not placed.
	Removed bool `json:"removed"`
}

// OverclockGrantRequest asks to grant or cancel a server's overclock.
type OverclockGrantRequest struct {
	Vers string `json:"version,omitempty"`
	// Server is the fleet index.
	Server int `json:"server"`
	// Cancel revokes an existing grant instead of requesting one.
	Cancel bool `json:"cancel,omitempty"`
}

// OverclockDecision is the governor's typed answer.
type OverclockDecision struct {
	Vers string `json:"version,omitempty"`
	// Granted reports whether the server is overclocked after the call.
	Granted bool `json:"granted"`
	// Reason is the machine-readable cause: "granted", "cancelled",
	// "eq1_threshold", "tank_budget", "risk_budget", "feeder_cap" or
	// "not_overclockable" (the placement.Reason vocabulary).
	Reason string `json:"reason"`
	// RowPowerW is the row draw after the decision.
	RowPowerW float64 `json:"row_power_w"`
}

// StepRequest advances the simulation deterministically: Steps control
// periods (omitted or 0 means 1; negative is rejected). Only valid in
// stepped time mode.
type StepRequest struct {
	Vers  string `json:"version,omitempty"`
	Steps int    `json:"steps,omitempty"`
}

// StepResponse reports the clock after stepping.
type StepResponse struct {
	Vers string `json:"version,omitempty"`
	// SimTimeS is the simulated time after the steps ran.
	SimTimeS float64 `json:"sim_time_s"`
	// StepsRun is the number of control periods executed.
	StepsRun int `json:"steps_run"`
}

// FleetStatus is the daemon's KPI snapshot.
type FleetStatus struct {
	Vers string `json:"version,omitempty"`
	// SimTimeS is the current simulated time; StepS the control
	// period; Mode "stepped" or "scaled".
	SimTimeS float64 `json:"sim_time_s"`
	StepS    float64 `json:"step_s"`
	Mode     string  `json:"mode"`
	// Servers / Tanks describe the fleet shape.
	Servers int `json:"servers"`
	Tanks   int `json:"tanks"`
	// PlacedVMs and Density describe packing state.
	PlacedVMs int     `json:"placed_vms"`
	Density   float64 `json:"density"`
	// Rejected counts denied arrivals since start.
	Rejected int `json:"rejected"`
	// RowPowerW is the current row draw; MaxBathC the hottest bath
	// reached; Overclocked the servers currently overclocked.
	RowPowerW   float64 `json:"row_power_w"`
	MaxBathC    float64 `json:"max_bath_c"`
	Overclocked int     `json:"overclocked"`
	// Grants / Cancelled / CapEvents are cumulative decision counts;
	// OverclockServerHours integrates grants over time.
	Grants               int     `json:"grants"`
	Cancelled            int     `json:"cancelled"`
	CapEvents            int     `json:"cap_events"`
	OverclockServerHours float64 `json:"oc_server_hours"`
	// MeanWearUsed is the fleet-average wear rate vs the pro-rata
	// service-life schedule.
	MeanWearUsed float64 `json:"mean_wear_used"`
}

// ErrorResponse is the body of every non-2xx API answer.
type ErrorResponse struct {
	Vers  string `json:"version,omitempty"`
	Error string `json:"error"`
}
