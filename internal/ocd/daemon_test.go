package ocd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// testFleet is a small open-loop fleet: 12 servers in 3 tanks, no
// feeder limit unless a test sets one.
func testFleet() dcsim.Config {
	cfg := dcsim.DefaultConfig()
	cfg.Servers = 12
	cfg.ServersPerTank = 4
	cfg.FeederBudgetW = 0
	cfg.Events = []vm.Event{}
	return cfg
}

func startDaemon(t *testing.T, cfg dcsim.Config, mode string) (*Daemon, *api.Client) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Tel = reg.Scope("dcsim")
	d, err := New(cfg, mode, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, api.NewClient(ts.URL)
}

// bigVM is a 16-core VM hot enough that two of them push a 48-core
// server past the Equation 1 threshold (2 × 16 × 0.9 = 28.8 > 24).
func bigVM(id int) api.VMSpec {
	return api.VMSpec{ID: id, VCores: 16, MemoryGB: 64, AvgUtil: 0.9, ScalableFraction: 0.5}
}

func TestDaemonLifecycle(t *testing.T) {
	_, c := startDaemon(t, testFleet(), ModeStepped)
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Servers != 12 || st.Tanks != 3 || st.Mode != ModeStepped || st.SimTimeS != 0 {
		t.Fatalf("initial status = %+v", st)
	}

	// Filter: an empty fleet takes anything.
	fr, err := c.Filter(ctx, api.FilterRequest{VM: bigVM(1)})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Eligible) != 12 || len(fr.Failed) != 0 {
		t.Fatalf("filter on empty fleet: %d eligible, %d failed", len(fr.Eligible), len(fr.Failed))
	}

	// Prioritize: scores sorted descending, all in [0, 100].
	pr, err := c.Prioritize(ctx, api.PrioritizeRequest{VM: bigVM(1), Servers: []int{0, 5, 11}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Scores) != 3 {
		t.Fatalf("prioritize returned %d scores", len(pr.Scores))
	}
	for i, s := range pr.Scores {
		if s.Score < 0 || s.Score > 100 {
			t.Errorf("score %d out of range: %v", i, s.Score)
		}
		if i > 0 && s.Score > pr.Scores[i-1].Score {
			t.Errorf("scores not descending at %d", i)
		}
	}

	// Place two hot VMs; best-fit consolidates them on one server.
	p1, err := c.Place(ctx, api.PlaceRequest{VM: bigVM(1)})
	if err != nil || !p1.Placed {
		t.Fatalf("place 1: %+v, %v", p1, err)
	}
	p2, err := c.Place(ctx, api.PlaceRequest{VM: bigVM(2)})
	if err != nil || !p2.Placed {
		t.Fatalf("place 2: %+v, %v", p2, err)
	}
	if p1.Server.Index != p2.Server.Index {
		t.Fatalf("best-fit spread the VMs: %d vs %d", p1.Server.Index, p2.Server.Index)
	}
	if _, err := c.Place(ctx, api.PlaceRequest{VM: bigVM(1)}); err == nil {
		t.Fatal("duplicate VM ID accepted")
	}

	// Overclock the hot server: the governor grants.
	hot := p1.Server.Index
	od, err := c.Overclock(ctx, api.OverclockGrantRequest{Server: hot})
	if err != nil {
		t.Fatal(err)
	}
	if !od.Granted || od.Reason != "granted" {
		t.Fatalf("hot server denied: %+v", od)
	}
	// An idle server is denied with the Equation 1 reason.
	idle := (hot + 1) % 12
	od, err = c.Overclock(ctx, api.OverclockGrantRequest{Server: idle})
	if err != nil {
		t.Fatal(err)
	}
	if od.Granted || od.Reason != "eq1_threshold" {
		t.Fatalf("idle server: %+v, want eq1_threshold denial", od)
	}
	// Cancel is unconditional.
	od, err = c.Overclock(ctx, api.OverclockGrantRequest{Server: hot, Cancel: true})
	if err != nil || od.Granted || od.Reason != "cancelled" {
		t.Fatalf("cancel: %+v, %v", od, err)
	}

	// Step: deterministic time advance; the step re-decides the fleet,
	// so the hot server's grant comes back and counts.
	sr, err := c.Step(ctx, api.StepRequest{Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sr.StepsRun != 3 || sr.SimTimeS != 900 {
		t.Fatalf("step = %+v, want 3 steps to t=900", sr)
	}
	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Grants != 3 || st.Overclocked != 1 || st.PlacedVMs != 2 {
		t.Fatalf("post-step status = %+v, want 3 cumulative grants, 1 OC, 2 VMs", st)
	}
	if st.RowPowerW <= 0 || st.MaxBathC <= 0 {
		t.Fatalf("status thermals empty: %+v", st)
	}

	// Remove: placed → true, unknown → false (trace-replay no-op).
	rr, err := c.Remove(ctx, api.RemoveRequest{ID: 1})
	if err != nil || !rr.Removed {
		t.Fatalf("remove placed: %+v, %v", rr, err)
	}
	rr, err = c.Remove(ctx, api.RemoveRequest{ID: 999})
	if err != nil || rr.Removed {
		t.Fatalf("remove unknown: %+v, %v", rr, err)
	}
}

func TestDaemonMetricsExposition(t *testing.T) {
	_, c := startDaemon(t, testFleet(), ModeStepped)
	ctx := context.Background()

	for i := 1; i <= 2; i++ {
		if _, err := c.Place(ctx, api.PlaceRequest{VM: bigVM(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Overclock(ctx, api.OverclockGrantRequest{Server: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Overclock(ctx, api.OverclockGrantRequest{Server: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(ctx, api.StepRequest{}); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance surface: dcsim gauges (row power, bath, Tj peaks)
	// and the daemon's grant/deny counters, in Prometheus text form.
	for _, want := range []string{
		`ocd_row_power_w{scope="dcsim"}`,
		`ocd_bath_c{scope="dcsim"}`,
		`ocd_peak_tj_c{scope="dcsim"}`,
		`ocd_steps_total{scope="dcsim"} 1`,
		`ocd_overclock_grants_total{scope="ocd"} 1`,
		`ocd_overclock_denies_total{scope="ocd"} 1`,
		"# TYPE ocd_row_power_w gauge",
		"# TYPE ocd_overclock_grants_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestDaemonScaledMode(t *testing.T) {
	d, c := startDaemon(t, testFleet(), ModeScaled)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Stepped-time control is rejected in scaled mode.
	if _, err := c.Step(ctx, api.StepRequest{}); err == nil {
		t.Fatal("step accepted in scaled mode")
	}

	// Wall clock drives the simulation: 300 sim-seconds per
	// millisecond makes progress visible within a few ticks.
	go d.RunScaled(ctx, 300_000)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.SimTimeS > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("scaled mode made no progress in 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestDaemonRequestValidation(t *testing.T) {
	_, c := startDaemon(t, testFleet(), ModeStepped)
	ctx := context.Background()

	// Unsupported wire version.
	body, _ := json.Marshal(api.FilterRequest{Vers: "v999", VM: bigVM(1)})
	resp, err := http.Post(c.BaseURL+"/v1/filter", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unsupported version") {
		t.Fatalf("v999 request: HTTP %d %s", resp.StatusCode, msg)
	}

	// Unknown VM class.
	bad := bigVM(1)
	bad.Class = "turbo"
	if _, err := c.Filter(ctx, api.FilterRequest{VM: bad}); err == nil {
		t.Fatal("unknown class accepted")
	}
	// Out-of-range server index.
	if _, err := c.Overclock(ctx, api.OverclockGrantRequest{Server: 99}); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	if _, err := c.Prioritize(ctx, api.PrioritizeRequest{VM: bigVM(1), Servers: []int{-1}}); err == nil {
		t.Fatal("negative server index accepted")
	}
	// Oversized step batch.
	if _, err := c.Step(ctx, api.StepRequest{Steps: maxStepsPerCall + 1}); err == nil {
		t.Fatal("oversized step batch accepted")
	}

	is400 := func(err error) bool { return err != nil && strings.Contains(err.Error(), "(HTTP 400)") }

	// A negative step count is a client error; an omitted one means one
	// step.
	if _, err := c.Step(ctx, api.StepRequest{Steps: -7}); !is400(err) {
		t.Fatalf("negative step count: %v, want HTTP 400", err)
	}
	if sr, err := c.Step(ctx, api.StepRequest{}); err != nil || sr.StepsRun != 1 {
		t.Fatalf("omitted step count: %+v, %v; want one step", sr, err)
	}

	// Utilization fractions outside [0, 1] are rejected by every
	// endpoint that takes a VM. Placed, the 1e308 VM would buy idle
	// server 0 an overclock grant.
	for _, spec := range []api.VMSpec{
		{ID: 50, VCores: 4, MemoryGB: 16, AvgUtil: 1e308},
		{ID: 51, VCores: 4, MemoryGB: 16, AvgUtil: -0.5},
		{ID: 52, VCores: 4, MemoryGB: 16, AvgUtil: 0.5, ScalableFraction: 1.5},
	} {
		if _, err := c.Place(ctx, api.PlaceRequest{VM: spec}); !is400(err) {
			t.Fatalf("place %+v: %v, want HTTP 400", spec, err)
		}
		if _, err := c.Filter(ctx, api.FilterRequest{VM: spec}); !is400(err) {
			t.Fatalf("filter %+v: %v, want HTTP 400", spec, err)
		}
		if _, err := c.Prioritize(ctx, api.PrioritizeRequest{VM: spec, Servers: []int{0}}); !is400(err) {
			t.Fatalf("prioritize %+v: %v, want HTTP 400", spec, err)
		}
	}
	od, err := c.Overclock(ctx, api.OverclockGrantRequest{Server: 0})
	if err != nil || od.Granted || od.Reason != "eq1_threshold" {
		t.Fatalf("server 0 after rejected placements: %+v, %v; want an eq1_threshold denial", od, err)
	}
}
