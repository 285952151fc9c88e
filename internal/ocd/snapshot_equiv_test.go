package ocd

// Differential tests pinning the snapshot read plane to the locked
// read plane. Two daemons with identical fleets are driven with an
// identical request stream — mutations included — and every read
// response (status line, Content-Type, body) must match byte for byte.
// One daemon is served by its Handler, reading from published
// snapshots; the twin is served by lockedHandler, routing the same
// read endpoints through the mutex-and-live-Sim oracle
// (locked_oracle_test.go). Because the write plane is shared code and
// deterministic, the twins stay in lockstep, so any divergence is the
// read plane's fault: a snapshot field copied wrong, a scoring
// expression drifting, a decode error shaped differently, an
// exposition byte out of place.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"immersionoc/internal/api"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
)

// twinDaemons builds the snapshot daemon and its locked-reads twin
// over identical fleets. Telemetry registries carry only the ocd scope
// (no dcsim wall-clock histograms), so /metrics bodies are
// deterministic and comparable.
func twinDaemons(t *testing.T, cfg dcsim.Config) (snap, locked *Daemon) {
	t.Helper()
	d1, err := New(cfg, ModeStepped, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(cfg, ModeStepped, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return d1, d2
}

// hit drives one raw request through a handler and captures the
// response.
func hit(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// TestSnapshotMatchesLockedReads is the end-to-end differential: a
// mutation-heavy session interleaved with a read corpus spanning every
// read endpoint, every request class, and the whole decode error
// surface. Each read must come back identical from both planes.
func TestSnapshotMatchesLockedReads(t *testing.T) {
	cfg := testFleet()
	cfg.FeederBudgetW = 2100 // just above idle draw: capping and denial paths engage
	dSnap, dLocked := twinDaemons(t, cfg)
	hSnap, hLocked := dSnap.Handler(), lockedHandler(dLocked)

	post := func(path, body string) {
		t.Helper()
		a := hit(hSnap, http.MethodPost, path, body)
		b := hit(hLocked, http.MethodPost, path, body)
		if a.Code != b.Code || a.Body.String() != b.Body.String() {
			t.Fatalf("write %s %s diverged: snapshot HTTP %d %q vs locked HTTP %d %q",
				path, body, a.Code, a.Body.String(), b.Code, b.Body.String())
		}
	}

	// The read corpus: valid requests across classes and shapes, plus
	// every decode/validation error the read plane can produce. The
	// malformed entries double as the fast-parser differential — each
	// must fall back to the strict pipeline and reproduce its exact
	// error bytes.
	reads := []struct{ method, path, body string }{
		{"POST", "/v1/filter", `{"version":"v1","vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":0.5}}`},
		{"POST", "/v1/filter", `{"vm":{"id":2,"vcores":16,"memory_gb":64,"class":"high-perf","avg_util":0.9,"scalable_fraction":0.5}}`},
		{"POST", "/v1/filter", `{"vm":{"id":3,"vcores":2,"memory_gb":8,"class":"harvest","avg_util":0.1}}`},
		{"POST", "/v1/filter", `{"vm":{"id":4,"vcores":48,"memory_gb":512,"avg_util":0.2}}`},
		{"POST", "/v1/filter", ` { "vm" : { "id" : 5 , "vcores" : 4 , "memory_gb" : 1e1 , "avg_util" : 2.5e-1 } } `},
		{"POST", "/v1/filter", `{"vm":{"id":1},"vm":{"vcores":4,"memory_gb":16,"avg_util":0.5}}`}, // duplicate key merge
		{"POST", "/v1/filter", `{"vm":{"id":6,"vcores":4,"memory_gb":16,"avg_util":0.5},"extra":[1,{"x":"y\n"}]}`},
		{"POST", "/v1/filter", `{"version":"v1","vm":{"id":7,"vcores":4,"memory_gb":16,"avg_util":0.5}}`},
		{"POST", "/v1/filter", `{"version":"v2","vm":{"id":1,"vcores":4,"memory_gb":16}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":0,"memory_gb":16}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"class":"turbo"}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":1e308}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":-0.1}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":1,"scalable_fraction":1.5}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":0.5,"scalable_fraction":-1e-9}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1.5,"vcores":4,"memory_gb":16}}`},
		{"POST", "/v1/filter", `{"vm":{"id":01,"vcores":4,"memory_gb":16}}`},
		{"POST", "/v1/filter", `{"vm":{"class":null,"id":1,"vcores":4,"memory_gb":16,"avg_util":0.5}}`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16}} trailing`},
		{"POST", "/v1/filter", `{"vm":{"id":1,"vcores":4,"memory_gb":16}}{"vm":{}}`},
		{"POST", "/v1/filter", `{`},
		{"POST", "/v1/filter", `null`},
		{"POST", "/v1/filter", `5`},
		{"POST", "/v1/filter", ``},
		{"GET", "/v1/filter", ""},
		{"POST", "/v1/prioritize", `{"version":"v1","vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":0.5},"servers":[0,1,2,3,4,5,6,7,8,9,10,11]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":8,"memory_gb":32,"avg_util":0.7},"servers":[11,3,3,0]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[0],"servers":[2,5]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[12]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[-1]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[1e2]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[0,]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"avg_util":2},"servers":[0]}`},
		{"POST", "/v1/prioritize", `{"vm":{"id":1,"vcores":4,"memory_gb":16,"scalable_fraction":7},"servers":[0]}`},
		{"GET", "/v1/status", ""},
		{"POST", "/v1/status", ""},
		{"GET", "/healthz", ""},
		{"GET", "/metrics", ""},
	}

	checkpoint := func(stage string) {
		t.Helper()
		for _, rd := range reads {
			a := hit(hSnap, rd.method, rd.path, rd.body)
			b := hit(hLocked, rd.method, rd.path, rd.body)
			if a.Code != b.Code {
				t.Fatalf("%s: %s %s %q: snapshot HTTP %d vs locked HTTP %d\nsnapshot: %s\nlocked:   %s",
					stage, rd.method, rd.path, rd.body, a.Code, b.Code, a.Body.String(), b.Body.String())
			}
			if ct1, ct2 := a.Header().Get("Content-Type"), b.Header().Get("Content-Type"); ct1 != ct2 {
				t.Fatalf("%s: %s %s: Content-Type %q vs %q", stage, rd.method, rd.path, ct1, ct2)
			}
			if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
				t.Fatalf("%s: %s %s %q diverged:\nsnapshot: %s\nlocked:   %s",
					stage, rd.method, rd.path, rd.body, a.Body.String(), b.Body.String())
			}
		}
	}

	checkpoint("empty fleet")

	// Fill the fleet with a mixed population: regular, high-perf and
	// harvest VMs, hot and cold, until placements start getting
	// rejected.
	for i := 0; i < 40; i++ {
		class := ""
		switch i % 4 {
		case 1:
			class = "high-perf"
		case 3:
			class = "harvest"
		}
		spec := api.VMSpec{
			ID: 100 + i, VCores: 2 << (i % 4), MemoryGB: float64(int(8) << (i % 4)),
			Class: class, AvgUtil: 0.2 + 0.05*float64(i%10), ScalableFraction: 0.5,
		}
		data, _ := json.Marshal(api.PlaceRequest{Vers: api.Version, VM: spec})
		post("/v1/place", string(data))
	}
	checkpoint("packed fleet")

	// Overclock grants until tank budgets and the tight feeder cap bite.
	for i := 0; i < 12; i++ {
		post("/v1/overclock", fmt.Sprintf(`{"server":%d}`, i))
	}
	checkpoint("overclocked fleet")

	// Step: wear accrues, baths heat, the capper may claw grants back.
	post("/v1/step", `{"steps":200}`)
	checkpoint("after stepping")

	// Churn: departures (including a never-placed ID) and a cancel.
	for _, id := range []int{100, 104, 108, 999} {
		post("/v1/remove", fmt.Sprintf(`{"id":%d}`, id))
	}
	post("/v1/overclock", `{"server":2,"cancel":true}`)
	checkpoint("after churn")

	// Failed-server churn: no HTTP endpoint fails hardware, so the
	// failure is injected under the daemon lock on both twins, as an
	// operator tool would. The emptied servers' power deltas are folded
	// in fleet order before the republish so the published row sum stays
	// bit-exact with the locked twin, whose read path folds on demand.
	fail := func(d *Daemon) []int {
		d.mu.Lock()
		defer d.mu.Unlock()
		var displaced []int
		for _, v := range d.sim.Cluster().FailServers(2) {
			displaced = append(displaced, v.ID)
		}
		for i := 0; i < d.sim.ServerCount(); i++ {
			d.sim.RefreshServerPower(i)
		}
		d.publishLocked()
		return displaced
	}
	displaced := fail(dSnap)
	fail(dLocked)
	checkpoint("after server failures")

	// Remove-after-fail: a displaced VM is still in the daemon's placed
	// set but no longer hosted, so its departure must be a cluster-side
	// no-op that still answers Removed:true — and both planes must agree
	// on the shrunken placed count afterwards.
	for _, id := range displaced {
		post("/v1/remove", fmt.Sprintf(`{"id":%d}`, id))
	}
	post("/v1/remove", `{"id":424242}`) // never placed: Removed:false
	checkpoint("after remove-after-fail")

	// Oversized body: same 413 from both planes.
	huge := `{"vm":{"id":1,"vcores":4,"memory_gb":16},"pad":"` + strings.Repeat("x", maxBodyBytes+1) + `"}`
	a := hit(hSnap, http.MethodPost, "/v1/filter", huge)
	b := hit(hLocked, http.MethodPost, "/v1/filter", huge)
	if a.Code != http.StatusRequestEntityTooLarge || b.Code != a.Code || a.Body.String() != b.Body.String() {
		t.Fatalf("oversized body: snapshot HTTP %d %q vs locked HTTP %d %q",
			a.Code, a.Body.String(), b.Code, b.Body.String())
	}
}

// TestDecodeFastMatchesStrict differentially pins the fast parser
// against encoding/json at the parser level: for every corpus entry
// the fast path either declines or produces exactly the struct the
// strict pipeline does.
func TestDecodeFastMatchesStrict(t *testing.T) {
	filterBodies := []string{
		`{"version":"v1","vm":{"id":9,"vcores":4,"memory_gb":16,"class":"high-perf","avg_util":0.45,"scalable_fraction":0.6}}`,
		`{"vm":{"id":-3,"vcores":1,"memory_gb":0.5,"avg_util":1}}`,
		`{}`,
		` {"vm":{}} `,
		`{"vm":{"id":0,"vcores":2,"memory_gb":8,"avg_util":1e-3}}`,
		`{"vm":{"id":1},"vm":{"vcores":7}}`,
		`{"vm":{"id":2147483647,"vcores":4,"memory_gb":1.7976931348623157e308}}`,
		`{"version":"","vm":{"id":1,"vcores":4,"memory_gb":16}}`,
		`{"vm":{"id":1,"vcores":4,"memory_gb":16,"class":"harvest"}}`,
		`{"vm":{"id":1,"vcores":4,"memory_gb":-0.0}}`,
	}
	for _, body := range filterBodies {
		var fast, strict api.FilterRequest
		if !parseFilterRequest([]byte(body), &fast) {
			t.Fatalf("fast parser declined the common wire form %q", body)
		}
		if err := json.Unmarshal([]byte(body), &strict); err != nil {
			t.Fatalf("strict decode of %q: %v", body, err)
		}
		if fast != strict {
			t.Fatalf("decode of %q diverged:\nfast:   %+v\nstrict: %+v", body, fast, strict)
		}
	}

	prioritizeBodies := []string{
		`{"version":"v1","vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[0,5,3]}`,
		`{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[]}`,
		`{"servers":[1],"servers":[7,8,9]}`,
		`{"servers":[ 0 , 1 ]}`,
	}
	for _, body := range prioritizeBodies {
		fast := api.PrioritizeRequest{Servers: make([]int, 0, 16)}
		var strict api.PrioritizeRequest
		if !parsePrioritizeRequest([]byte(body), &fast) {
			t.Fatalf("fast parser declined the common wire form %q", body)
		}
		if err := json.Unmarshal([]byte(body), &strict); err != nil {
			t.Fatalf("strict decode of %q: %v", body, err)
		}
		if fast.Vers != strict.Vers || fast.VM != strict.VM ||
			len(fast.Servers) != len(strict.Servers) {
			t.Fatalf("decode of %q diverged:\nfast:   %+v\nstrict: %+v", body, fast, strict)
		}
		for i := range fast.Servers {
			if fast.Servers[i] != strict.Servers[i] {
				t.Fatalf("decode of %q diverged at servers[%d]", body, i)
			}
		}
	}

	// Everything here must be DECLINED (never mis-parsed): inputs the
	// strict pipeline rejects, plus valid JSON outside the fast subset.
	declined := []string{
		``, `null`, `5`, `"x"`, `[]`, `{`, `{"vm":}`,
		`{"vm":{"id":1}} x`, `{"vm":{"id":1}}{"vm":{}}`,
		`{"vm":{"id":1.5}}`, `{"vm":{"id":1e2}}`, `{"vm":{"id":01}}`,
		`{"vm":{"id":+1}}`, `{"vm":{"id":-}}`, `{"vm":{"id":1.}}`,
		`{"vm":{"id":.5}}`, `{"vm":{"id":1e}}`, `{"vm":{"id":00}}`,
		`{"unknown":1}`, `{"vm":{"weird":1}}`, `{"vm":null}`,
		`{"version":null}`,
		`{"vm":{"class":"a\"b"}}`, `{"vm":{"id":1},}`,
		`{"vm":{"class":"café"}}`,
	}
	for _, body := range declined {
		var req api.FilterRequest
		if parseFilterRequest([]byte(body), &req) {
			t.Errorf("fast parser accepted %q; must decline to the strict fallback", body)
		}
		var preq api.PrioritizeRequest
		if parsePrioritizeRequest([]byte(body), &preq) {
			t.Errorf("fast prioritize parser accepted %q; must decline", body)
		}
	}
	for _, body := range []string{`{"servers":[1,]}`, `{"servers":[1.5]}`, `{"servers":null}`, `{"servers":[null]}`} {
		var preq api.PrioritizeRequest
		if parsePrioritizeRequest([]byte(body), &preq) {
			t.Errorf("fast prioritize parser accepted %q; must decline", body)
		}
	}

	// Zero-allocation contract of the accepted path.
	body := []byte(`{"version":"v1","vm":{"id":9,"vcores":4,"memory_gb":16,"class":"high-perf","avg_util":0.45}}`)
	var req api.FilterRequest
	if n := testing.AllocsPerRun(100, func() {
		req = api.FilterRequest{}
		if !parseFilterRequest(body, &req) {
			t.Fatal("declined")
		}
	}); n != 0 {
		t.Fatalf("fast filter decode allocated %v times per run, want 0", n)
	}
	pbody := []byte(`{"version":"v1","vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[0,1,2,3,4,5,6,7]}`)
	preq := api.PrioritizeRequest{Servers: make([]int, 0, 16)}
	if n := testing.AllocsPerRun(100, func() {
		preq.Vers = ""
		preq.VM = api.VMSpec{}
		preq.Servers = preq.Servers[:0]
		if !parsePrioritizeRequest(pbody, &preq) {
			t.Fatal("declined")
		}
	}); n != 0 {
		t.Fatalf("fast prioritize decode allocated %v times per run, want 0", n)
	}
}
