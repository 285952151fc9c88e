package ocd

// FuzzHandler sends arbitrary bodies to every v1 POST route of one
// daemon. Whatever the body, the daemon must not panic, must answer a
// documented status with a well-formed JSON body, and must keep its
// fleet consistent enough that /v1/status reports a finite,
// non-negative density.
//
//	go test -run '^$' -fuzz '^FuzzHandler$' -fuzztime 30s ./internal/ocd/

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"testing"

	"immersionoc/internal/api"
	"immersionoc/internal/telemetry"
)

// decodeSeeds are request bodies around the decoder's edges: the
// common wire form, duplicate keys, number-grammar and string corner
// cases, null in every position, and malformed or trailing documents.
var decodeSeeds = []string{
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
	`{"version":"v1","vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[0,5,3]}`,
	`{"vm":{"id":1,"vcores":4,"memory_gb":16},"servers":[]}`,
	`{"servers":[1],"servers":[7,8,9]}`,
	`{"servers":[ 0 , 1 ]}`,
	``, `null`, `5`, `"x"`, `[]`, `{`, `{"vm":}`,
	`{"vm":{"id":1}} x`, `{"vm":{"id":1}}{"vm":{}}`,
	`{"vm":{"id":1.5}}`, `{"vm":{"id":1e2}}`, `{"vm":{"id":01}}`,
	`{"vm":{"id":+1}}`, `{"vm":{"id":-}}`, `{"vm":{"id":1.}}`,
	`{"vm":{"id":.5}}`, `{"vm":{"id":1e}}`, `{"vm":{"id":00}}`,
	`{"unknown":1}`, `{"vm":{"weird":1}}`, `{"vm":null}`,
	`{"version":null}`,
	`{"vm":{"class":"a\"b"}}`, `{"vm":{"id":1},}`,
	`{"vm":{"class":"café"}}`,
	`{"servers":[1,]}`, `{"servers":[1.5]}`, `{"servers":null}`, `{"servers":[null]}`,
}

// fuzzRoutes are the six POST routes, each with the response type it
// answers on 200.
var fuzzRoutes = []struct {
	path string
	resp func() any
}{
	{"/v1/filter", func() any { return new(api.FilterResponse) }},
	{"/v1/prioritize", func() any { return new(api.PrioritizeResponse) }},
	{"/v1/place", func() any { return new(api.PlaceResponse) }},
	{"/v1/remove", func() any { return new(api.RemoveResponse) }},
	{"/v1/overclock", func() any { return new(api.OverclockDecision) }},
	{"/v1/step", func() any { return new(api.StepResponse) }},
}

// decodeStrict decodes exactly one JSON document of v's type, with no
// unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

func FuzzHandler(f *testing.F) {
	for _, body := range decodeSeeds {
		f.Add(body)
	}
	for _, rd := range readCorpus {
		f.Add(rd.body)
	}
	// vcores near 2^63, which used to wrap the capacity checks.
	f.Add(`{"vm":{"id":61,"vcores":9223372036854775807,"memory_gb":16,"avg_util":0.5}}`)
	f.Add(`{"vm":{"id":62,"vcores":9223372036854775806,"memory_gb":16,"class":"high-perf","avg_util":0.5}}`)

	d, err := New(testFleet(), ModeStepped, telemetry.NewRegistry())
	if err != nil {
		f.Fatal(err)
	}
	h := d.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		for _, rt := range fuzzRoutes {
			rec := hit(h, http.MethodPost, rt.path, body)
			switch rec.Code {
			case http.StatusOK:
				resp := rt.resp()
				if err := decodeStrict(rec.Body.Bytes(), resp); err != nil {
					t.Fatalf("%s %q: HTTP 200 body %q is not a %T: %v", rt.path, body, rec.Body.String(), resp, err)
				}
			case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
				var e api.ErrorResponse
				if err := decodeStrict(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%s %q: HTTP %d body %q is not an ErrorResponse with an error: %v",
						rt.path, body, rec.Code, rec.Body.String(), err)
				}
			default:
				t.Fatalf("%s %q: undocumented HTTP %d %q", rt.path, body, rec.Code, rec.Body.String())
			}
		}
		rec := hit(h, http.MethodGet, "/v1/status", "")
		var st api.FleetStatus
		if err := decodeStrict(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("status after %q: HTTP %d %q: %v", body, rec.Code, rec.Body.String(), err)
		}
		if math.IsNaN(st.Density) || math.IsInf(st.Density, 0) || st.Density < 0 {
			t.Fatalf("status after %q: density %v", body, st.Density)
		}
	})
}
