package api

// lane_test.go covers the lane spec: the key round trip, the one
// malformed-key error every resolver returns, the benchmark's lane key,
// and the two request-level consequences of resolving a spec once —
// invalid platform configurations are a 400 that creates no lane, and a
// tiny-* family is one lane whatever model string each surface sends.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/serve"
)

func TestLaneKeyRoundTrip(t *testing.T) {
	roundTrip := func(s platformSpec) bool {
		for _, f := range []string{s.Platform, s.Model, s.MemMode, s.Cluster} {
			if strings.Contains(f, "|") {
				return true // not a spec a request can produce
			}
		}
		got, err := parseLane(s.key())
		return err == nil && got == s
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

func TestResolversShareMalformedKeyError(t *testing.T) {
	pools := PoolSpecResolver(16, 0)
	resolvers := map[string]func(string) error{
		"LaneResolver":     func(k string) error { _, err := LaneResolver()(k); return err },
		"PoolSpecResolver": func(k string) error { _, err := pools(k); return err },
		"FallbackResolver": func(k string) error { _, err := FallbackResolver()(k); return err },
	}
	for name, resolve := range resolvers {
		for _, key := range []string{"", "spr|OPT-13B", "spr|OPT-13B|0|||", "spr|OPT-13B|many||"} {
			if err := resolve(key); !errors.Is(err, errMalformedLane) {
				t.Errorf("%s(%q) = %v, want errMalformedLane", name, key, err)
			}
		}
	}
}

// TestServingLaneKey pins the key /v1/generate builds for the benchmark's
// serving request to the literal bench/ admits and routes by, and the
// cost model it resolves to, so http-stream and cluster-batch keep
// pricing one lane.
func TestServingLaneKey(t *testing.T) {
	var req GenerateRequest
	if err := json.Unmarshal([]byte(`{"platform":"spr","model":"OPT-13B"}`), &req); err != nil {
		t.Fatal(err)
	}
	key, err := req.normalize()
	if err != nil || key != "spr|OPT-13B|0||" {
		t.Fatalf("lane key %q (%v), want the bench literal spr|OPT-13B|0||", key, err)
	}
	got, err := LaneResolver()(key)
	if err != nil {
		t.Fatal(err)
	}
	want := serve.NewCPUCost(core.SPRQuadFlat(0), core.MustModel("OPT-13B"))
	for _, shape := range [][2]int{{1, 128}, {8, 512}} {
		gp, _ := got.PrefillCost(shape[0], shape[1])
		wp, _ := want.PrefillCost(shape[0], shape[1])
		gd, _ := got.DecodeStepCost(shape[0], shape[1])
		wd, _ := want.DecodeStepCost(shape[0], shape[1])
		if gp != wp || gd != wd {
			t.Errorf("batch %d ctx %d: lane prices prefill %g decode %g, SPR quad_flat 48 cores %g %g",
				shape[0], shape[1], gp, gd, wp, wd)
		}
	}
}

// kvLanes returns the lanes the state document's kv section reports.
func kvLanes(t *testing.T, srv *httptest.Server) []string {
	t.Helper()
	doc, keys := debugState(t, srv)
	if doc.KV == nil {
		t.Fatalf("governed gateway reports no kv state: %v", keys)
	}
	var lanes []string
	for _, l := range doc.KV.Lanes {
		lanes = append(lanes, l.Lane)
	}
	return lanes
}

// countingServer serves through a governed gateway on the real resolvers
// and counts the cost models built per lane key.
func countingServer(t *testing.T) (*httptest.Server, map[string]int) {
	var mu sync.Mutex
	built := map[string]int{}
	resolve := func(key string) (serve.CostModel, error) {
		mu.Lock()
		built[key]++
		mu.Unlock()
		return LaneResolver()(key)
	}
	gov := govern.New(govern.Config{Specs: PoolSpecResolver(16, 0)})
	gw := newGateway(t, gateway.Config{Governor: gov}, resolve)
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)
	return srv, built
}

func TestInvalidConfigurationIs400WithoutALane(t *testing.T) {
	srv, built := countingServer(t)
	for _, knobs := range []string{
		`"platform":"spr","cores":100000`,
		`"platform":"icl","memmode":"hbm-only"`,
	} {
		for _, c := range []struct{ path, body string }{
			{"/v1/simulate", `{"model":"OPT-13B",` + knobs + `}`},
			{"/v1/generate", `{"model":"OPT-13B","in":16,"out":2,` + knobs + `}`},
			{"/v1/chat/completions", `{"model":"OPT-13B","max_tokens":2,"messages":[{"role":"user","content":"hi"}],` + knobs + `}`},
			{"/v1/completions", `{"model":"OPT-13B","max_tokens":2,"prompt":"hi",` + knobs + `}`},
		} {
			resp, body := doOn(t, srv, http.MethodPost, c.path, c.body)
			if code, _ := errEnvelope(t, body); resp.StatusCode != http.StatusBadRequest || code != CodeBadRequest {
				t.Errorf("%s %s: %d %s, want 400 bad_request", c.path, c.body, resp.StatusCode, code)
			}
		}
	}
	if lanes := kvLanes(t, srv); len(lanes) != 0 || len(built) != 0 {
		t.Errorf("rejected requests left KV pools %v and lanes %v", lanes, built)
	}
}

func TestTinyFamilyIsOneLane(t *testing.T) {
	srv, built := countingServer(t)
	for _, c := range []struct{ path, body string }{
		{"/v1/generate", `{"platform":"tiny-opt","in":8,"out":2}`},
		{"/v1/generate", `{"platform":"tiny-opt","model":"OPT-13B","in":8,"out":2}`},
		{"/v1/chat/completions", `{"platform":"tiny-opt","model":"gpt-4","max_tokens":2,"messages":[{"role":"user","content":"hi"}]}`},
		{"/v1/completions", `{"platform":"tiny-opt","model":"tiny","max_tokens":2,"prompt":"hi"}`},
	} {
		if resp, body := doOn(t, srv, http.MethodPost, c.path, c.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.path, c.body, resp.StatusCode, body)
		}
	}
	if lanes := kvLanes(t, srv); len(lanes) != 1 || len(built) != 1 || built["tiny-opt||0||"] != 1 {
		t.Errorf("tiny-opt served from KV pools %v and engines %v, want one of each", lanes, built)
	}
}
