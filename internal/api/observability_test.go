package api

// observability_test.go covers the tracing surface of the v1 API: the
// request/trace ID header contract, the Server-Timing phase breakdown,
// trace retrieval via /v1/traces, the 415 Content-Type guard, and the
// capability fields on /v1/platforms.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestGenerateCarriesTraceAndRequestIDs(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/generate",
		strings.NewReader(`{"platform":"spr","model":"OPT-13B","in":64,"out":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "my-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "my-req-42" {
		t.Errorf("X-Request-ID %q not echoed", got)
	}
	traceID := resp.Header.Get("X-Trace-ID")
	if traceID == "" {
		t.Fatal("no X-Trace-ID header")
	}
	var res struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.TraceID != traceID {
		t.Errorf("body trace_id %q != header X-Trace-ID %q", res.TraceID, traceID)
	}
	if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "decode;dur=") {
		t.Errorf("Server-Timing lacks a decode phase: %q", st)
	}
}

func TestRequestIDGeneratedWhenAbsent(t *testing.T) {
	resp, _ := do(t, http.MethodGet, "/healthz", "")
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID generated")
	}
	if resp.Header.Get("X-Trace-ID") == "" {
		t.Error("no X-Trace-ID assigned")
	}
}

func TestErrorEnvelopeCarriesTraceID(t *testing.T) {
	resp, body := do(t, http.MethodPost, "/v1/generate", `{"platform":"nope"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	var env struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.TraceID == "" || env.TraceID != resp.Header.Get("X-Trace-ID") {
		t.Errorf("envelope trace_id %q vs header %q", env.TraceID, resp.Header.Get("X-Trace-ID"))
	}
}

// TestTraceRecordHasPhaseSpansWithCounters is the acceptance check: a
// sampled generate request's trace record, fetched by ID, holds at least
// the five serving phases with counter analogs on the compute spans.
func TestTraceRecordHasPhaseSpansWithCounters(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()

	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":64,"out":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate: status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.Unmarshal(body, &res); err != nil || res.TraceID == "" {
		t.Fatalf("no trace_id in %s (err %v)", body, err)
	}

	resp, body = doOn(t, srv, http.MethodGet, "/v1/traces?id="+res.TraceID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces: status %d: %s", resp.StatusCode, body)
	}
	var rec trace.Record
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	counters := map[string]bool{}
	for _, s := range rec.Spans {
		phases[s.Name]++
		if s.Counters != nil {
			counters[s.Name] = true
		}
		// The per-token phases record their attributes typed; on the
		// wire they are the same string-valued attrs object as ever.
		var want []string
		switch s.Name {
		case trace.PhaseDecode:
			want = []string{"token", "batch", "ctx"}
		case trace.PhasePrefill:
			want = []string{"batch", "input_len", "done"}
		case trace.PhasePricing:
			want = []string{"site"}
		}
		for _, k := range want {
			if s.Attrs[k] == "" {
				t.Errorf("%s span served without attrs[%q]: %v", s.Name, k, s.Attrs)
			}
		}
	}
	for _, want := range []string{trace.PhaseQueue, trace.PhaseBatch,
		trace.PhasePrefill, trace.PhaseDecode, trace.PhasePricing} {
		if phases[want] == 0 {
			t.Errorf("trace record lacks a %s span (have %v)", want, phases)
		}
	}
	for _, want := range []string{trace.PhasePrefill, trace.PhaseDecode} {
		if !counters[want] {
			t.Errorf("%s spans carry no counter analogs", want)
		}
	}

	// Unknown IDs are 404 with the envelope.
	resp, body = doOn(t, srv, http.MethodGet, "/v1/traces?id=deadbeefdeadbeef", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d", resp.StatusCode)
	}
	errEnvelope(t, body)
}

func TestTracesListing(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	for i := 0; i < 3; i++ {
		if resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
			`{"platform":"spr","model":"OPT-13B","in":32,"out":2}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("generate %d: %d %s", i, resp.StatusCode, body)
		}
	}
	resp, body := doOn(t, srv, http.MethodGet, "/v1/traces?limit=2", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var page struct {
		SampleRate float64        `json:"sample_rate"`
		Count      int            `json:"count"`
		Traces     []trace.Record `json:"traces"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.SampleRate != 1 || len(page.Traces) != 2 {
		t.Errorf("page %+v, want sample_rate=1 and 2 traces", page)
	}
}

func TestUnsupportedMediaType415(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	for _, path := range []string{"/v1/generate", "/v1/simulate"} {
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		body := make([]byte, 4096)
		n, _ := resp.Body.Read(body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnsupportedMediaType {
			t.Errorf("%s: status %d want 415", path, resp.StatusCode)
			continue
		}
		if code, _ := errEnvelope(t, body[:n]); code != CodeUnsupportedMedia {
			t.Errorf("%s: code %q want %q", path, code, CodeUnsupportedMedia)
		}
	}
	// A charset parameter on the JSON media type is accepted.
	resp, err := http.Post(srv.URL+"/v1/generate", "application/json; charset=utf-8",
		strings.NewReader(`{"platform":"spr","model":"OPT-13B","in":16,"out":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("charset parameter rejected: status %d", resp.StatusCode)
	}
}

func TestPlatformCapabilities(t *testing.T) {
	resp, body := do(t, http.MethodGet, "/v1/platforms", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var ps []struct {
		Key string `json:"key"`
		CPU *struct {
			AMX      bool     `json:"amx"`
			HBMGB    float64  `json:"hbm_gb"`
			MemModes []string `json:"mem_modes"`
			Clusters []string `json:"clusters"`
		} `json:"cpu"`
		GPU *struct {
			PeakTFLOPS float64 `json:"peak_tflops"`
			Link       string  `json:"link"`
		} `json:"gpu"`
	}
	if err := json.Unmarshal(body, &ps); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	byKey := map[string]int{}
	for i, p := range ps {
		byKey[p.Key] = i
		if (p.CPU == nil) == (p.GPU == nil) {
			t.Errorf("%s: exactly one of cpu/gpu must be set", p.Key)
		}
	}
	spr := ps[byKey["spr"]]
	if spr.CPU == nil || !spr.CPU.AMX || spr.CPU.HBMGB == 0 {
		t.Fatalf("spr capabilities %+v, want AMX + HBM", spr.CPU)
	}
	has := func(xs []string, want string) bool {
		for _, x := range xs {
			if x == want {
				return true
			}
		}
		return false
	}
	if !has(spr.CPU.MemModes, "cache") || !has(spr.CPU.Clusters, "snc") {
		t.Errorf("spr modes %v clusters %v, want cache and snc listed",
			spr.CPU.MemModes, spr.CPU.Clusters)
	}
	icl := ps[byKey["icl"]]
	if icl.CPU == nil || icl.CPU.AMX || icl.CPU.HBMGB != 0 {
		t.Errorf("icl capabilities %+v, want no AMX and no HBM", icl.CPU)
	}
	h100 := ps[byKey["h100"]]
	if h100.GPU == nil || h100.GPU.PeakTFLOPS == 0 {
		t.Errorf("h100 capabilities %+v", h100.GPU)
	}
}
