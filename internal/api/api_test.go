package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// do issues one request against a fresh server.
func do(t *testing.T, method, path string, body string) (*http.Response, []byte) {
	t.Helper()
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	return doOn(t, srv, method, path, body)
}

func doOn(t *testing.T, srv *httptest.Server, method, path, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, buf
}

// get is the GET shorthand.
func get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	return do(t, http.MethodGet, path, "")
}

// errEnvelope decodes the uniform error body and fails on malformed ones.
func errEnvelope(t *testing.T, body []byte) (code, message string) {
	t.Helper()
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Code == "" || e.Error.Message == "" {
		t.Fatalf("malformed error envelope: %v %s", err, body)
	}
	return e.Error.Code, e.Error.Message
}

func TestIndexEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var idx struct {
		Endpoints []map[string]string `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &idx); err != nil || len(idx.Endpoints) < 10 {
		t.Fatalf("index: %v (%d entries)\n%s", err, len(idx.Endpoints), body)
	}
}

func TestModelsEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/models")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var models []map[string]any
	if err := json.Unmarshal(body, &models); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(models) != 8 {
		t.Errorf("got %d models, want 8", len(models))
	}
	if models[0]["name"] != "OPT-1.3B" {
		t.Errorf("first model %v", models[0]["name"])
	}
}

func TestPlatformsFromRegistry(t *testing.T) {
	resp, body := get(t, "/v1/platforms")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var ps []struct {
		Key, Kind, Name, Description string
	}
	if err := json.Unmarshal(body, &ps); err != nil || len(ps) != 5 {
		t.Fatalf("platforms: %v %s", err, body)
	}
	kinds := map[string]int{}
	for _, p := range ps {
		if p.Key == "" || p.Name == "" || p.Description == "" {
			t.Errorf("incomplete entry %+v", p)
		}
		kinds[p.Kind]++
	}
	if kinds["cpu"] != 2 || kinds["gpu"] != 3 {
		t.Errorf("kind split %v, want 2 cpu + 3 gpu", kinds)
	}
}

func TestSimulate(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, body := doOn(t, srv, http.MethodPost, "/v1/simulate",
		`{"platform":"spr","model":"OPT-30B","batch":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res map[string]any
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res["tokens_per_second"].(float64) <= 0 {
		t.Error("degenerate throughput")
	}
	if res["llc_mpki"].(float64) <= 0 {
		t.Error("CPU run must include counters")
	}
	resp, body = doOn(t, srv, http.MethodPost, "/v1/simulate", `{"platform":"a100","model":"OPT-30B"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res["pcie_fraction"].(float64) < 0.5 {
		t.Errorf("offloaded PCIe fraction %v", res["pcie_fraction"])
	}
	// Every CPU tunable set at once.
	resp, body = doOn(t, srv, http.MethodPost, "/v1/simulate",
		`{"platform":"spr","model":"LLaMA2-13B","batch":4,"in":256,"out":64,"cores":32,"memmode":"cache","cluster":"snc"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res["batch"].(float64) != 4 || res["input_len"].(float64) != 256 || res["output_len"].(float64) != 64 {
		t.Errorf("request shape not echoed: %s", body)
	}
	// A zero is the field's default, as documented: JSON cannot tell it
	// from an absent field.
	_, defaults := doOn(t, srv, http.MethodPost, "/v1/simulate", `{"platform":"spr","model":"OPT-13B"}`)
	_, zeros := doOn(t, srv, http.MethodPost, "/v1/simulate",
		`{"platform":"spr","model":"OPT-13B","batch":0,"in":0,"out":0,"cores":0}`)
	if string(zeros) != string(defaults) {
		t.Errorf("explicit zeros differ from defaults:\n%s\n%s", zeros, defaults)
	}
}

func TestSimulateValidation(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	cases := []struct {
		method, path, body string
		want               int
		code               string
	}{
		{"POST", "/v1/simulate", `{"platform":"tpu","model":"OPT-13B"}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"GPT-5"}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","batch":"zero"}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","batch":-1}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","in":-5}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","out":-1}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","cores":-4}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","memmode":"weird"}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","cluster":"weird"}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"a100","model":"OPT-13B","cores":8}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","batch":-2}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `{"platform":"spr","model":"OPT-13B","bogus":1}`, 400, "bad_request"},
		{"POST", "/v1/simulate", `not json`, 400, "bad_request"},
	}
	for _, c := range cases {
		resp, body := doOn(t, srv, c.method, c.path, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s %s %s: status %d want %d (%s)", c.method, c.path, c.body, resp.StatusCode, c.want, body)
			continue
		}
		if code, _ := errEnvelope(t, body); code != c.code {
			t.Errorf("%s %s %s: code %q want %q", c.method, c.path, c.body, code, c.code)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	cases := []struct{ method, path, allow string }{
		{"POST", "/v1/models", "GET"},
		{"DELETE", "/v1/simulate", "POST"},
		{"GET", "/v1/simulate?platform=spr&model=OPT-30B", "POST"},
		{"GET", "/v1/autotune?model=LLaMA2-13B", "POST"},
		{"GET", "/v1/generate", "POST"},
		{"PUT", "/v1/scorecard", "GET"},
	}
	for _, c := range cases {
		resp, body := doOn(t, srv, c.method, c.path, "")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d want 405", c.method, c.path, resp.StatusCode)
			continue
		}
		if code, _ := errEnvelope(t, body); code != CodeMethodNotAllowed {
			t.Errorf("%s %s: code %q", c.method, c.path, code)
		}
		if got := resp.Header.Get("Allow"); got != c.allow {
			t.Errorf("%s %s: Allow %q, want %q", c.method, c.path, got, c.allow)
		}
	}
}

func TestUnknownPath404(t *testing.T) {
	resp, body := get(t, "/v2/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if code, _ := errEnvelope(t, body); code != CodeNotFound {
		t.Errorf("code %q", code)
	}
}

func TestExperimentEndpoints(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, body := doOn(t, srv, "GET", "/v1/experiments", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var list []map[string]string
	if err := json.Unmarshal(body, &list); err != nil || len(list) < 20 {
		t.Fatalf("experiment list: %v (%d)", err, len(list))
	}
	resp, body = doOn(t, srv, "GET", "/v1/experiments/fig18", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fig18 status %d", resp.StatusCode)
	}
	var tabs []map[string]any
	if err := json.Unmarshal(body, &tabs); err != nil || len(tabs) != 1 {
		t.Fatalf("fig18 body: %v %s", err, body)
	}
	resp, body = doOn(t, srv, "GET", "/v1/experiments/fig99", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment status %d", resp.StatusCode)
	}
	if code, _ := errEnvelope(t, body); code != CodeNotFound {
		t.Errorf("code %q", code)
	}
}

func TestAutotune(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, body := doOn(t, srv, "POST", "/v1/autotune",
		`{"model":"LLaMA2-13B","objective":"throughput","top":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cands []map[string]any
	if err := json.Unmarshal(body, &cands); err != nil || len(cands) != 3 {
		t.Fatalf("autotune body: %v %s", err, body)
	}
	if cands[0]["config"] != "quad_flat" {
		t.Errorf("best config %v, want quad_flat", cands[0]["config"])
	}
	if cands[0]["batch"].(float64) != 32 {
		t.Errorf("throughput objective should pick batch 32, got %v", cands[0]["batch"])
	}
	for _, bad := range []struct{ name, body string }{
		{"bad model", `{"model":"nope"}`},
		{"bad objective", `{"model":"OPT-13B","objective":"weird"}`},
		{"negative top", `{"model":"OPT-13B","top":-1}`},
	} {
		resp, body = doOn(t, srv, "POST", "/v1/autotune", bad.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status %d", bad.name, resp.StatusCode)
		}
		if code, _ := errEnvelope(t, body); code != CodeBadRequest {
			t.Errorf("%s code %q", bad.name, code)
		}
	}
}

func TestScorecardEndpoint(t *testing.T) {
	resp, body := get(t, "/v1/scorecard")
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	var tab map[string]any
	if err := json.Unmarshal(body, &tab); err != nil {
		t.Fatal(err)
	}
	rows := tab["rows"].([]any)
	if len(rows) < 13 {
		t.Errorf("scorecard has %d rows", len(rows))
	}
	for _, r := range rows {
		cells := r.([]any)
		if cells[len(cells)-1] != "PASS" {
			t.Errorf("claim %v did not pass", cells[0])
		}
	}
}

func TestGenerateEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, body := doOn(t, srv, "POST", "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":128,"out":8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res map[string]any
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res["ttft_s"].(float64) <= 0 || res["e2e_s"].(float64) <= 0 {
		t.Errorf("degenerate generate result: %s", body)
	}
	// Validation errors. Unknown platform and model names are "no such
	// resource" (404); malformed field values are 400.
	for _, bad := range []struct {
		body string
		want int
	}{
		{`{"platform":"tpu","model":"OPT-13B"}`, http.StatusNotFound},
		{`{"platform":"spr","model":"GPT-5"}`, http.StatusNotFound},
		{`{"platform":"tiny-weird"}`, http.StatusNotFound},
		{`{"platform":"spr","model":"OPT-13B","in":-1}`, http.StatusBadRequest},
		{`{"platform":"a100","model":"OPT-13B","cores":4}`, http.StatusBadRequest},
	} {
		resp, body := doOn(t, srv, "POST", "/v1/generate", bad.body)
		if resp.StatusCode != bad.want {
			t.Errorf("%s: status %d want %d (%s)", bad.body, resp.StatusCode, bad.want, body)
			continue
		}
		errEnvelope(t, body)
	}
}

func TestGenerateOnRealEngine(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, body := doOn(t, srv, "POST", "/v1/generate",
		`{"platform":"tiny-opt","in":16,"out":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res map[string]any
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res["ttft_s"].(float64) <= 0 {
		t.Errorf("engine-backed TTFT %v", res["ttft_s"])
	}
}

func TestHealthReadyMetrics(t *testing.T) {
	srv := httptest.NewServer(NewServer(nil).Handler())
	defer srv.Close()
	resp, _ := doOn(t, srv, "GET", "/healthz", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz %d", resp.StatusCode)
	}
	resp, _ = doOn(t, srv, "GET", "/readyz", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz %d", resp.StatusCode)
	}
	// Drive one request so histograms are non-empty, then scrape.
	if resp, body := doOn(t, srv, "POST", "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":64,"out":4}`); resp.StatusCode != 200 {
		t.Fatalf("generate: %d %s", resp.StatusCode, body)
	}
	resp, body := doOn(t, srv, "GET", "/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		"gateway_completed_total 1",
		"gateway_ttft_seconds_count 1",
		"gateway_queue_depth",
		"api_http_requests_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestContentTypeAndEnvelopeShape(t *testing.T) {
	resp, body := do(t, http.MethodPost, "/v1/simulate", `{"platform":"spr","model":"GPT-5"}`)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error content-type %q", ct)
	}
	code, msg := errEnvelope(t, body)
	if code != CodeBadRequest || msg == "" {
		t.Errorf("envelope %q %q", code, msg)
	}
}
