package api

// govern_test.go covers the HTTP surface of KV-memory governance: the
// memory-pressure 503 with a derived Retry-After, readiness flipping
// while shedding, per-client quota rejections, structural never-fits
// rejections, and the kv section of GET /v1/debug/state.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/model"
	"repro/internal/tensor"
)

// governedServer builds a gateway whose every lane gets exactly blocks
// 16-token blocks, plus an HTTP server in front of it.
func governedServer(t *testing.T, blocks int, mut func(*govern.Config)) (*govern.Governor, *httptest.Server) {
	t.Helper()
	m := model.Tiny(model.OPT)
	per := m.KVBytesPerTokenPerLayer(tensor.BF16) * int64(m.Layers) * 16
	cfg := govern.Config{
		Specs: func(lane string) (govern.PoolSpec, error) {
			return govern.PoolSpec{Model: m, DType: tensor.BF16, BlockSize: 16,
				BudgetBytes: per * int64(blocks)}, nil
		},
	}
	if mut != nil {
		mut(&cfg)
	}
	gov := govern.New(cfg)
	gw := gateway.New(gateway.Config{Governor: gov}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)
	return gov, srv
}

// checkRetryAfter asserts the derived hint is an integer in the
// documented [1,30] second range.
func checkRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Errorf("Retry-After %q not an integer in [1,30]", resp.Header.Get("Retry-After"))
	}
}

func TestMemoryPressure503AndReadyz(t *testing.T) {
	gov, srv := governedServer(t, 10, func(c *govern.Config) {
		c.HighWatermark = 0.8
		c.LowWatermark = 0.4
	})
	// Occupy 8 of 10 blocks on the exact lane /v1/generate resolves to,
	// pushing it over the high watermark.
	hold, err := gov.Admit("spr|OPT-13B|0||", "hog", 100, 28)
	if err != nil {
		t.Fatal(err)
	}
	if err := hold.Reserve(128); err != nil {
		t.Fatal(err)
	}

	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":16,"out":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != CodeMemoryPressure {
		t.Errorf("code %q, want %q", code, CodeMemoryPressure)
	}
	checkRetryAfter(t, resp)

	resp, body = doOn(t, srv, http.MethodGet, "/readyz", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz status %d while shedding, want 503: %s", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != CodeMemoryPressure {
		t.Errorf("/readyz code %q, want %q", code, CodeMemoryPressure)
	}

	// The state document's kv section reports the pressure while it lasts.
	doc, keys := debugState(t, srv)
	if st := doc.KV; st == nil || !st.Shedding || len(st.Lanes) != 1 || st.Lanes[0].FreeBlocks != 2 {
		t.Errorf("kv state under pressure: %s", keys["kv"])
	}

	// Releasing the hoard drops utilization below the low watermark:
	// readiness and admission recover.
	hold.Release()
	resp, body = doOn(t, srv, http.MethodGet, "/readyz", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz status %d after recovery: %s", resp.StatusCode, body)
	}
	resp, body = doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":16,"out":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate after recovery: %d %s", resp.StatusCode, body)
	}
}

func TestQuota429OverHTTP(t *testing.T) {
	_, srv := governedServer(t, 64, func(c *govern.Config) { c.QuotaTokens = 40 })
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/generate",
		strings.NewReader(`{"platform":"spr","model":"OPT-13B","in":32,"out":16}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", "tenant-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != CodeQuotaExceeded {
		t.Errorf("code %q, want %q", code, CodeQuotaExceeded)
	}
	checkRetryAfter(t, resp)

	// Under quota, the same tenant is served.
	resp2, body2 := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":24,"out":8}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("under-quota request: %d %s", resp2.StatusCode, body2)
	}
}

func TestNeverFits422OverHTTP(t *testing.T) {
	_, srv := governedServer(t, 4, nil) // 64-token capacity
	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":128,"out":8}`)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != CodeUnprocessable {
		t.Errorf("code %q, want %q", code, CodeUnprocessable)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("structural 422 must not advertise Retry-After")
	}
}

// TestKVEndpointWithoutGovernor: without a governor the state document
// still answers 200, with no kv key.
func TestKVEndpointWithoutGovernor(t *testing.T) {
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()
	if _, keys := debugState(t, srv); keys["kv"] != nil {
		t.Errorf("ungoverned gateway reports kv %s", keys["kv"])
	}
}

// TestDraining503CarriesRetryAfter covers the bugfix that every 503 —
// not only the 429 queue-full path — carries a derived Retry-After.
func TestDraining503CarriesRetryAfter(t *testing.T) {
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()
	if err := gw.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":16,"out":4}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != CodeDraining {
		t.Errorf("code %q, want %q", code, CodeDraining)
	}
	checkRetryAfter(t, resp)
}
