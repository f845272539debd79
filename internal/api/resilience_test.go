package api

// resilience_test.go covers the serving-robustness surface of the API:
// the fault-injection admin endpoint, derived Retry-After hints on 429,
// and degraded-mode responses when a lane's primary cost model fails.

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/serve"
)

// stubCost prices instantly; gate, when non-nil, blocks prefills so tests
// can pile up a backlog.
type stubCost struct{ gate chan struct{} }

func (c stubCost) PrefillCost(batch, in int) (float64, error) {
	if c.gate != nil {
		<-c.gate
	}
	return 0.001, nil
}
func (c stubCost) DecodeStepCost(batch, ctx int) (float64, error) { return 0.0001, nil }
func (stubCost) Cached(bool, int, int) (serve.Quote, bool)        { return serve.Quote{}, false }

func stubResolver(c serve.CostModel) gateway.Resolver {
	return func(string) (serve.CostModel, error) { return c, nil }
}

func TestAdminFaultsLifecycle(t *testing.T) {
	gw := gateway.New(gateway.Config{Injector: faults.New(7)}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()

	resp, body := doOn(t, srv, http.MethodGet, "/v1/admin/faults", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET status %d: %s", resp.StatusCode, body)
	}
	var st faults.Status
	if err := json.Unmarshal(body, &st); err != nil || st.Armed {
		t.Fatalf("fresh injector snapshot: %v %s", err, body)
	}

	resp, body = doOn(t, srv, http.MethodPost, "/v1/admin/faults",
		`{"rules":[{"class":"latency","site":"cost.decode","every":3,"delay_ms":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil || !st.Armed || len(st.Rules) != 1 {
		t.Fatalf("armed snapshot: %v %s", err, body)
	}
	if st.Rules[0].Class != faults.Latency || st.Rules[0].Every != 3 {
		t.Errorf("armed rule round-tripped wrong: %+v", st.Rules[0])
	}

	resp, body = doOn(t, srv, http.MethodDelete, "/v1/admin/faults", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil || st.Armed {
		t.Fatalf("disarmed snapshot: %v %s", err, body)
	}
}

func TestAdminFaultsRejectsBadRules(t *testing.T) {
	gw := gateway.New(gateway.Config{Injector: faults.New(1)}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()

	for _, body := range []string{
		`{"rules":[]}`,                               // no rules
		`{"rules":[{"class":"latency"}]}`,            // no trigger, no delay
		`{"rules":[{"class":"warp-core-breach"}]}`,   // unknown class
		`{"rules":[{"class":"panic","every":-1}]}`,   // negative trigger
		`{"rules":[{"class":"panic","every":1}],}`,   // malformed JSON
		`{"rules":[{"class":"panic","every":1}]}  x`, // trailing data
	} {
		resp, respBody := doOn(t, srv, http.MethodPost, "/v1/admin/faults", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
		if code, _ := errEnvelope(t, respBody); code != CodeBadRequest {
			t.Errorf("POST %s: code %q", body, code)
		}
	}
}

func TestAdminFaultsWithoutInjector(t *testing.T) {
	resp, body := do(t, http.MethodGet, "/v1/admin/faults", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if code, _ := errEnvelope(t, body); code != CodeUnavailable {
		t.Errorf("code %q, want %q", code, CodeUnavailable)
	}
}

func TestRetryAfterDerivedOn429(t *testing.T) {
	gate := make(chan struct{})
	gw := gateway.New(gateway.Config{MaxQueue: 1, MaxBatch: 1, Workers: 1,
		WatchdogBudget: -1}, // the gated prefill must be allowed to block
		stubResolver(stubCost{gate: gate}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()

	// The gate must open even on assertion failure, or the blocked request
	// keeps the test server's Close waiting forever.
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	const reqBody = `{"platform":"spr","model":"OPT-13B"}`
	// One request occupies the lane (blocked in the gated prefill), one
	// fills the single queue slot, the next must bounce with 429. Submit
	// them one at a time, waiting for each to take its seat.
	results := make(chan int, 2)
	submit := func() {
		go func() {
			resp, _ := doOn(t, srv, http.MethodPost, "/v1/generate", reqBody)
			results <- resp.StatusCode
		}()
	}
	await := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s never happened", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	inflight := gw.Registry().Gauge("gateway_inflight", "")
	submit()
	await("first request admitted", func() bool { return inflight.Value() == 1 })
	submit()
	await("second request queued", func() bool { return gw.QueueDepth() == 1 })

	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate", reqBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if code, _ := errEnvelope(t, body); code != CodeQueueFull {
		t.Errorf("429 code %q, want %q", code, CodeQueueFull)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 || ra > 30 {
		t.Errorf("Retry-After %q not an integer in [1,30]", resp.Header.Get("Retry-After"))
	}
	openGate()
	for i := 0; i < 2; i++ {
		if status := <-results; status != http.StatusOK {
			t.Errorf("backlogged request finished with %d", status)
		}
	}
}

// TestSimulateBypassesTheGateway: /v1/simulate prices on the handler
// goroutine, so with the gateway's one worker held by a wedged lane it
// still answers at once, and it is not counted as admitted work.
func TestSimulateBypassesTheGateway(t *testing.T) {
	gate := make(chan struct{})
	gw := gateway.New(gateway.Config{MaxBatch: 1, Workers: 1,
		WatchdogBudget: -1}, // the gated prefill must be allowed to block
		stubResolver(stubCost{gate: gate}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	generated := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/generate", "application/json",
			strings.NewReader(`{"platform":"spr","model":"OPT-13B"}`))
		if err != nil {
			generated <- 0
			return
		}
		resp.Body.Close()
		generated <- resp.StatusCode
	}()
	inflight := gw.Registry().Gauge("gateway_inflight", "")
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("generation request never took the worker")
		}
		time.Sleep(time.Millisecond)
	}
	admitted := gw.Registry().Counter("gateway_admitted_total", "")
	before := admitted.Value()

	client := &http.Client{Timeout: time.Second}
	resp, err := client.Post(srv.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"platform":"spr","model":"OPT-30B","batch":4}`))
	if err != nil {
		t.Fatalf("simulate with every worker held: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d, want 200", resp.StatusCode)
	}
	if got := admitted.Value(); got != before {
		t.Errorf("gateway_admitted_total %d -> %d across a simulate, want unchanged", before, got)
	}
	openGate()
	if status := <-generated; status != http.StatusOK {
		t.Errorf("wedged generation finished with %d", status)
	}
}

func TestGenerateReportsDegraded(t *testing.T) {
	// Primary always fails; the configured fallback keeps the lane serving
	// and the response carries degraded: true instead of a 5xx.
	failing := func(string) (serve.CostModel, error) {
		return brokenCost{}, nil
	}
	gw := gateway.New(gateway.Config{
		BreakerThreshold: 2,
		Fallback:         stubResolver(stubCost{}),
	}, failing)
	srv := httptest.NewServer(NewServer(gw).Handler())
	defer srv.Close()

	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":32,"out":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Errorf("response not marked degraded: %s", body)
	}
}

// brokenCost always fails, standing in for a wedged engine.
type brokenCost struct{}

func (brokenCost) PrefillCost(batch, in int) (float64, error) {
	return 0, errors.New("engine wedged")
}
func (brokenCost) DecodeStepCost(batch, ctx int) (float64, error) {
	return 0, errors.New("engine wedged")
}
func (brokenCost) Cached(bool, int, int) (serve.Quote, bool) { return serve.Quote{}, false }

func TestFallbackResolverScope(t *testing.T) {
	r := FallbackResolver()
	// Analytic lanes get no fallback, silently: the analytic models
	// already are the model of last resort.
	if fb, err := r("spr|OPT-13B|0||"); fb != nil || err != nil {
		t.Errorf("analytic lane: fallback %v err %v, want none", fb, err)
	}
	// Engine-timed lanes degrade onto a pure analytic model.
	for _, lane := range []string{"tiny-opt||0||", "tiny-llama||0||"} {
		fb, err := r(lane)
		if err != nil || fb == nil {
			t.Fatalf("engine lane %q got no fallback: %v", lane, err)
		}
		if c, err := fb.PrefillCost(1, 64); err != nil || c <= 0 {
			t.Errorf("lane %q fallback cannot price: %g %v", lane, c, err)
		}
	}
}
