package api

// load_test.go is the gateway acceptance test: ≥64 concurrent HTTP
// clients drive /v1/generate; every request must either complete or be
// rejected with 429, with no lost or duplicated completions; /metrics
// must report non-zero TTFT/TPOT histograms and queue statistics; and
// shutdown must drain in-flight requests without dropping completions.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gateway"
)

func TestConcurrentClientsNoLostOrDuplicatedCompletions(t *testing.T) {
	gw := gateway.New(gateway.Config{MaxQueue: 32, MaxBatch: 8, Workers: 2}, LaneResolver())
	s := NewServer(gw)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const clients = 64
	var completions, rejected atomic.Int64
	seen := make([]int32, clients) // per-client completion count: must end at exactly 0 or 1
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"platform":"spr","model":"OPT-13B","in":%d,"out":8}`, 64+id%64)
			resp, err := http.Post(srv.URL+"/v1/generate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", id, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				var res map[string]any
				if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
					t.Errorf("client %d: bad body: %v", id, err)
					return
				}
				if res["ttft_s"].(float64) <= 0 || res["e2e_s"].(float64) < res["ttft_s"].(float64) {
					t.Errorf("client %d: degenerate result %v", id, res)
				}
				completions.Add(1)
				atomic.AddInt32(&seen[id], 1)
			case http.StatusTooManyRequests:
				rejected.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("client %d: 429 without Retry-After", id)
				}
			default:
				t.Errorf("client %d: unexpected status %d", id, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if got := completions.Load() + rejected.Load(); got != clients {
		t.Fatalf("accounted %d of %d requests (%d ok, %d rejected)",
			got, clients, completions.Load(), rejected.Load())
	}
	if completions.Load() == 0 {
		t.Fatal("every request was rejected; queue bound too tight for the test")
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("client %d: %d completions (duplicated)", id, n)
		}
	}
	// The gateway's own ledger agrees with the client-side count.
	reg := gw.Registry()
	if got := reg.Counter("gateway_completed_total", "").Value(); got != uint64(completions.Load()) {
		t.Errorf("gateway completed %d, clients saw %d", got, completions.Load())
	}
	if got := reg.Counter("gateway_rejected_total", "").Value(); got != uint64(rejected.Load()) {
		t.Errorf("gateway rejected %d, clients saw %d", got, rejected.Load())
	}

	// /metrics reports non-zero serving histograms and queue stats.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	exposition := readAll(t, resp)
	for _, metric := range []string{"gateway_ttft_seconds", "gateway_tpot_seconds",
		"gateway_e2e_seconds", "gateway_queue_wait_seconds", "gateway_batch_size"} {
		if !histogramNonZero(exposition, metric) {
			t.Errorf("/metrics: histogram %s has no observations", metric)
		}
	}
	if !strings.Contains(exposition, "gateway_queue_depth") {
		t.Error("/metrics: missing queue depth gauge")
	}
}

func TestShutdownDrainsOverHTTP(t *testing.T) {
	gw := gateway.New(gateway.Config{MaxQueue: 128, MaxBatch: 4, Workers: 2}, LaneResolver())
	s := NewServer(gw)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 16
	var completed, drained atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/generate", "application/json",
				strings.NewReader(`{"platform":"spr","model":"OPT-13B","in":128,"out":8}`))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				completed.Add(1)
			case http.StatusServiceUnavailable:
				drained.Add(1)
			default:
				t.Errorf("status %d during drain", resp.StatusCode)
			}
		}()
	}
	// Drain only once a request is in: a fixed sleep can fire before any
	// is admitted, and then every one of them is refused.
	admitted := gw.Registry().Counter("gateway_admitted_total", "")
	deadline := time.Now().Add(10 * time.Second)
	for admitted.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no request was admitted")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := gw.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if completed.Load()+drained.Load() != n {
		t.Fatalf("lost requests: %d + %d != %d", completed.Load(), drained.Load(), n)
	}
	if completed.Load() == 0 {
		t.Error("drain dropped all in-flight completions")
	}
	// Readiness flips to 503 once draining.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d", resp.StatusCode)
	}
}

// readAll drains a response body into a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			return sb.String()
		}
	}
}

// histogramNonZero reports whether the exposition shows observations for
// the named histogram.
func histogramNonZero(exposition, name string) bool {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, name+"_count ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+"_count %g", &v); err == nil && v > 0 {
				return true
			}
		}
	}
	return false
}
