package api

// cluster_api_test.go covers the HTTP surface added with cluster mode:
// deadline propagation (X-Request-Deadline in, typed 504 out), replica
// attribution headers on buffered responses, and the cluster section of
// GET /v1/debug/state in both single and cluster topologies.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/govern"
)

// clusterServer spins up an N-replica router behind the API.
func clusterServer(t *testing.T, n int) (*httptest.Server, *cluster.Router) {
	t.Helper()
	return clusterServerWith(t, n, func() gateway.Config { return gateway.Config{} })
}

// clusterServerWith is clusterServer with each replica built from a
// fresh cfg(), so replicas share no governor.
func clusterServerWith(t *testing.T, n int, cfg func() gateway.Config) (*httptest.Server, *cluster.Router) {
	t.Helper()
	r, err := cluster.New(cluster.Config{
		Replicas: n,
		Factory: func(id string) (*gateway.Gateway, error) {
			return gateway.New(cfg(), stubResolver(stubCost{})), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx)
	})
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)
	return srv, r
}

func TestDeadlineHeaderEnforced(t *testing.T) {
	// Timescale 1 with slowCost makes a 4-token request take ~20ms wall,
	// far past a 5ms deadline.
	gw := gateway.New(gateway.Config{Timescale: 1}, stubResolver(slowCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/generate",
		strings.NewReader(`{"platform":"spr","model":"OPT-13B","out":4}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Deadline", "5ms")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != CodeDeadlineExceeded {
		t.Fatalf("error code = %q, want %q", env.Error.Code, CodeDeadlineExceeded)
	}
}

func TestDeadlineHeaderForms(t *testing.T) {
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)

	tests := []struct {
		name, deadline string
		status         int
	}{
		{"duration form, generous", "5s", http.StatusOK},
		{"bare milliseconds", "5000", http.StatusOK},
		{"garbage", "soon", http.StatusBadRequest},
		{"negative", "-3s", http.StatusBadRequest},
		{"zero", "0", http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/generate",
				strings.NewReader(`{"platform":"spr","model":"OPT-13B","out":2}`))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-Deadline", tt.deadline)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tt.status {
				t.Fatalf("deadline %q: status = %d, want %d", tt.deadline, resp.StatusCode, tt.status)
			}
			if tt.status == http.StatusBadRequest {
				var env struct {
					Error struct {
						Code string `json:"code"`
					} `json:"error"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&env); err != nil ||
					env.Error.Code != CodeInvalidDeadline {
					t.Fatalf("error code = %q (err %v), want %q", env.Error.Code, err, CodeInvalidDeadline)
				}
			}
		})
	}
}

func TestClusterReplicaAttributionHeaders(t *testing.T) {
	srv, _ := clusterServer(t, 3)
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
			`{"platform":"spr","model":"OPT-13B","out":2}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		id := resp.Header.Get("X-Replica-ID")
		if id == "" {
			t.Fatal("200 from cluster mode without X-Replica-ID")
		}
		if resp.Header.Get("X-Failovers") == "" {
			t.Fatal("200 from cluster mode without X-Failovers")
		}
		seen[id] = true
	}
	if len(seen) < 2 {
		t.Fatalf("round-robin over 3 replicas answered only from %v", seen)
	}
}

func TestClusterStatusEndpoint(t *testing.T) {
	srv, _ := clusterServer(t, 2)
	doc, keys := debugState(t, srv)
	st := doc.Cluster
	if st == nil || len(st.Replicas) != 2 || st.Healthy != 2 {
		t.Fatalf("cluster state = %s, want 2 healthy replicas", keys["cluster"])
	}
	if st.Policy == "" {
		t.Fatal("status without a routing policy name")
	}
	for _, rs := range st.Replicas {
		if rs.Gateway == nil {
			t.Errorf("replica %s without its own state", rs.ID)
		}
	}
	for _, k := range []string{"kv", "cache", "overload"} {
		if keys[k] != nil {
			t.Errorf("cluster state merges %s across replicas: %s", k, keys[k])
		}
	}
}

func TestClusterStatusNotFoundInSingleMode(t *testing.T) {
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)
	if _, keys := debugState(t, srv); keys["cluster"] != nil {
		t.Fatalf("single-mode state carries cluster %s", keys["cluster"])
	}
}

// TestClusterStateReportsReplicaKV: every replica governs its own KV
// pool, and the state document shows the serving replica's lane.
func TestClusterStateReportsReplicaKV(t *testing.T) {
	srv, _ := clusterServerWith(t, 2, func() gateway.Config {
		return gateway.Config{Governor: govern.New(govern.Config{Specs: PoolSpecResolver(16, 0)})}
	})
	resp, body := doOn(t, srv, http.MethodPost, "/v1/generate",
		`{"platform":"spr","model":"OPT-13B","in":16,"out":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	served := resp.Header.Get("X-Replica-ID")
	doc, keys := debugState(t, srv)
	if doc.Cluster == nil {
		t.Fatalf("no cluster state: %v", keys)
	}
	found := false
	for _, rs := range doc.Cluster.Replicas {
		if rs.Gateway == nil || rs.Gateway.KV == nil {
			t.Fatalf("replica %s reports no kv state: %s", rs.ID, keys["cluster"])
		}
		if rs.ID != served {
			continue
		}
		found = true
		lanes := rs.Gateway.KV.Lanes
		if len(lanes) != 1 || lanes[0].Allocations < 1 {
			t.Errorf("serving replica %s kv lanes %+v, want one lane with allocations >= 1", served, lanes)
		}
	}
	if !found {
		t.Errorf("serving replica %q not in the cluster state: %s", served, keys["cluster"])
	}
}

// TestSimulateLeavesHalfOpenTrialFree: on a one-replica cluster whose
// replica is half-open after an outage, /v1/simulate takes no trial slot,
// so the next generation request is the trial and readmits the replica.
func TestSimulateLeavesHalfOpenTrialFree(t *testing.T) {
	inj := faults.New(1)
	r, err := cluster.New(cluster.Config{
		Replicas: 1,
		Factory: func(id string) (*gateway.Gateway, error) {
			return gateway.New(gateway.Config{Injector: inj}, stubResolver(stubCost{})), nil
		},
		Injector:      inj,
		ProbeInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx)
	})
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)

	awaitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for r.Snapshot().Replicas[0].State != want {
			if time.Now().After(deadline) {
				t.Fatalf("replica never reached %s", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := inj.Arm(faults.Rule{Class: faults.ReplicaDown, Site: cluster.FaultSite, Lane: "r0"}); err != nil {
		t.Fatal(err)
	}
	awaitState("down")
	inj.Disarm()
	awaitState("half-open")

	resp, body := doOn(t, srv, http.MethodPost, "/v1/simulate", `{"platform":"spr","model":"OPT-13B"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d: %s", resp.StatusCode, body)
	}
	resp, body = doOn(t, srv, http.MethodPost, "/v1/generate", `{"platform":"spr","model":"OPT-13B","out":2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate after a half-open simulate: status %d: %s", resp.StatusCode, body)
	}
	if st := r.Snapshot().Replicas[0].State; st != "healthy" {
		t.Errorf("replica %s after a successful trial, want healthy", st)
	}
}
