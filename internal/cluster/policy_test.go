package cluster

import (
	"testing"

	"repro/internal/gateway"
)

// policy_test.go is the table-driven routing-policy coverage: per-policy
// behavior under load skew, the single-replica degenerate case, and the
// router-level all-unhealthy rejection (see cluster_test.go for that —
// it needs a live router).

func cands(specs ...Candidate) []Candidate { return specs }

func TestRoundRobinCycles(t *testing.T) {
	p := RoundRobin()
	cs := cands(
		Candidate{Index: 0, ID: "r0", Weight: 1},
		Candidate{Index: 1, ID: "r1", Weight: 1},
		Candidate{Index: 2, ID: "r2", Weight: 1},
	)
	var got []string
	for i := 0; i < 6; i++ {
		got = append(got, p.Pick(nil, cs).ID)
	}
	want := []string{"r0", "r1", "r2", "r0", "r1", "r2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick %d = %s, want %s (sequence %v)", i, got[i], want[i], got)
		}
	}
}

func TestRoundRobinSingleReplica(t *testing.T) {
	p := RoundRobin()
	cs := cands(Candidate{Index: 0, ID: "r0", Weight: 1})
	for i := 0; i < 4; i++ {
		if got := p.Pick(nil, cs).ID; got != "r0" {
			t.Fatalf("single-replica pick %d = %s, want r0", i, got)
		}
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	tests := []struct {
		name string
		cs   []Candidate
		want string
	}{
		{
			name: "skewed queue depth",
			cs: cands(
				Candidate{Index: 0, ID: "r0", QueueDepth: 12},
				Candidate{Index: 1, ID: "r1", QueueDepth: 2},
				Candidate{Index: 2, ID: "r2", QueueDepth: 7},
			),
			want: "r1",
		},
		{
			name: "kv pressure outweighs a shallow queue",
			cs: cands(
				// 1 queued + 0.9 KV ≈ 8.2 load vs 4 queued + empty pool.
				Candidate{Index: 0, ID: "r0", QueueDepth: 1, KVUtilization: 0.9},
				Candidate{Index: 1, ID: "r1", QueueDepth: 4, KVUtilization: 0},
			),
			want: "r1",
		},
		{
			name: "shedding replica is a last resort",
			cs: cands(
				Candidate{Index: 0, ID: "r0", QueueDepth: 0, Shedding: true},
				Candidate{Index: 1, ID: "r1", QueueDepth: 40},
			),
			want: "r1",
		},
		{
			name: "all shedding still routes",
			cs: cands(
				Candidate{Index: 0, ID: "r0", QueueDepth: 9, Shedding: true},
				Candidate{Index: 1, ID: "r1", QueueDepth: 3, Shedding: true},
			),
			want: "r1",
		},
		{
			name: "single replica",
			cs:   cands(Candidate{Index: 0, ID: "r0", QueueDepth: 99, Shedding: true}),
			want: "r0",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := LeastLoaded()
			if got := p.Pick(nil, tt.cs).ID; got != tt.want {
				t.Fatalf("pick = %s, want %s", got, tt.want)
			}
		})
	}
}

func TestLeastLoadedTieRotation(t *testing.T) {
	p := LeastLoaded()
	cs := cands(
		Candidate{Index: 0, ID: "r0"},
		Candidate{Index: 1, ID: "r1"},
	)
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		seen[p.Pick(nil, cs).ID]++
	}
	if seen["r0"] == 0 || seen["r1"] == 0 {
		t.Fatalf("tied replicas should share traffic, got %v", seen)
	}
}

func TestWeightedProportionalDistribution(t *testing.T) {
	p := Weighted()
	cs := cands(
		Candidate{Index: 0, ID: "r0", Weight: 3},
		Candidate{Index: 1, ID: "r1", Weight: 1},
	)
	seen := map[string]int{}
	req := &gateway.Request{Class: "batch"}
	for i := 0; i < 40; i++ {
		seen[p.Pick(req, cs).ID]++
	}
	if seen["r0"] != 30 || seen["r1"] != 10 {
		t.Fatalf("weights 3:1 over 40 picks gave %v, want map[r0:30 r1:10]", seen)
	}
}

func TestWeightedSteersInteractiveOffShedding(t *testing.T) {
	p := Weighted()
	cs := cands(
		Candidate{Index: 0, ID: "r0", Weight: 3, Shedding: true},
		Candidate{Index: 1, ID: "r1", Weight: 1},
	)
	// Interactive traffic (empty class defaults to interactive) avoids
	// the shedding replica entirely while an alternative exists.
	for i := 0; i < 8; i++ {
		if got := p.Pick(&gateway.Request{}, cs).ID; got != "r1" {
			t.Fatalf("interactive pick %d = %s, want r1 (r0 is shedding)", i, got)
		}
	}
	// Batch traffic tolerates it, keeping the weighted spread.
	seen := map[string]int{}
	for i := 0; i < 16; i++ {
		seen[p.Pick(&gateway.Request{Class: "batch"}, cs).ID]++
	}
	if seen["r0"] == 0 {
		t.Fatalf("batch traffic should still use the shedding replica, got %v", seen)
	}
	// With every candidate shedding, interactive falls back to the pool.
	all := cands(
		Candidate{Index: 0, ID: "r0", Weight: 1, Shedding: true},
		Candidate{Index: 1, ID: "r1", Weight: 1, Shedding: true},
	)
	if got := p.Pick(&gateway.Request{Class: "interactive"}, all); got.ID == "" {
		t.Fatal("all-shedding pool must still route")
	}
}

func TestParsePolicy(t *testing.T) {
	for name, want := range map[string]string{
		"":             "round-robin",
		"rr":           "round-robin",
		"round-robin":  "round-robin",
		"ll":           "least-loaded",
		"least-loaded": "least-loaded",
		"weighted":     "weighted",
		"slo":          "weighted",
	} {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.Name() != want {
			t.Fatalf("ParsePolicy(%q).Name() = %s, want %s", name, p.Name(), want)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("ParsePolicy(bogus) should fail")
	}
}
