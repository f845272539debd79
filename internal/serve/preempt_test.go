package serve

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func optServer(t *testing.T, poolSeqs int, optimistic bool) *Server {
	t.Helper()
	return &Server{
		Policy:     Continuous,
		Cost:       fixedCost{0.001, 0.02},
		Pool:       poolForSeqs(t, poolSeqs, 32, 16),
		MaxBatch:   8,
		Optimistic: optimistic,
	}
}

func TestOptimisticServesEverything(t *testing.T) {
	s := optServer(t, 3, true)
	trace := memTrace(16)
	cs, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 16 {
		t.Fatalf("served %d of 16", len(cs))
	}
	seen := map[int]bool{}
	for _, c := range cs {
		if seen[c.Request.ID] {
			t.Fatalf("request %d completed twice", c.Request.ID)
		}
		seen[c.Request.ID] = true
		if c.E2E < 0 || c.TTFT < 0 {
			t.Fatalf("negative metrics: %+v", c)
		}
	}
	if s.Pool.Stats().FreeBlocks != s.Pool.TotalBlocks() {
		t.Error("blocks leaked")
	}
}

// TestOptimisticPreemptsUnderPressure: with a pool sized for ~2 full
// contexts and 8 slots, optimistic admission must overcommit and preempt.
func TestOptimisticPreemptsUnderPressure(t *testing.T) {
	s := optServer(t, 2, true)
	if _, err := s.Run(memTrace(12)); err != nil {
		t.Fatal(err)
	}
	if s.Preemptions == 0 {
		t.Error("expected preemptions under pool pressure")
	}
}

// TestOptimisticPacksTighter: under pressure, optimistic admission should
// match or beat conservative reservation on throughput (it runs more
// sequences concurrently between preemptions).
func TestOptimisticPacksTighter(t *testing.T) {
	trace := memTrace(24)
	conservative := optServer(t, 3, false)
	csC, err := conservative.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	optimistic := optServer(t, 3, true)
	csO, err := optimistic.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	smC, smO := Summarize(csC), Summarize(csO)
	if smO.TokensPerSecond < smC.TokensPerSecond*0.9 {
		t.Errorf("optimistic %.1f tok/s fell >10%% below conservative %.1f",
			smO.TokensPerSecond, smC.TokensPerSecond)
	}
}

// TestOptimisticMatchesConservativeWhenAmple: with plenty of blocks the
// two admission policies must schedule identically.
func TestOptimisticMatchesConservativeWhenAmple(t *testing.T) {
	trace := memTrace(12)
	a, err := optServer(t, 32, false).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := optServer(t, 32, true).Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Finish != b[i].Finish {
			t.Fatalf("request %d: %.3f vs %.3f", i, a[i].Finish, b[i].Finish)
		}
	}
}

// TestOptimisticCompletionProperty: for any trace of requests that each
// individually fit the pool, optimistic Run terminates (no deadlock or
// livelock from preemption churn), completes every request exactly once
// with sane metrics, and returns every block to the pool.
func TestOptimisticCompletionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := optServer(t, 3, true) // 3 × 48 tokens = 144-token capacity
		capacity := s.Pool.TotalBlocks() * s.Pool.BlockSize()
		n := 1 + rng.Intn(20)
		trace := make([]workload.Request, n)
		var clock float64
		for i := range trace {
			in := 1 + rng.Intn(capacity-1)
			out := 1 + rng.Intn(capacity-in)
			clock += rng.Float64() * 0.05
			trace[i] = workload.Request{ID: i, InputLen: in, OutputLen: out,
				ArrivalSeconds: clock}
		}
		cs, err := s.Run(trace)
		if err != nil {
			t.Logf("seed %d: run failed: %v", seed, err)
			return false
		}
		if len(cs) != n {
			t.Logf("seed %d: completed %d of %d", seed, len(cs), n)
			return false
		}
		seen := map[int]bool{}
		for _, c := range cs {
			if seen[c.Request.ID] || c.E2E < 0 || c.TTFT < 0 || c.Finish < c.Request.ArrivalSeconds {
				t.Logf("seed %d: bad completion %+v (dup=%v)", seed, c, seen[c.Request.ID])
				return false
			}
			seen[c.Request.ID] = true
		}
		if s.Pool.Stats().FreeBlocks != s.Pool.TotalBlocks() {
			t.Logf("seed %d: leaked blocks (%d free of %d)", seed,
				s.Pool.Stats().FreeBlocks, s.Pool.TotalBlocks())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestOptimisticUnservablePrompt: a prompt that can never fit must error.
func TestOptimisticUnservablePrompt(t *testing.T) {
	s := optServer(t, 1, true) // pool: 48 tokens
	trace := []workload.Request{{ID: 0, InputLen: 64, OutputLen: 4}}
	if _, err := s.Run(trace); err == nil {
		t.Error("oversized prompt must error")
	}
}

// TestOptimisticSingleGrowthFailure: one sequence that cannot grow within
// the whole pool must error rather than livelock.
func TestOptimisticSingleGrowthFailure(t *testing.T) {
	s := optServer(t, 1, true) // exactly one 48-token context (32+16)
	trace := []workload.Request{{ID: 0, InputLen: 48, OutputLen: 8}}
	if _, err := s.Run(trace); err == nil {
		t.Error("ungrowable sequence must error")
	}
}
