package serve

import (
	"testing"

	"repro/internal/kvpool"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// poolForSeqs builds a pool holding n full (in+out) contexts of the tiny
// model with 16-token blocks.
func poolForSeqs(t *testing.T, n, in, out int) *kvpool.Pool {
	t.Helper()
	cfg := model.Tiny(model.OPT)
	budget := cfg.KVCacheBytes(in+out, n, tensor.BF16)
	p, err := kvpool.New(cfg, tensor.BF16, 16, budget)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func memTrace(n int) []workload.Request {
	trace := make([]workload.Request, n)
	for i := range trace {
		trace[i] = workload.Request{ID: i, InputLen: 32, OutputLen: 16}
	}
	return trace
}

func TestMemoryAwareServesEverything(t *testing.T) {
	s := Server{Policy: Continuous,
		Cost: fixedCost{0.001, 0.02},
		Pool: poolForSeqs(t, 8, 32, 16), MaxBatch: 8,
	}
	trace := memTrace(20)
	cs, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 20 {
		t.Fatalf("served %d of 20", len(cs))
	}
	if s.Pool.FreeBlocks() != s.Pool.TotalBlocks() {
		t.Error("all blocks must return to the pool")
	}
}

// TestKVBudgetLimitsConcurrency: with blocks for only 2 concurrent
// contexts, throughput must fall well below the 8-slot unconstrained run.
func TestKVBudgetLimitsConcurrency(t *testing.T) {
	trace := memTrace(24)
	runWith := func(pool *kvpool.Pool) Summary {
		s := Server{Policy: Continuous, Cost: fixedCost{0.001, 0.02}, Pool: pool, MaxBatch: 8}
		cs, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(cs)
	}
	wide := runWith(poolForSeqs(t, 8, 32, 16))
	tight := runWith(poolForSeqs(t, 2, 32, 16))
	if tight.TokensPerSecond >= wide.TokensPerSecond {
		t.Errorf("tight pool (%.1f tok/s) must underperform wide pool (%.1f)",
			tight.TokensPerSecond, wide.TokensPerSecond)
	}
	if tight.MeanQueueWait <= wide.MeanQueueWait {
		t.Error("tight pool must queue requests longer")
	}
}

// TestMemoryMatchesUnconstrainedWhenAmple: with an oversized pool the
// memory-aware scheduler must behave exactly like plain continuous
// batching.
func TestMemoryMatchesUnconstrainedWhenAmple(t *testing.T) {
	g := workload.NewGenerator(5)
	g.ArrivalRate = 10
	g.MeanInputLen, g.MeanOutputLen = 24, 8
	trace := g.Trace(20)
	plain := Server{Cost: fixedCost{0.001, 0.02}, Policy: Continuous, MaxBatch: 4}
	want, err := plain.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	mem := Server{Policy: Continuous, Cost: fixedCost{0.001, 0.02},
		Pool: poolForSeqs(t, 64, 64, 16), MaxBatch: 4}
	got, err := mem.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i].Finish != got[i].Finish {
			t.Fatalf("request %d: finish %.3f vs %.3f", i, got[i].Finish, want[i].Finish)
		}
	}
}

func TestImpossibleRequestErrors(t *testing.T) {
	s := Server{Policy: Continuous,
		Cost: fixedCost{0.001, 0.02},
		Pool: poolForSeqs(t, 1, 16, 4), MaxBatch: 4,
	}
	// One request whose full context exceeds the whole pool.
	trace := []workload.Request{{ID: 0, InputLen: 48, OutputLen: 32}}
	if _, err := s.Run(trace); err == nil {
		t.Error("unservable request must error, not deadlock")
	}
}

func TestMemoryAwareValidation(t *testing.T) {
	s := Server{Policy: Continuous, Pool: poolForSeqs(t, 2, 32, 16)}
	if _, err := s.Run(nil); err == nil {
		t.Error("missing pool/cost must fail")
	}
	s = Server{Policy: Continuous, Cost: fixedCost{0.001, 0.02}, Pool: poolForSeqs(t, 2, 32, 16)}
	bad := []workload.Request{
		{ID: 0, InputLen: 1, OutputLen: 1, ArrivalSeconds: 5},
		{ID: 1, InputLen: 1, OutputLen: 1, ArrivalSeconds: 1},
	}
	if _, err := s.Run(bad); err == nil {
		t.Error("unsorted trace must fail")
	}
}
