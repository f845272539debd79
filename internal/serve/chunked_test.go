package serve

import (
	"testing"

	"repro/internal/workload"
)

// chunkTrace: steady short decodes plus one long-prompt arrival mid-way —
// the interference scenario Sarathi targets.
func chunkTrace() []workload.Request {
	var tr []workload.Request
	for i := 0; i < 8; i++ {
		tr = append(tr, workload.Request{ID: i, InputLen: 32, OutputLen: 24,
			ArrivalSeconds: float64(i) * 0.01})
	}
	tr = append(tr, workload.Request{ID: 8, InputLen: 2048, OutputLen: 8,
		ArrivalSeconds: 0.2})
	return tr
}

func TestChunkedServesEverything(t *testing.T) {
	s := Server{Policy: Chunked, Cost: fixedCost{0.001, 0.02}, MaxBatch: 8, PrefillChunk: 128}
	cs, err := s.Run(chunkTrace())
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 9 {
		t.Fatalf("served %d of 9", len(cs))
	}
	for _, c := range cs {
		if c.E2E < 0 || c.TTFT <= 0 || c.Finish < c.Request.ArrivalSeconds {
			t.Fatalf("inconsistent completion %+v", c)
		}
	}
}

// TestChunkedBoundsStalls is the Sarathi claim: with chunked prefill, no
// iteration (= no in-flight decode's inter-token stall) approaches the
// monolithic prefill time of the long prompt.
func TestChunkedBoundsStalls(t *testing.T) {
	cost := fixedCost{0.001, 0.02}
	s := Server{Policy: Chunked, Cost: cost, MaxBatch: 8, PrefillChunk: 128}
	if _, err := s.Run(chunkTrace()); err != nil {
		t.Fatal(err)
	}
	monolithic, err := cost.PrefillCost(1, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxIterationSeconds > monolithic/4 {
		t.Errorf("worst chunked iteration %.3fs not well below monolithic prefill %.3fs",
			s.MaxIterationSeconds, monolithic)
	}
	// Smaller chunks bound stalls tighter.
	s2 := Server{Policy: Chunked, Cost: cost, MaxBatch: 8, PrefillChunk: 32}
	if _, err := s2.Run(chunkTrace()); err != nil {
		t.Fatal(err)
	}
	if s2.MaxIterationSeconds > s.MaxIterationSeconds {
		t.Errorf("chunk 32 stall %.3fs above chunk 128 stall %.3fs",
			s2.MaxIterationSeconds, s.MaxIterationSeconds)
	}
}

// TestChunkedThroughputComparable: bounding stalls must not wreck
// throughput relative to plain continuous batching.
func TestChunkedThroughputComparable(t *testing.T) {
	cost := fixedCost{0.001, 0.02}
	tr := chunkTrace()
	plain := Server{Cost: cost, Policy: Continuous, MaxBatch: 8}
	pc, err := plain.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	chunked := Server{Policy: Chunked, Cost: cost, MaxBatch: 8, PrefillChunk: 128}
	cc, err := chunked.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	p, c := Summarize(pc), Summarize(cc)
	if c.TokensPerSecond < p.TokensPerSecond*0.6 {
		t.Errorf("chunked throughput %.1f fell far below continuous %.1f",
			c.TokensPerSecond, p.TokensPerSecond)
	}
}

func TestChunkedValidation(t *testing.T) {
	s := Server{Policy: Chunked, MaxBatch: 4, PrefillChunk: 16}
	if _, err := s.Run(nil); err == nil {
		t.Error("nil cost must fail")
	}
	s = Server{Policy: Chunked, Cost: fixedCost{0.001, 0.02}, MaxBatch: 4}
	if _, err := s.Run(nil); err == nil {
		t.Error("zero chunk must fail")
	}
	s = Server{Policy: Chunked, Cost: fixedCost{0.001, 0.02}, MaxBatch: 4, PrefillChunk: 16}
	bad := []workload.Request{
		{ID: 0, InputLen: 4, OutputLen: 4, ArrivalSeconds: 2},
		{ID: 1, InputLen: 4, OutputLen: 4, ArrivalSeconds: 1},
	}
	if _, err := s.Run(bad); err == nil {
		t.Error("unsorted trace must fail")
	}
	// Single-token outputs complete at prefill.
	one := []workload.Request{{ID: 0, InputLen: 40, OutputLen: 1}}
	cs, err := s.Run(one)
	if err != nil || len(cs) != 1 {
		t.Fatalf("single-token run: %v", err)
	}
}
