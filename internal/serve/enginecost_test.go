package serve

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func tinyEngine(t *testing.T) *engine.Engine {
	t.Helper()
	w, err := engine.NewWeights(model.Tiny(model.OPT), 42, tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(w, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineCostPricesPositive(t *testing.T) {
	e := tinyEngine(t)
	cost := NewEngineCost(e)
	for _, tc := range []struct {
		name  string
		price func() (float64, error)
	}{
		{"prefill", func() (float64, error) { return cost.PrefillCost(2, 16) }},
		{"decode", func() (float64, error) { return cost.DecodeStepCost(2, 16) }},
	} {
		c, err := tc.price()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if c <= 0 {
			t.Errorf("%s cost %g, want > 0", tc.name, c)
		}
		// Memoized: same shape must return the identical cached price.
		if again, err := tc.price(); err != nil || again != c {
			t.Errorf("%s memoization broken: %g vs %g (%v)", tc.name, again, c, err)
		}
	}
}

func TestEngineCostClampsLongContexts(t *testing.T) {
	e := tinyEngine(t)
	cost := NewEngineCost(e)
	// Far beyond tiny MaxSeq (64): must clamp, not error.
	if _, err := cost.PrefillCost(1, 4096); err != nil {
		t.Fatalf("long prefill: %v", err)
	}
	if _, err := cost.DecodeStepCost(1, 4096); err != nil {
		t.Fatalf("long decode: %v", err)
	}
}

func TestServerRunsOnEngineCost(t *testing.T) {
	cost := NewEngineCost(tinyEngine(t))
	gen := workload.NewGenerator(7)
	gen.MeanInputLen, gen.MeanOutputLen = 12, 4
	gen.ArrivalRate = 100
	trace := gen.Trace(6)

	srv := Server{Cost: cost, Policy: Continuous, MaxBatch: 4}
	cs, err := srv.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != len(trace) {
		t.Fatalf("completions %d, want %d", len(cs), len(trace))
	}
	for _, c := range cs {
		if c.TTFT <= 0 || c.E2E < c.TTFT {
			t.Errorf("request %d: TTFT %g E2E %g", c.Request.ID, c.TTFT, c.E2E)
		}
	}
}
