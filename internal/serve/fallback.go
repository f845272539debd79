package serve

// fallback.go is the degraded-mode stand-in for measured cost models:
// when an engine-timed lane's circuit breaker opens (the engine is
// panicking, stalling or erroring), the gateway reroutes pricing to an
// analytic model so requests keep completing — marked degraded — instead
// of failing. The analytic price is a simple compute-bound estimate,
// FLOPs / sustained-rate, derived from the same model config the engine
// runs; it is deliberately dependency-free and cannot itself stall.

import (
	"fmt"

	"repro/internal/model"
)

// DefaultFallbackGFLOPS is the nominal sustained compute rate assumed by
// NewAnalyticFallback when the caller passes 0: a conservative
// single-socket BF16 figure so degraded-mode latencies stay plausible.
const DefaultFallbackGFLOPS = 50

// analyticFallback prices iterations from model FLOP counts at a fixed
// sustained rate. It never errors and performs no I/O.
type analyticFallback struct {
	m       model.Config
	flopsPS float64
}

// NewAnalyticFallback returns a CostModel pricing iterations as
// FLOPs / (gflops × 1e9) over the given model configuration. It is the
// degraded-mode fallback for engine-measured lanes; gflops ≤ 0 selects
// DefaultFallbackGFLOPS.
func NewAnalyticFallback(m model.Config, gflops float64) CostModel {
	if gflops <= 0 {
		gflops = DefaultFallbackGFLOPS
	}
	return &analyticFallback{m: m, flopsPS: gflops * 1e9}
}

func (a *analyticFallback) PrefillCost(batch, inputLen int) (float64, error) {
	if batch < 1 || inputLen < 1 {
		return 0, fmt.Errorf("serve: fallback prefill needs positive batch and length, got %d, %d", batch, inputLen)
	}
	return a.m.PrefillFLOPs(inputLen, batch) / a.flopsPS, nil
}

func (a *analyticFallback) DecodeStepCost(batch, ctxLen int) (float64, error) {
	if batch < 1 || ctxLen < 1 {
		return 0, fmt.Errorf("serve: fallback decode needs positive batch and context, got %d, %d", batch, ctxLen)
	}
	return a.m.DecodeStepFLOPs(ctxLen, batch) / a.flopsPS, nil
}

// Cached implements CostModel: the fallback keeps no memo.
func (a *analyticFallback) Cached(bool, int, int) (Quote, bool) { return Quote{}, false }
