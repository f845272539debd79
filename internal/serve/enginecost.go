package serve

// enginecost.go prices scheduler iterations by actually executing the
// functional engine and timing it, instead of consulting the analytic
// platform model. This lets the serving policies (continuous, chunked) and
// the gateway run against a real transformer at laptop scale: every
// prefill and decode-step cost is a measured wall-clock duration of real
// GEMMs, attention and sampling. Costs are memoized like the analytic
// models, so a long trace pays for each distinct shape once.

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
)

// NewEngineCost returns a CostModel backed by measured execution of the
// given functional engine (typically a core.TinyEngine). Context lengths
// beyond the engine's MaxSeq are clamped, so arbitrarily long simulated
// requests still price monotonically.
func NewEngineCost(e *engine.Engine) CostModel {
	var mu sync.Mutex // engine sessions are cheap but the engine is shared
	rng := rand.New(rand.NewSource(1))
	return &memoCost{memo: map[costKey]Quote{}, price: func(k costKey) (Quote, error) {
		mu.Lock()
		defer mu.Unlock()
		s, err := measure(e, rng, k)
		return Quote{Seconds: s}, err
	}}
}

// measure runs the measured workload of one shape. For prefill it times
// Prefill over a batch of sampled prompts; for decode it first rebuilds
// length tokens of KV state, then times exactly one DecodeStep.
func measure(e *engine.Engine, rng *rand.Rand, k costKey) (float64, error) {
	cfg := e.Config()
	batch := max(k.batch, 1)
	length := max(min(k.length, cfg.MaxSeq-1), 1)

	prompts := make([][]int, batch)
	for b := range prompts {
		prompts[b] = make([]int, length)
		for i := range prompts[b] {
			prompts[b][i] = rng.Intn(cfg.Vocab)
		}
	}
	s := e.NewSession(batch, length+1)
	defer s.Release()
	if k.phase == phasePrefill {
		start := time.Now()
		_, err := e.Prefill(s, prompts)
		return time.Since(start).Seconds(), err
	}
	toks, err := e.Prefill(s, prompts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = e.DecodeStep(s, toks)
	return time.Since(start).Seconds(), err
}
