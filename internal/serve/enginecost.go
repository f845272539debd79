package serve

// enginecost.go prices scheduler iterations by actually executing the
// functional engine and timing it, instead of consulting the analytic
// platform model. This lets the serving policies (continuous, chunked) and
// the gateway run against a real transformer at laptop scale: every
// prefill and decode-step cost is a measured wall-clock duration of real
// GEMMs, attention and sampling. Costs are memoized like the analytic
// models, so a long trace pays for each distinct (batch, length) shape
// once.

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
)

// engineCost implements CostModel by timing the real engine.
type engineCost struct {
	mu   sync.Mutex // engine sessions are cheap but the engine is shared
	e    *engine.Engine
	rng  *rand.Rand
	memo memoCost
}

// NewEngineCost returns a CostModel backed by measured execution of the
// given functional engine (typically a core.TinyEngine). Context lengths
// beyond the engine's MaxSeq are clamped, so arbitrarily long simulated
// requests still price monotonically.
func NewEngineCost(e *engine.Engine) CostModel {
	c := &engineCost{e: e, rng: rand.New(rand.NewSource(1))}
	c.memo = memoCost{memo: map[costKey]priced{}, price: func(prefill bool, batch, length int) (priced, error) {
		s, err := c.price(prefill, batch, length)
		return priced{seconds: s}, err
	}}
	return c
}

func (c *engineCost) PrefillCost(batch, inputLen int) (float64, error) {
	return c.memo.PrefillCost(batch, inputLen)
}

func (c *engineCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	return c.memo.DecodeStepCost(batch, ctxLen)
}

// price runs the measured workload. For prefill it times Prefill over a
// batch of sampled prompts; for decode it first rebuilds ctx tokens of KV
// state, then times exactly one DecodeStep.
func (c *engineCost) price(prefill bool, batch, length int) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cfg := c.e.Config()
	maxCtx := cfg.MaxSeq - 1
	if length > maxCtx {
		length = maxCtx
	}
	if length < 1 {
		length = 1
	}
	if batch < 1 {
		batch = 1
	}

	prompts := make([][]int, batch)
	for b := range prompts {
		p := make([]int, length)
		for i := range p {
			p[i] = c.rng.Intn(cfg.Vocab)
		}
		prompts[b] = p
	}
	s := c.e.NewSession(batch, length+1)
	defer s.Release()
	if prefill {
		start := time.Now()
		_, err := c.e.Prefill(s, prompts)
		return time.Since(start).Seconds(), err
	}
	toks, err := c.e.Prefill(s, prompts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	_, err = c.e.DecodeStep(s, toks)
	return time.Since(start).Seconds(), err
}
