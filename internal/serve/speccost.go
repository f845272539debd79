package serve

// speccost.go prices the two extra primitives speculative decoding adds to
// a lane: draft decode steps and fused multi-row verification passes. The
// analytic flavor reuses the specdec roofline (weights stream once per
// pass, compute and KV IO scale with rows); the measured flavor times the
// real engines the way enginecost.go does.

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/specdec"
)

// SpecCostModel extends CostModel with speculative-decoding primitives. A
// lane whose cost model implements it can run draft-assisted decode
// iterations: k draft steps plus one fused verification pass replace up to
// k+1 plain decode steps.
type SpecCostModel interface {
	CostModel
	// DraftStepCost returns the seconds of one draft-model decode
	// iteration at the given batch and context.
	DraftStepCost(batch, ctxLen int) (float64, error)
	// VerifyCost returns the seconds of one fused target pass verifying
	// `rows` rows (k proposals + 1 carry token) per sequence.
	VerifyCost(batch, ctxLen, rows int) (float64, error)
}

type verifyKey struct {
	batch, length, rows int
}

// specCPUCost prices speculation analytically on a modeled CPU.
type specCPUCost struct {
	CostModel // target pricing (prefill + plain decode)
	draft     CostModel

	setup  memsim.Config
	target model.Config

	mu     sync.Mutex
	verify map[verifyKey]float64
}

// NewSpecCPUCost returns a SpecCostModel pricing a target/draft pair on
// the modeled platform. Prefill and plain decode match NewCPUCost for the
// target exactly — a lane that never speculates behaves identically.
func NewSpecCPUCost(setup memsim.Config, target, draft model.Config) SpecCostModel {
	return &specCPUCost{
		CostModel: NewCPUCost(setup, target),
		draft:     NewCPUCost(setup, draft),
		setup:     setup,
		target:    target,
		verify:    map[verifyKey]float64{},
	}
}

func (c *specCPUCost) DraftStepCost(batch, ctxLen int) (float64, error) {
	return c.draft.DecodeStepCost(batch, ctxLen)
}

func (c *specCPUCost) VerifyCost(batch, ctxLen, rows int) (float64, error) {
	if rows < 1 {
		rows = 1
	}
	length := (ctxLen + ctxBucket - 1) / ctxBucket * ctxBucket
	k := verifyKey{batch, length, rows}
	c.mu.Lock()
	if v, ok := c.verify[k]; ok {
		c.mu.Unlock()
		return v, nil
	}
	c.mu.Unlock()
	if length < 1 {
		length = 1
	}
	v, err := specdec.VerifySeconds(c.target, c.setup, batch, length, rows)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	c.verify[k] = v
	c.mu.Unlock()
	return v, nil
}

// specEngineCost prices speculation by timing the real engines.
type specEngineCost struct {
	CostModel // measured target pricing
	draftCost CostModel

	mu     sync.Mutex
	target *engine.Engine
	rng    *rand.Rand
	verify map[verifyKey]float64
}

// NewSpecEngineCost returns a SpecCostModel backed by measured execution:
// the target engine prices prefill/decode/verification and the draft
// engine prices its own steps. Both engines must share a vocabulary (the
// caller builds them from the same registry family).
func NewSpecEngineCost(target, draft *engine.Engine) SpecCostModel {
	return &specEngineCost{
		CostModel: NewEngineCost(target),
		draftCost: NewEngineCost(draft),
		target:    target,
		rng:       rand.New(rand.NewSource(2)),
		verify:    map[verifyKey]float64{},
	}
}

func (c *specEngineCost) DraftStepCost(batch, ctxLen int) (float64, error) {
	return c.draftCost.DecodeStepCost(batch, ctxLen)
}

// VerifyCost rebuilds ctx tokens of KV state and times one VerifyRows
// pass over `rows` rows. Batched verification runs per sequence (the
// fused pass packs one sequence's rows), so the measurement multiplies by
// the batch.
func (c *specEngineCost) VerifyCost(batch, ctxLen, rows int) (float64, error) {
	if rows < 1 {
		rows = 1
	}
	if batch < 1 {
		batch = 1
	}
	length := (ctxLen + ctxBucket - 1) / ctxBucket * ctxBucket
	k := verifyKey{batch, length, rows}
	c.mu.Lock()
	if v, ok := c.verify[k]; ok {
		c.mu.Unlock()
		return v, nil
	}
	cfg := c.target.Config()
	ctx := length
	if max := cfg.MaxSeq - rows - 1; ctx > max {
		ctx = max
	}
	if ctx < 1 {
		ctx = 1
	}
	prompt := make([]int, ctx)
	for i := range prompt {
		prompt[i] = c.rng.Intn(cfg.Vocab)
	}
	toks := make([]int, rows)
	for i := range toks {
		toks[i] = c.rng.Intn(cfg.Vocab)
	}
	s := c.target.NewSession(1, ctx+rows+1)
	defer s.Release()
	if _, err := c.target.Prefill(s, [][]int{prompt}); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	start := time.Now()
	_, err := c.target.VerifyRows(s, toks)
	v := time.Since(start).Seconds() * float64(batch)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	c.verify[k] = v
	c.mu.Unlock()
	return v, nil
}
