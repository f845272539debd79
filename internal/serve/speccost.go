package serve

// speccost.go prices the two extra primitives speculative decoding adds to
// a lane: draft decode steps and fused multi-row verification passes. Both
// flavors are one specCost: the target's memo prices verification as a
// third phase (analytically in NewCPUCost, by timing the engine in
// NewEngineCost) and the draft's own model prices its steps.

import (
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/model"
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

// specCost is a target/draft pair. Only it prices verification, so a
// plain CPU, GPU or engine model never passes for a SpecCostModel.
type specCost struct {
	*memoCost // the target: prefill, plain decode and verification
	draft     CostModel
}

// NewSpecCPUCost returns a SpecCostModel pricing a target/draft pair on
// the modeled platform. Prefill and plain decode match NewCPUCost for the
// target exactly — a lane that never speculates behaves identically.
func NewSpecCPUCost(setup memsim.Config, target, draft model.Config) SpecCostModel {
	return specCost{NewCPUCost(setup, target).(*memoCost), NewCPUCost(setup, draft)}
}

// NewSpecEngineCost returns a SpecCostModel backed by measured execution:
// the target engine prices prefill/decode/verification and the draft
// engine prices its own steps. Both engines must share a vocabulary (the
// caller builds them from the same registry family).
func NewSpecEngineCost(target, draft *engine.Engine) SpecCostModel {
	return specCost{NewEngineCost(target).(*memoCost), NewEngineCost(draft)}
}

func (c specCost) DraftStepCost(batch, ctxLen int) (float64, error) {
	return c.draft.DecodeStepCost(batch, ctxLen)
}

func (c specCost) VerifyCost(batch, ctxLen, rows int) (float64, error) {
	v, err := c.get(costKey{phase: phaseVerify, batch: batch, length: ctxLen, rows: max(rows, 1)})
	return v.Seconds, err
}

// Cached implements CostModel for the target's phases and, when k > 0,
// for a whole speculation cycle: the draft's cached step and the target's
// cached verification over k+1 rows, composed by CycleSeconds. A cycle is
// not a phase the models emulate, so it carries no counters.
func (c specCost) Cached(prefill bool, batch, length, k int) (Quote, bool) {
	if k == 0 {
		return c.memoCost.Cached(prefill, batch, length, 0)
	}
	d, ok := c.draft.Cached(false, batch, length, 0)
	if !ok {
		return Quote{}, false
	}
	v, ok := c.read(costKey{phase: phaseVerify, batch: batch, length: length, rows: k + 1}.bucketed())
	if !ok {
		return Quote{}, false
	}
	return Quote{Seconds: CycleSeconds(k, d.Seconds, v.Seconds)}, true
}

// CycleSeconds is the price of one speculation cycle: k draft steps of
// draft seconds each plus one verification pass of verify seconds.
// Pricing a cycle and reading it back from the memos both go through it,
// so the two agree to the bit.
func CycleSeconds(k int, draft, verify float64) float64 {
	return float64(k)*draft + verify
}
