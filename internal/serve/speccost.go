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
	return v.seconds, err
}
