// Package specdec models speculative decoding (SpecInfer, the paper's
// related work [37]) on the simulated platforms. The decode phase the
// paper characterizes is memory-bound: every generated token streams all
// weights once (Figs 9–12). Verifying k draft tokens in one target pass
// streams the weights once for up to k+1 tokens, so the technique
// multiplies effective decode bandwidth by the expected accepted run
// length — an optimization that composes with the paper's AMX/HBM
// findings.
package specdec

import (
	"fmt"
	"math"

	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Run describes one speculative-decoding simulation point.
type Run struct {
	Target model.Config
	Draft  model.Config
	Setup  memsim.Config
	Batch  int
	// InputLen/OutputLen shape the request (paper default 128/32).
	InputLen, OutputLen int
	// Lookahead is the draft proposal length k.
	Lookahead int
	// Acceptance is the per-token probability that the target accepts a
	// draft token (α). SpecInfer-class systems report 0.6–0.9 for
	// well-matched draft pairs.
	Acceptance float64
}

// Result summarizes the comparison against plain greedy decoding.
type Result struct {
	BaselineTPOT  float64 // target-only seconds per output token
	SpecTPOT      float64 // speculative seconds per output token
	Speedup       float64
	TokensPerPass float64 // expected tokens committed per target pass
	DraftShare    float64 // fraction of speculative time spent drafting
}

// ExpectedTokensPerCycle returns the expected committed tokens per
// speculation cycle: accepted draft tokens plus the target's bonus token,
// E = Σ_{i=0..k-1} α^i · ... = (1-α^{k+1})/(1-α) for α<1, k+1 for α=1.
func ExpectedTokensPerCycle(alpha float64, k int) float64 {
	if alpha >= 1 {
		return float64(k + 1)
	}
	return (1 - math.Pow(alpha, float64(k+1))) / (1 - alpha)
}

// Simulate prices the run.
func (r Run) Simulate() (Result, error) {
	if err := r.validate(); err != nil {
		return Result{}, err
	}
	// Per-step decode costs of target and draft on the same platform.
	stepCost := func(m model.Config) (float64, error) {
		res, err := perfmodel.CPURun{Model: m, Setup: r.Setup, Batch: r.Batch,
			InputLen: r.InputLen, OutputLen: 2, Weights: tensor.BF16}.Simulate()
		return res.DecodeSeconds, err
	}
	targetStep, err := stepCost(r.Target)
	if err != nil {
		return Result{}, err
	}
	draftStep, err := stepCost(r.Draft)
	if err != nil {
		return Result{}, err
	}
	// Verification is one target pass over k+1 rows: weight streaming is
	// unchanged (the memory-bound term) and compute scales with rows —
	// price it as a decode step whose compute-bound ops run (k+1)×. In
	// the memory-bound regime this stays ≈ targetStep.
	verify := r.verifyCost(targetStep)

	e := ExpectedTokensPerCycle(r.Acceptance, r.Lookahead)
	cycle := float64(r.Lookahead)*draftStep + verify
	spec := cycle / e

	res := Result{
		BaselineTPOT:  targetStep,
		SpecTPOT:      spec,
		TokensPerPass: e,
		DraftShare:    float64(r.Lookahead) * draftStep / cycle,
	}
	if spec > 0 {
		res.Speedup = targetStep / spec
	}
	return res, nil
}

// verifyCost prices the (k+1)-row verification pass.
func (r Run) verifyCost(targetStep float64) float64 {
	t, err := VerifySeconds(r.Target, r.Setup, r.Batch, r.InputLen, r.Lookahead+1)
	if err != nil {
		return targetStep // conservative fallback
	}
	return t
}

// VerifySeconds prices one fused verification pass of `rows` rows over a
// single sequence at KV context ctx, with BF16 weights (the paper's
// default dtype). Per op the roofline is
//
//	max(ComputeSec·rows, WeightSec + IOSec·rows)
//
// — the weights stream exactly once regardless of the row count (that is
// the whole point of fused verification), while compute and the
// activation/KV traffic scale with the rows. An earlier version charged
// the undivided memory term unscaled, which under-priced long-context
// verification where KV reads dominate; the serving path charges this
// exact formula, so the analytic Result and live accounting reconcile.
func VerifySeconds(m model.Config, setup memsim.Config, batch, ctx, rows int) (float64, error) {
	return VerifySecondsDT(m, setup, batch, ctx, rows, tensor.BF16)
}

// VerifySecondsDT is VerifySeconds with an explicit weight dtype, for
// pricing verification on quantized (INT8) or unquantized (FP32) kernel
// tiers: the dtype scales the streamed weight bytes, which is exactly the
// term fused verification amortizes.
func VerifySecondsDT(m model.Config, setup memsim.Config, batch, ctx, rows int, dt tensor.DType) (float64, error) {
	run := perfmodel.CPURun{Model: m, Setup: setup, Batch: batch,
		InputLen: ctx, OutputLen: 2, Weights: dt}
	ops, err := run.Analyze(model.Decode, 1, ctx)
	if err != nil {
		return 0, err
	}
	rf := float64(rows)
	var t float64
	for _, o := range ops {
		compute := o.ComputeSec * rf
		mem := o.WeightSec + o.IOSec*rf
		if mem > compute {
			t += mem
		} else {
			t += compute
		}
	}
	t += setup.CPU.StepOverheadMS / 1e3
	return t, nil
}

func (r Run) validate() error {
	if err := r.Target.Validate(); err != nil {
		return err
	}
	if err := r.Draft.Validate(); err != nil {
		return err
	}
	if r.Lookahead <= 0 {
		return fmt.Errorf("specdec: non-positive lookahead %d", r.Lookahead)
	}
	if r.Acceptance < 0 || r.Acceptance > 1 {
		return fmt.Errorf("specdec: acceptance %g outside [0,1]", r.Acceptance)
	}
	if r.Batch <= 0 || r.InputLen <= 0 || r.OutputLen <= 0 {
		return fmt.Errorf("specdec: non-positive batch/input/output")
	}
	return nil
}
