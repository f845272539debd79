package specdec

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
)

func run(alpha float64, k int) Run {
	return Run{
		Target: model.OPT13B, Draft: model.OPT1B3,
		Setup: memsim.Config{CPU: hw.SPRMax9468, Cores: 48,
			Mem: memsim.Flat, Cluster: memsim.Quad},
		Batch: 1, InputLen: 128, OutputLen: 32,
		Lookahead: k, Acceptance: alpha,
	}
}

func TestExpectedTokensPerCycle(t *testing.T) {
	if ExpectedTokensPerCycle(0, 4) != 1 {
		t.Error("zero acceptance must yield exactly the bonus token")
	}
	if ExpectedTokensPerCycle(1, 4) != 5 {
		t.Error("perfect acceptance must yield k+1 tokens")
	}
	got := ExpectedTokensPerCycle(0.5, 2) // 1 + 0.5 + 0.25
	if math.Abs(got-1.75) > 1e-12 {
		t.Errorf("E(0.5, 2) = %v, want 1.75", got)
	}
	// Monotone in both α and k.
	if ExpectedTokensPerCycle(0.6, 4) >= ExpectedTokensPerCycle(0.8, 4) {
		t.Error("E must grow with acceptance")
	}
	if ExpectedTokensPerCycle(0.8, 2) >= ExpectedTokensPerCycle(0.8, 6) {
		t.Error("E must grow with lookahead")
	}
}

// TestSpeculationSpeedsUpMemoryBoundDecode: with a 10× smaller draft and
// realistic acceptance, speculative decoding must beat plain decoding on
// the memory-bound CPU.
func TestSpeculationSpeedsUpMemoryBoundDecode(t *testing.T) {
	res, err := run(0.8, 4).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup <= 1.2 {
		t.Errorf("speedup = %.2f, want > 1.2 (α=0.8, k=4, 10x draft)", res.Speedup)
	}
	if res.Speedup > float64(5) {
		t.Errorf("speedup = %.2f implausibly high for k=4", res.Speedup)
	}
	if res.TokensPerPass <= 1 || res.DraftShare <= 0 || res.DraftShare >= 1 {
		t.Errorf("degenerate result: %+v", res)
	}
}

// TestZeroAcceptanceHurts: a useless draft makes speculation strictly
// slower than the baseline (pure overhead).
func TestZeroAcceptanceHurts(t *testing.T) {
	res, err := run(0, 4).Simulate()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup >= 1 {
		t.Errorf("zero acceptance must slow decoding (speedup %.2f)", res.Speedup)
	}
}

// TestSpeedupMonotoneInAcceptance: more acceptance, more speedup.
func TestSpeedupMonotoneInAcceptance(t *testing.T) {
	prev := 0.0
	for _, a := range []float64{0.2, 0.5, 0.8, 0.95} {
		res, err := run(a, 4).Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if res.Speedup <= prev {
			t.Errorf("speedup not monotone at α=%.2f: %.2f ≤ %.2f", a, res.Speedup, prev)
		}
		prev = res.Speedup
	}
}

// TestVerifyNearOneStep: in the memory-bound regime, verifying k+1 rows
// must cost only slightly more than one decode step.
func TestVerifyNearOneStep(t *testing.T) {
	r := run(0.8, 4)
	res, err := r.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	verify := r.verifyCost(res.BaselineTPOT)
	if verify > 1.5*res.BaselineTPOT {
		t.Errorf("verify pass %.1fms vs step %.1fms — should be near-free",
			verify*1e3, res.BaselineTPOT*1e3)
	}
	if verify < res.BaselineTPOT*0.9 {
		t.Errorf("verify pass cheaper than a decode step: %.1fms vs %.1fms",
			verify*1e3, res.BaselineTPOT*1e3)
	}
}

// TestLiveAccountingWithinAnalyticBound is the reconciliation property:
// the cycle the live serving path charges (k draft steps + one fused
// (k+1)-row verification pass) must reproduce the analytic SpecTPOT
// exactly, and the verification pass itself must stay within its physical
// bounds — at least one decode step (the weights stream once no matter
// what) and strictly cheaper than k+1 independent steps (or fused
// verification would be pointless).
func TestLiveAccountingWithinAnalyticBound(t *testing.T) {
	prop := func(a8, k8 uint8) bool {
		alpha := float64(a8) / 255
		k := 1 + int(k8%6)
		r := run(alpha, k)
		res, err := r.Simulate()
		if err != nil {
			return false
		}
		draftRun := r
		draftRun.Target = r.Draft
		dres, err := draftRun.Simulate()
		if err != nil {
			return false
		}
		verify, err := VerifySeconds(r.Target, r.Setup, r.Batch, r.InputLen, k+1)
		if err != nil {
			return false
		}
		// Physical bounds on the fused pass.
		if verify < res.BaselineTPOT*0.9 {
			t.Logf("verify %.3fms below one step %.3fms", verify*1e3, res.BaselineTPOT*1e3)
			return false
		}
		if verify > float64(k+1)*res.BaselineTPOT*1.01 {
			t.Logf("verify %.3fms above %d unfused steps", verify*1e3, k+1)
			return false
		}
		// Reconciliation: live cycle accounting == analytic TPOT.
		cycle := float64(k)*dres.BaselineTPOT + verify
		want := cycle / ExpectedTokensPerCycle(alpha, k)
		return math.Abs(res.SpecTPOT-want) <= 1e-12*math.Max(1, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyScalesWithContext: at long KV contexts the per-row KV reads
// matter, so a (k+1)-row verification must cost measurably more than at a
// short context — the regression the WeightSec/IOSec split fixed (the old
// formula charged the undivided memory term once, independent of rows).
func TestVerifyScalesWithContext(t *testing.T) {
	r := run(0.8, 4)
	short, err := VerifySeconds(r.Target, r.Setup, r.Batch, 128, 5)
	if err != nil {
		t.Fatal(err)
	}
	long, err := VerifySeconds(r.Target, r.Setup, r.Batch, 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	if long <= short {
		t.Errorf("verify at ctx=4096 (%.3fms) not above ctx=128 (%.3fms)", long*1e3, short*1e3)
	}
	one, err := VerifySeconds(r.Target, r.Setup, r.Batch, 4096, 1)
	if err != nil {
		t.Fatal(err)
	}
	if long <= one {
		t.Errorf("5-row verify (%.3fms) not above 1-row (%.3fms) at long context", long*1e3, one*1e3)
	}
}

func TestValidation(t *testing.T) {
	r := run(0.8, 0)
	if _, err := r.Simulate(); err == nil {
		t.Error("zero lookahead must fail")
	}
	r = run(1.5, 2)
	if _, err := r.Simulate(); err == nil {
		t.Error("acceptance > 1 must fail")
	}
	r = run(0.8, 2)
	r.Batch = 0
	if _, err := r.Simulate(); err == nil {
		t.Error("zero batch must fail")
	}
	r = run(0.8, 2)
	r.Draft = model.Config{Name: "bad"}
	if _, err := r.Simulate(); err == nil {
		t.Error("invalid draft must fail")
	}
}
