// Speculative decoding: run it functionally (a real draft model proposing
// tokens that a real target model verifies — output bit-identical to the
// target's greedy generation) and analytically (expected TPOT speedup on
// the memory-bound SPR CPU, where one verification pass streams the
// weights once for k+1 candidate tokens).
//
// Run with: go run ./examples/speculative
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/specdec"
	"repro/internal/tensor"
)

func main() {
	// --- functional: tiny target + 1-layer draft -------------------------
	cfg := model.Tiny(model.OPT)
	tw, err := engine.NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		log.Fatal(err)
	}
	target, err := engine.New(tw, engine.Options{Kernel: engine.KernelBlocked})
	if err != nil {
		log.Fatal(err)
	}
	dcfg := cfg
	dcfg.Layers = 1
	dw, err := engine.NewWeights(dcfg, 7, tensor.FP32)
	if err != nil {
		log.Fatal(err)
	}
	draft, err := engine.New(dw, engine.Options{Kernel: engine.KernelBlocked})
	if err != nil {
		log.Fatal(err)
	}

	prompt := core.Prompt(target, 12, 3)
	greedy, _, err := target.Generate([][]int{prompt}, 16)
	if err != nil {
		log.Fatal(err)
	}
	spec, st, err := engine.SpeculativeGenerate(target, draft, prompt, 16, engine.SpecOptions{Lookahead: 4})
	if err != nil {
		log.Fatal(err)
	}
	match := true
	for i := range greedy[0] {
		if greedy[0][i] != spec[i] {
			match = false
		}
	}
	fmt.Println("== functional speculative decoding (tiny OPT, 1-layer draft, k=4) ==")
	fmt.Printf("greedy output:      %v\n", greedy[0])
	fmt.Printf("speculative output: %v\n", spec)
	fmt.Printf("bit-identical: %v\n", match)
	fmt.Printf("acceptance rate %.0f%%, %d target passes for 16 tokens (greedy needs 16)\n\n",
		st.AcceptanceRate()*100, st.TargetPasses)

	// --- analytic: OPT-30B target, OPT-1.3B draft on the SPR CPU ---------
	fmt.Println("== simulated speedup on SPR quad_flat (OPT-30B target, OPT-1.3B draft) ==")
	fmt.Printf("%-12s %-10s %14s %14s %9s\n",
		"acceptance", "lookahead", "baseline TPOT", "spec TPOT", "speedup")
	for _, alpha := range []float64{0.6, 0.7, 0.8, 0.9} {
		best := specdec.Result{}
		bestK := 0
		for _, k := range []int{2, 4, 6, 8} {
			run := specdec.Run{Target: model.OPT30B, Draft: model.OPT1B3,
				Setup: core.SPRQuadFlat(48), Batch: 1, InputLen: 128,
				OutputLen: 32, Lookahead: k, Acceptance: alpha}
			res, err := run.Simulate()
			if err != nil {
				log.Fatal(err)
			}
			if res.Speedup > best.Speedup {
				best, bestK = res, k
			}
		}
		fmt.Printf("%-12.2f %-10d %12.1fms %12.1fms %8.2fx\n",
			alpha, bestK, best.BaselineTPOT*1e3, best.SpecTPOT*1e3, best.Speedup)
	}
	fmt.Println("\nthe decode phase streams all weights per token (memory-bound, Figs")
	fmt.Println("9-12); verifying k tokens in one pass reuses that stream, so speedup")
	fmt.Println("tracks the expected accepted run length.")
}
