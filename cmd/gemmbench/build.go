package main

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

// buildSplit is where building the repository benchmark's engine goes
// (bench/engine.go: BF16 weights, then engine.New on a pool), step by step,
// each the median of reps interleaved builds from nothing, in seconds.
type buildSplit struct {
	Model string `json:"model"`
	Reps  int    `json:"reps"`
	// NewWeightsS is engine.NewWeights. StreamS is the math/rand stream of
	// as many values alone — its floor: the values are the model — and
	// RoundS their rounding to bfloat16 (NarrowBF16 over the linear
	// weights, RoundBF16Into over the embeddings).
	NewWeightsS float64 `json:"new_weights_s"`
	StreamS     float64 `json:"stream_s"`
	RoundS      float64 `json:"round_s"`
	// PackS is, per tier, engine.New over fresh weights, given a pool of
	// GOMAXPROCS workers as the benchmark does: the packs that tier reads,
	// the tied head's included.
	PackS map[string]float64 `json:"pack_s"`
}

// measureBuild times the build of stepModels[0], the benchmark's model.
func measureBuild(reps int) (buildSplit, error) {
	cfg := stepModels[0]
	pool := kernels.NewPool(0)
	defer pool.Close()
	d, kv, dff := cfg.DModel, cfg.KVDim(), cfg.DFF
	linear := cfg.Layers * (2*d*d + 2*d*kv + 2*d*dff)
	values := make([]float32, linear+(cfg.Vocab+cfg.MaxSeq)*d)
	bits := make([]uint16, linear)
	var err error // the first build error: a later build must not clear it
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}
	fs := []func(){
		func() {
			_, e := engine.NewWeights(cfg, 42, tensor.BF16)
			keep(e)
		},
		func() {
			rng := rand.New(rand.NewSource(42))
			for i := range values {
				values[i] = float32(rng.NormFloat64() * 0.02)
			}
		},
		func() {
			kernels.NarrowBF16(bits, values[:linear])
			kernels.RoundBF16Into(values[linear:], values[linear:])
		},
	}
	tiers := []engine.Kernel{engine.KernelBlocked, engine.KernelParallel, engine.KernelTileBF16,
		engine.KernelTileBF16Parallel}
	fresh := make([]*engine.Weights, len(tiers))
	for i, k := range tiers {
		fs = append(fs, func() {
			if fresh[i] == nil {
				return // its NewWeights failed, and err holds why
			}
			_, e := engine.New(fresh[i], engine.Options{Kernel: k, Pool: pool})
			keep(e)
			fresh[i] = nil
		})
	}
	prep := func(i int) {
		if i >= 3 {
			var e error
			fresh[i-3], e = engine.NewWeights(cfg, 42, tensor.BF16)
			keep(e)
		}
	}
	times := interleave(reps, prep, fs...)
	if err != nil {
		return buildSplit{}, err
	}
	split := buildSplit{Model: cfg.Name, Reps: reps, NewWeightsS: median(times[0]), StreamS: median(times[1]),
		RoundS: median(times[2]), PackS: map[string]float64{}}
	fmt.Printf("\nbuild split  (%s, median of %d interleaved builds)\n", cfg.Name, reps)
	fmt.Printf("  %-22s %8.2f ms\n  %-22s %8.2f ms\n  %-22s %8.2f ms\n", "NewWeights (BF16)", split.NewWeightsS*1e3,
		"  math/rand stream", split.StreamS*1e3, "  bf16 rounding", split.RoundS*1e3)
	for i, k := range tiers {
		split.PackS[k.String()] = median(times[3+i])
		fmt.Printf("  %-22s %8.2f ms\n", "New "+k.String(), split.PackS[k.String()]*1e3)
	}
	return split, nil
}
