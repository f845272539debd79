package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// hostID names the machine a BENCH_*.json artifact was taken on.
type hostID struct {
	GOARCH     string `json:"goarch"`
	SIMD       string `json:"simd"` // kernels.SIMDLevel(): the packed-GEMM micro-kernel in use
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

func thisHost() hostID {
	return hostID{GOARCH: runtime.GOARCH, SIMD: kernels.SIMDLevel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// hostBlock is the measured roofline of the machine the sweep ran on: the
// two ceilings every kernel point is held against, on one thread and on
// all GOMAXPROCS of them.
type hostBlock struct {
	hostID
	// STREAM triad a[i] = b[i] + s·c[i] over TriadMB of float32 (three
	// arrays, well past L2), 12 bytes per element, best of 5 passes.
	TriadMB       int     `json:"triad_working_set_mb"`
	TriadGBs1     float64 `json:"triad_gbs_1thread"`
	TriadGBs      float64 `json:"triad_gbs"`
	MulAddGFLOPs1 float64 `json:"muladd_gflops_1thread"`
	MulAddGFLOPs  float64 `json:"muladd_gflops"`
	// The same ceiling for the portable Go loop (one thread): what the
	// packed_scalar column can reach at best.
	MulAddScalarGFLOPs1 float64 `json:"muladd_scalar_gflops_1thread"`
}

// kernelRate is one way of computing one kernel point: the median of the
// repetitions as time and as achieved rates, the spread, and the share of
// each all-thread host ceiling the median reaches. A point far below both
// ceilings is bound by neither (dispatch, latency); GB/s above the triad
// ceiling means the operands were cache-resident.
type kernelRate struct {
	Seconds    float64 `json:"seconds"`
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	GFLOPs     float64 `json:"gflops"`
	GBs        float64 `json:"gbs"`
	PctMulAdd  float64 `json:"pct_of_muladd_ceiling"`
	PctTriad   float64 `json:"pct_of_triad_ceiling"`
}

// kernelPoint is one decode-shape GEMM, M rows × a [k,n] weight, computed
// two ways: PackedScalar → Packed is the before/after pair of the SIMD
// micro-kernel.
type kernelPoint struct {
	Tier         string     `json:"tier"`
	M            int        `json:"m"`
	K            int        `json:"k"`
	N            int        `json:"n"`
	WeightMB     float64    `json:"weight_mb"` // packed bytes streamed per call
	Reps         int        `json:"reps"`
	PackedScalar kernelRate `json:"packed_scalar"` // packed, portable Go loop, serial
	Packed       kernelRate `json:"packed"`        // packed as shipped: micro-kernel + pool
	// SIMDSpeedup is packed_scalar / packed.
	SIMDSpeedup float64 `json:"simd_speedup"`
}

// enginePoint is one end-to-end tiny-engine measurement at a batch size
// (median of the repetitions).
type enginePoint struct {
	Family     string  `json:"family"`
	Kernel     string  `json:"kernel"`
	Batch      int     `json:"batch"`
	PromptLen  int     `json:"prompt_len"`
	NewTokens  int     `json:"new_tokens"`
	Reps       int     `json:"reps"`
	DecodeTokS float64 `json:"fused_decode_toks"`
	PrefillS   float64 `json:"fused_prefill_seconds"`
}

// benchReport is the BENCH_decode.json schema.
type benchReport struct {
	Host        hostBlock     `json:"host"`
	Short       bool          `json:"short"`
	KernelSweep []kernelPoint `json:"kernel_sweep"`
	// OpSweep and StepBreakdown cover the non-GEMM half of a step (ops.go).
	OpSweep       []opPoint       `json:"op_sweep"`
	StepBreakdown []stepBreakdown `json:"step_breakdown"`
	EngineSweep   []enginePoint   `json:"engine_sweep"`
}

// onThreads runs f on `threads` goroutines at once and returns the wall
// time until the last one finishes.
func onThreads(threads int, f func(thread int)) float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			f(t)
		}(t)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// measureHost takes the two roofline ceilings, on one thread and on all.
func measureHost(short bool) hostBlock {
	h := hostBlock{hostID: thisHost()}

	elems := 8 << 20 // per array: 3 × 32 MiB
	if short {
		elems = 2 << 20
	}
	h.TriadMB = 3 * elems * 4 >> 20
	a, b, c := make([]float32, elems), make([]float32, elems), make([]float32, elems)
	for i := range b {
		b[i], c[i] = float32(i&7), 0.5
	}
	triad := func(threads int) float64 {
		per := elems / threads
		best := 0.0
		for pass := 0; pass < 5; pass++ {
			el := onThreads(threads, func(t int) {
				a, b, c := a[t*per:(t+1)*per], b[t*per:(t+1)*per], c[t*per:(t+1)*per]
				for i := range a {
					a[i] = b[i] + 3*c[i]
				}
			})
			if gbs := float64(per*threads) * 12 / el / 1e9; gbs > best {
				best = gbs
			}
		}
		return best
	}
	mulAdd := func(threads int, simd bool) float64 {
		iters := 20_000_000
		if !simd || h.SIMD == "generic" {
			iters /= 10
		}
		if short {
			iters /= 10
		}
		best := 0.0
		for pass := 0; pass < 3; pass++ {
			var flops int64
			el := onThreads(threads, func(t int) {
				f := kernels.MulAddPeak(iters, simd)
				if t == 0 {
					flops = f
				}
			})
			if g := float64(flops) * float64(threads) / el / 1e9; g > best {
				best = g
			}
		}
		return best
	}
	h.TriadGBs1, h.TriadGBs = triad(1), triad(h.GOMAXPROCS)
	h.MulAddGFLOPs1, h.MulAddGFLOPs = mulAdd(1, true), mulAdd(h.GOMAXPROCS, true)
	h.MulAddScalarGFLOPs1 = mulAdd(1, false)
	return h
}

// timeReps runs f reps times after one untimed warm-up and returns the
// sorted wall times.
func timeReps(reps int, f func()) []float64 {
	f()
	times := make([]float64, reps)
	for r := range times {
		start := time.Now()
		f()
		times[r] = time.Since(start).Seconds()
	}
	sort.Float64s(times)
	return times
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func (h hostBlock) rate(times []float64, flops, bytes float64) kernelRate {
	med := median(times)
	r := kernelRate{Seconds: med, MinSeconds: times[0], MaxSeconds: times[len(times)-1],
		GFLOPs: flops / med / 1e9, GBs: bytes / med / 1e9}
	r.PctMulAdd = 100 * r.GFLOPs / h.MulAddGFLOPs
	r.PctTriad = 100 * r.GBs / h.TriadGBs
	return r
}

func runDecode(jsonPath string, short bool) error {
	batches := []int{1, 4, 8, 16, 32}
	// The bench model's FFN weight (cache-resident) and one well past L2.
	shapes := []struct{ k, n int }{{256, 1024}, {1024, 4096}}
	reps := 7
	newTokens := 24
	if short {
		batches = []int{1, 8}
		shapes = shapes[:1]
		reps = 5
		newTokens = 8
	}
	// The step breakdown goes first, while the heap is as small and settled
	// as a serving loop's: timed after the sweeps' hundred-megabyte operands
	// have come and gone, the same engine prefill reads a third slower.
	steps, err := stepBreakdowns(reps)
	if err != nil {
		return err
	}
	rep := benchReport{Host: measureHost(short), Short: short, StepBreakdown: steps}
	h := rep.Host
	fmt.Printf("host  %s/%s  GOMAXPROCS=%d  triad %.1f GB/s (1 thread %.1f)  mul+add %.1f GFLOP/s (1 thread %.1f, Go loop %.1f)\n\n",
		h.GOARCH, h.SIMD, h.GOMAXPROCS, h.TriadGBs, h.TriadGBs1, h.MulAddGFLOPs, h.MulAddGFLOPs1, h.MulAddScalarGFLOPs1)

	fmt.Printf("decode-shape kernel sweep  (median of %d reps; GFLOP/s | GB/s)\n", reps)
	fmt.Printf("%-13s %-10s %3s  %15s  %15s  %7s\n",
		"tier", "k×n", "M", "packed scalar", "packed", "vs scal")
	rng := rand.New(rand.NewSource(1))
	pool := kernels.NewPool(0)
	defer pool.Close()
	for _, sh := range shapes {
		k, n := sh.k, sh.n
		b := randMat(rng, k*n)
		for _, tierName := range []string{"tile-bf16", "blocked-fp32"} {
			pb := kernels.PackB(k, n, b)
			if tierName == "tile-bf16" {
				pb = kernels.PackBBF16(k, n, b)
			}
			var job kernels.PackedJob
			for _, m := range batches {
				a, c := randMat(rng, m*k), make([]float32, m*n)
				flops := 2 * float64(m) * float64(n) * float64(k)
				bytes := float64(pb.Bytes()) + float64(4*m*(k+n)) // weights + activations in, outputs out
				pt := kernelPoint{Tier: tierName, M: m, K: k, N: n, Reps: reps,
					WeightMB: float64(pb.Bytes()) / (1 << 20)}
				pt.PackedScalar = h.rate(timeReps(reps, func() { kernels.GemmPackedGeneric(m, a, pb, c) }), flops, bytes)
				pt.Packed = h.rate(timeReps(reps, func() { kernels.GemmPackedPooled(pool, &job, m, a, pb, c) }), flops, bytes)
				pt.SIMDSpeedup = pt.PackedScalar.Seconds / pt.Packed.Seconds
				rep.KernelSweep = append(rep.KernelSweep, pt)
				cell := func(r kernelRate) string { return fmt.Sprintf("%6.2f | %6.2f", r.GFLOPs, r.GBs) }
				fmt.Printf("%-13s %-10s %3d  %15s  %15s  %6.1fx\n",
					tierName, fmt.Sprintf("%d×%d", k, n), m,
					cell(pt.PackedScalar), cell(pt.Packed), pt.SIMDSpeedup)
			}
		}
	}

	fmt.Printf("\nvector op sweep  (median of %d reps; per call: Go loop | as shipped)\n", reps)
	rep.OpSweep = opSweep(h, reps)

	fmt.Printf("\ntiny-engine decode throughput  (prompt 8, %d new tokens, median of %d reps)\n", newTokens, reps)
	fmt.Printf("%-8s %-20s %6s  %12s  %12s\n", "family", "kernel", "batch", "decode tok/s", "prefill ms")
	families := []model.Family{model.LLaMA2}
	if !short {
		families = append(families, model.OPT)
	}
	for _, fam := range families {
		kern := engine.KernelTileBF16
		w, err := engine.NewWeights(model.Tiny(fam), 42, tensor.BF16)
		if err != nil {
			return err
		}
		eng, err := engine.New(w, engine.Options{Kernel: kern})
		if err != nil {
			return err
		}
		famName := "opt"
		if fam == model.LLaMA2 {
			famName = "llama"
		}
		for _, batch := range batches {
			prompts := make([][]int, batch)
			for i := range prompts {
				prompts[i] = workload.NewGenerator(int64(i+1)).Prompt(8, w.Config.Vocab)
			}
			tokS, pre, err := decodeTokS(eng, prompts, newTokens, reps)
			if err != nil {
				return err
			}
			pt := enginePoint{Family: famName, Kernel: kern.String(), Batch: batch,
				PromptLen: 8, NewTokens: newTokens, Reps: reps, DecodeTokS: tokS, PrefillS: pre}
			rep.EngineSweep = append(rep.EngineSweep, pt)
			fmt.Printf("%-8s %-20s %6d  %12.1f  %12.3f\n", famName, pt.Kernel, batch, tokS, pre*1e3)
		}
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonPath)
	}
	// A vector routine that loses to the loop it replaces is a regression,
	// whatever the sweep's noise: fail the run (CI runs the -short one).
	if h.SIMD != "generic" {
		for _, p := range rep.OpSweep {
			if p.SIMD.Seconds > p.GoLoop.Seconds {
				return fmt.Errorf("op sweep: %s %s is slower as shipped (%.2f us) than its Go loop (%.2f us)",
					p.Op, p.Shape, p.SIMD.Seconds*1e6, p.GoLoop.Seconds*1e6)
			}
		}
	}
	return nil
}

// decodeTokS measures decode tokens/second and prefill seconds for one
// engine as the medians over `reps` Generate runs.
func decodeTokS(e *engine.Engine, prompts [][]int, maxNew, reps int) (tokS, prefill float64, err error) {
	decode, pre := make([]float64, reps), make([]float64, reps)
	for r := 0; r < reps; r++ {
		_, st, gerr := e.Generate(prompts, maxNew)
		if gerr != nil {
			return 0, 0, gerr
		}
		decode[r], pre[r] = st.DecodeSeconds, st.PrefillSeconds
	}
	sort.Float64s(decode)
	sort.Float64s(pre)
	return float64(len(prompts)*(maxNew-1)) / median(decode), median(pre), nil
}
