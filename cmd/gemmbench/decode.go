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

// mixCeiling is the compute ceiling of one instruction mix the running
// SIMD level can issue (kernels.Mixes): kernels.MulAddPeak timed on one
// thread and on all of them. Each figure is the best of every reading
// taken during the run — before the sweep, after it, and (one thread)
// beside every run of every kernel point of the mix — because the sandbox's speed
// drifts by a third within a run and a ceiling read once, on a slow
// second, is not one. Ceiling is the larger of the two figures (the vCPUs
// do not always run at once, so all threads can read below one).
type mixCeiling struct {
	Mix     string  `json:"mix"`
	GFLOPs1 float64 `json:"gflops_1thread"`
	GFLOPs  float64 `json:"gflops"`
	Ceiling float64 `json:"ceiling_gflops"`
}

// hostBlock is the measured roofline of the machine the sweep ran on: the
// ceilings every kernel point is held against, on one thread and on all
// GOMAXPROCS of them.
type hostBlock struct {
	hostID
	// STREAM triad a[i] = b[i] + s·c[i] over TriadMB of float32 (three
	// arrays, well past L2), 12 bytes per element, best of 5 passes.
	TriadMB   int     `json:"triad_working_set_mb"`
	TriadGBs1 float64 `json:"triad_gbs_1thread"`
	TriadGBs  float64 `json:"triad_gbs"`
	// Mixes has one ceiling per mix, narrowest first; a kernel point is
	// held against the ceiling of the mix its kernel runs as.
	Mixes []mixCeiling `json:"mix_ceilings"`
}

// ceiling returns the entry for mix.
func (h *hostBlock) ceiling(mix string) *mixCeiling {
	for i := range h.Mixes {
		if h.Mixes[i].Mix == mix {
			return &h.Mixes[i]
		}
	}
	panic("gemmbench: no ceiling for mix " + mix)
}

// readPeak times MulAddPeak for mix on `threads` threads, best of `passes`,
// and folds the reading into the mix's ceiling.
func (h *hostBlock) readPeak(mix string, threads, passes, iters int) {
	if mix == kernels.MixGo {
		iters /= 10
	}
	c := h.ceiling(mix)
	for pass := 0; pass < passes; pass++ {
		var flops int64
		el := onThreads(threads, func(t int) {
			f := kernels.MulAddPeak(iters, mix)
			if t == 0 {
				flops = f
			}
		})
		g := float64(flops) * float64(threads) / el / 1e9
		if threads == 1 {
			c.GFLOPs1 = max(c.GFLOPs1, g)
		} else {
			c.GFLOPs = max(c.GFLOPs, g)
		}
	}
	c.Ceiling = max(c.GFLOPs1, c.GFLOPs)
}

// readPeaks takes every mix's ceiling on one thread and on all: once
// before the sweep and once after it.
func (h *hostBlock) readPeaks(short bool) {
	iters := 20_000_000
	if short {
		iters /= 10
	}
	for i := range h.Mixes {
		mix := h.Mixes[i].Mix
		h.readPeak(mix, 1, 3, iters)
		h.readPeak(mix, h.GOMAXPROCS, 3, iters)
	}
}

// kernelRate is one way of computing one kernel point: the median of the
// repetitions as time and as achieved rates, the spread, and the share of
// each host ceiling the median reaches — the compute ceiling being that of
// the instruction mix the kernel ran as. A point far below both ceilings
// is bound by neither (dispatch, latency); GB/s above the triad ceiling
// means the operands were cache-resident.
type kernelRate struct {
	Mix        string  `json:"mix"`
	Seconds    float64 `json:"seconds"`
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	GFLOPs     float64 `json:"gflops"`
	GBs        float64 `json:"gbs"`
	PctMulAdd  float64 `json:"pct_of_muladd_ceiling"`
	PctTriad   float64 `json:"pct_of_triad_ceiling"`
}

// kernelPoint is one decode-shape GEMM, M rows × a [k,n] weight, computed
// on three SIMD levels in the same interleaved rounds: the Go loop, the
// level below the host's (benchReport.BelowSIMD) and the host's.
type kernelPoint struct {
	Tier         string     `json:"tier"`
	M            int        `json:"m"`
	K            int        `json:"k"`
	N            int        `json:"n"`
	WeightMB     float64    `json:"weight_mb"` // packed bytes streamed per call
	Reps         int        `json:"reps"`
	PackedScalar kernelRate `json:"packed_scalar"` // packed, portable Go loop, serial
	// PackedBelow is the same pack as the level below the host's ships it
	// (micro-kernel + pool); absent where that level is the Go loop.
	PackedBelow *kernelRate `json:"packed_below,omitempty"`
	Packed      kernelRate  `json:"packed"` // packed as shipped: micro-kernel + pool
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
	Host  hostBlock `json:"host"`
	Short bool      `json:"short"`
	// BelowSIMD is the level the packed_below rows ran at.
	BelowSIMD   string        `json:"below_simd,omitempty"`
	KernelSweep []kernelPoint `json:"kernel_sweep"`
	// OpSweep times the vector ops around the GEMMs (ops.go);
	// StepBreakdown splits whole engine steps by operator class (steps.go).
	OpSweep       []opPoint       `json:"op_sweep"`
	StepBreakdown []stepBreakdown `json:"step_breakdown"`
	EngineSweep   []enginePoint   `json:"engine_sweep"`
	// BuildSplit is the benchmark model's construction, step by step
	// (build.go).
	BuildSplit buildSplit `json:"build_split"`
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

// measureHost takes the bandwidth ceiling and a first reading of every
// compute ceiling, on one thread and on all.
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
	h.TriadGBs1, h.TriadGBs = triad(1), triad(h.GOMAXPROCS)
	for _, mix := range kernels.Mixes() {
		h.Mixes = append(h.Mixes, mixCeiling{Mix: mix})
	}
	h.readPeaks(short)
	return h
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// rate turns a kernel's sorted run times into its achieved rates. The share
// of the mix's ceiling is filled in by holdToCeilings once the ceilings are
// final.
func (h *hostBlock) rate(mix string, times []float64, flops, bytes float64) kernelRate {
	med := median(times)
	r := kernelRate{Mix: mix, Seconds: med, MinSeconds: times[0], MaxSeconds: times[len(times)-1],
		GFLOPs: flops / med / 1e9, GBs: bytes / med / 1e9}
	r.PctTriad = 100 * r.GBs / h.TriadGBs
	return r
}

// overCeiling is how far above its compute ceiling a point's median may
// read before the run fails: a ceiling is a ceiling.
const overCeiling = 105

// holdToCeilings fills every measured rate's share of its mix's ceiling
// and reports the first one above overCeiling percent.
func (rep *benchReport) holdToCeilings() error {
	var err error
	for i := range rep.KernelSweep {
		pt := &rep.KernelSweep[i]
		for _, r := range []*kernelRate{&pt.PackedScalar, pt.PackedBelow, &pt.Packed} {
			if r == nil {
				continue
			}
			c := rep.Host.ceiling(r.Mix)
			r.PctMulAdd = 100 * r.GFLOPs / c.Ceiling
			if r.PctMulAdd > overCeiling && err == nil {
				err = fmt.Errorf("kernel sweep: %s %d×%d M=%d runs at %.1f GFLOP/s, %.0f %% of the %s ceiling (%.1f)",
					pt.Tier, pt.K, pt.N, pt.M, r.GFLOPs, r.PctMulAdd, r.Mix, c.Ceiling)
			}
		}
	}
	return err
}

// levelBelow maps a SIMD level to the one below it, as kernels.LimitSIMD
// names them: the level of the packed_below rows. The avx2 level has none
// there: the one below it is the Go loop, which packed_scalar times.
var levelBelow = map[string]string{"amx": "avx512", "avx512": "avx2"}

// atLevel has the kernels run at level, one kernels.LimitSIMD takes, until
// the next call.
func atLevel(level string) {
	if err := kernels.LimitSIMD(level); err != nil {
		panic(err)
	}
}

// levelsInOrder reports the first M ≥ 4 point on which a SIMD level is
// slower than the level below it: the Go loop, the level below the host's,
// the host's, all timed in the same rounds. The host's level is held to the
// one below only where the two run different instruction mixes: the same
// mix is the same kernel (an FP32 pack's on the amx level is avx512's), and
// two readings of it differ by noise alone — those rows are the file's own
// A/A noise floor.
func (rep *benchReport) levelsInOrder() error {
	for _, pt := range rep.KernelSweep {
		if pt.M < 4 || rep.Host.SIMD == "generic" {
			continue
		}
		name := fmt.Sprintf("%s %d×%d M=%d", pt.Tier, pt.K, pt.N, pt.M)
		below, belowName := pt.PackedScalar.Seconds, "the Go loop"
		if b := pt.PackedBelow; b != nil {
			if b.Seconds > below {
				return fmt.Errorf("kernel sweep: %s: %s (%.1f us) is slower than %s (%.1f us)",
					name, rep.BelowSIMD, b.Seconds*1e6, belowName, below*1e6)
			}
			if b.Mix != pt.Packed.Mix {
				below, belowName = b.Seconds, rep.BelowSIMD
			}
		}
		if pt.Packed.Seconds > below {
			return fmt.Errorf("kernel sweep: %s: %s (%.1f us) is slower than %s (%.1f us)",
				name, rep.Host.SIMD, pt.Packed.Seconds*1e6, belowName, below*1e6)
		}
	}
	return nil
}

func runDecode(jsonPath string, short bool) error {
	batches := []int{1, 4, 8, 16, 32}
	// The kernel sweep goes on to M = 64 and 128: what the benchmark's
	// batch-4 prefill issues (a 4 × 32 prompt whole, and its two row bands).
	ms := []int{1, 4, 8, 16, 32, 64, 128}
	// The bench model's FFN weight (cache-resident) and one well past L2.
	shapes := []struct{ k, n int }{{256, 1024}, {1024, 4096}}
	reps := 7
	newTokens := 24
	if short {
		batches = []int{1, 8}
		ms = batches
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
	h := &rep.Host
	rep.BelowSIMD = levelBelow[h.SIMD]
	fmt.Printf("host  %s/%s  GOMAXPROCS=%d  triad %.1f GB/s (1 thread %.1f)\n",
		h.GOARCH, h.SIMD, h.GOMAXPROCS, h.TriadGBs, h.TriadGBs1)

	// Every point is built first and the repetitions then go round all of
	// them (interleave), so that a point's samples are seconds apart: the
	// sandbox's slow phases last longer than a point's seven back-to-back
	// runs would, and would otherwise sink whole rows — and so that the
	// level below is read in the same rounds as the host's, not in another
	// session's.
	rng := rand.New(rand.NewSource(1))
	pool := kernels.NewPool(0)
	defer pool.Close()
	perPoint := 2 // runs: the Go loop, as shipped, and the level below if any
	if rep.BelowSIMD != "" {
		perPoint = 3
	}
	var (
		runs   []func() // perPoint per point
		levels []string // the SIMD level each of runs executes at
		mixes  []string // and the mix it executes as
		work   [][2]float64
		// shippedCalls is how many GEMMs a run of a SIMD side makes.
		shippedCalls []int
	)
	for _, sh := range shapes {
		k, n := sh.k, sh.n
		b := randMat(rng, k*n)
		for _, tierName := range []string{"tile-bf16", "blocked-fp32"} {
			pb := kernels.PackB(k, n, b)
			if tierName == "tile-bf16" {
				pb = kernels.PackBBF16(k, n, b)
			}
			job := new(kernels.PackedJob)
			for _, m := range ms {
				a, c := randMat(rng, m*k), make([]float32, m*n)
				rep.KernelSweep = append(rep.KernelSweep, kernelPoint{Tier: tierName, M: m, K: k, N: n, Reps: reps,
					WeightMB: float64(pb.Bytes()) / (1 << 20)})
				// A timed run of a SIMD side is a few calls back to back when
				// one is short (an M = 8 GEMM is 30 µs): long enough for a clock
				// that has just changed licence to have settled.
				calls := max(1, min(16, (1<<23)/(m*k*n)))
				shipped := func() {
					for range calls {
						kernels.GemmPackedPooled(pool, job, m, a, pb, c)
					}
				}
				runs = append(runs, func() { kernels.GemmPackedGeneric(m, a, pb, c) }, shipped)
				levels = append(levels, h.SIMD, h.SIMD)
				mixes = append(mixes, kernels.MixGo, pb.Mix(m))
				if below := rep.BelowSIMD; below != "" {
					atLevel(below)
					runs, levels, mixes = append(runs, shipped), append(levels, below), append(mixes, pb.Mix(m))
					atLevel(h.SIMD)
				}
				shippedCalls = append(shippedCalls, calls)
				work = append(work, [2]float64{
					2 * float64(m) * float64(n) * float64(k),  // flops
					float64(pb.Bytes()) + float64(4*m*(k+n))}) // bytes: weights + activations in, outputs out
			}
		}
	}
	times := interleave(reps, func(i int) {
		// The coming run's level; a short reading of its ceiling, right
		// beside it; then the run once untimed if it is a SIMD side, so that
		// it is timed as the back-to-back repetitions of earlier artifacts
		// were: operands as warm as their size allows.
		atLevel(levels[i])
		h.readPeak(mixes[i], 1, 1, 200_000)
		if i%perPoint != 0 {
			runs[i]()
		}
	}, runs...)
	atLevel(h.SIMD)
	fmt.Printf("decode-shape kernel sweep  (median of %d interleaved reps; GFLOP/s | GB/s)\n", reps)
	fmt.Printf("%-13s %-10s %3s  %15s  %15s  %15s  %7s\n",
		"tier", "k×n", "M", "packed scalar", "below: "+rep.BelowSIMD, "packed", "vs scal")
	for i := range rep.KernelSweep {
		pt := &rep.KernelSweep[i]
		side := func(j int) kernelRate { // run j of the point's, per GEMM
			r := perPoint*i + j
			if j > 0 {
				for t := range times[r] {
					times[r][t] /= float64(shippedCalls[i])
				}
			}
			return h.rate(mixes[r], times[r], work[i][0], work[i][1])
		}
		pt.PackedScalar, pt.Packed = side(0), side(1)
		if perPoint == 3 {
			below := side(2)
			pt.PackedBelow = &below
		}
		pt.SIMDSpeedup = pt.PackedScalar.Seconds / pt.Packed.Seconds
		cell := func(r *kernelRate) string {
			if r == nil {
				return "-"
			}
			return fmt.Sprintf("%6.2f | %6.2f", r.GFLOPs, r.GBs)
		}
		fmt.Printf("%-13s %-10s %3d  %15s  %15s  %15s  %6.1fx\n",
			pt.Tier, fmt.Sprintf("%d×%d", pt.K, pt.N), pt.M,
			cell(&pt.PackedScalar), cell(pt.PackedBelow), cell(&pt.Packed), pt.SIMDSpeedup)
	}

	fmt.Printf("\nvector op sweep  (median of %d reps; per call: Go loop | as shipped)\n", reps)
	rep.OpSweep = opSweep(*h, reps)
	if rep.BuildSplit, err = measureBuild(reps); err != nil {
		return err
	}

	// The engine points, like the kernel points, are built first and timed
	// round-robin, so that the rows of one take compare.
	families := []model.Family{model.LLaMA2}
	if !short {
		families = append(families, model.OPT)
	}
	kern := engine.KernelTileBF16
	var gens []func()
	var decode, prefill [][]float64
	var genErr error
	for _, fam := range families {
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
			prompts := seededPrompts(batch, 8, w.Config.Vocab)
			i := len(gens)
			decode, prefill = append(decode, nil), append(prefill, nil)
			gens = append(gens, func() {
				_, st, err := eng.Generate(prompts, newTokens)
				if err != nil {
					genErr = err
				}
				decode[i], prefill[i] = append(decode[i], st.DecodeSeconds), append(prefill[i], st.PrefillSeconds)
			})
			rep.EngineSweep = append(rep.EngineSweep, enginePoint{Family: famName, Kernel: kern.String(), Batch: batch,
				PromptLen: 8, NewTokens: newTokens, Reps: reps})
		}
	}
	interleave(reps, nil, gens...)
	if genErr != nil {
		return genErr
	}
	fmt.Printf("\ntiny-engine decode throughput  (prompt 8, %d new tokens, median of %d interleaved reps)\n", newTokens, reps)
	fmt.Printf("%-8s %-20s %6s  %12s  %12s\n", "family", "kernel", "batch", "decode tok/s", "prefill ms")
	for i := range rep.EngineSweep {
		pt := &rep.EngineSweep[i]
		// The first run of each is interleave's untimed round.
		d, p := decode[i][1:], prefill[i][1:]
		sort.Float64s(d)
		sort.Float64s(p)
		pt.DecodeTokS, pt.PrefillS = float64(pt.Batch*(newTokens-1))/median(d), median(p)
		fmt.Printf("%-8s %-20s %6d  %12.1f  %12.3f\n", pt.Family, pt.Kernel, pt.Batch, pt.DecodeTokS, pt.PrefillS*1e3)
	}

	// The ceilings are final only now: read them once more, then hold every
	// point to its own.
	h.readPeaks(short)
	fmt.Printf("\ncompute ceilings  (GFLOP/s, best reading of the run: 1 thread | %d threads)\n", h.GOMAXPROCS)
	for _, c := range h.Mixes {
		fmt.Printf("  %-14s %7.1f | %7.1f\n", c.Mix, c.GFLOPs1, c.GFLOPs)
	}
	ceilErr := rep.holdToCeilings()

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
	if ceilErr != nil {
		return ceilErr
	}
	// The order is enforced where the gap between levels is structural (the
	// -short sweep's M = 8 rows, 2-3×) and reported on the full sweep, whose
	// rows past L2 put a level's lead inside the rounds' spread.
	if err := rep.levelsInOrder(); err != nil {
		if short {
			return err
		}
		fmt.Println("note:", err)
	}
	// A breakdown that leaves much of a step to no class does not say
	// where the step went.
	for _, bd := range rep.StepBreakdown {
		if bd.UnattributedShare > maxUnattributed {
			return fmt.Errorf("step breakdown: %s %s leaves %.1f %% of its %.3f ms unattributed (at most %.0f %%)",
				bd.Model, bd.Step, 100*bd.UnattributedShare, bd.MeasuredMs, 100*maxUnattributed)
		}
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
