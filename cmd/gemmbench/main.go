// Command gemmbench measures this host's roofline (a STREAM-triad GB/s,
// and a GFLOP/s ceiling for every instruction mix the SIMD level can
// issue) and sweeps decode and prefill shapes (M ∈ {1,4,8,16,32,64,128})
// against it: the packed GEMM on the portable Go loop, as the SIMD level
// below the host's ships it, and as shipped (SIMD micro-kernel + pool),
// all three timed in the same interleaved rounds, each as achieved GFLOP/s
// and GB/s and held to the ceiling of the mix it runs as. It also sweeps
// the vector ops around the GEMMs (attention score and weighted-V, ReLU,
// bias add, bf16 rounding: Go loop vs SIMD), breaks a batch-1 and a
// batch-4 decode step and a 4×32 prefill of the benchmark's OPT model and
// of a GQA LLaMA of its widths down by operator class, read off the
// engine's own class clocks, and runs the tiny functional engine end to
// end — the software analog of the paper's throughput-vs-batch curves.
// The run fails if a point reads above 105 % of its ceiling, a SIMD op
// loses to its Go loop or a step leaves more than 10 % of its time to no
// class; a SIMD level that loses to the one below it on an M ≥ 4 row
// fails the -short run and is reported by the full one. -json writes the
// results to a file (the perf-trajectory artifact `make bench-decode`
// stores as BENCH_decode.json).
//
// With -spec it instead runs the real speculative decoder (a draft's
// proposals, steered to each acceptance rate, verified in one fused pass)
// against the fused greedy baseline on every kernel tier, wall-timed, and
// fails unless every point's output is bit-identical to the baseline's
// (BENCH_specdec.json). What speculation would gain on the paper's CPU is
// priced by internal/specdec, not here.
//
// With -serving it measures nothing itself: it files two `go test -bench`
// outputs of the serving-path layer benchmarks, a base commit's and this
// checkout's, taken in alternating rounds of one session, as the before
// and after rows of BENCH_serving.json (`make bench-serving`, which runs
// scripts/benchserving.sh).
//
// Usage:
//
//	gemmbench -json BENCH_decode.json
//	gemmbench -short                 # CI-sized variant
//	gemmbench -spec -json BENCH_specdec.json
//	gemmbench -serving -json BENCH_serving.json base.txt change.txt
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func main() {
	spec := flag.Bool("spec", false, "run the speculative-decoding sweep (draft+verify vs fused greedy baseline across kernel tiers and acceptance rates)")
	jsonOut := flag.String("json", "", "write the results to this JSON file")
	short := flag.Bool("short", false, "CI-sized sweep (smaller shapes, fewer reps)")
	serving := flag.Bool("serving", false, "file two `go test -bench` outputs of the serving-path layer benchmarks, named as arguments (base, then this checkout), as before/after rows")
	flag.Parse()

	var err error
	switch {
	case *serving:
		err = runServing(*jsonOut, *short, flag.Args())
	case *spec:
		err = runSpec(*jsonOut, *short)
	default:
		err = runDecode(*jsonOut, *short)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gemmbench:", err)
		os.Exit(1)
	}
}

// specPoint is one speculative-vs-baseline measurement: b prompts decoded
// greedily by the target alone (fused batch decode) vs draft-proposed and
// batch-verified, with the draft steered to the target acceptance rate.
type specPoint struct {
	Kernel        string  `json:"kernel"`
	Batch         int     `json:"batch"`
	Alpha         float64 `json:"alpha"` // steered acceptance target
	Lookahead     int     `json:"lookahead"`
	NewTokens     int     `json:"new_tokens"`
	BaselineTokS  float64 `json:"baseline_toks"`
	SpecTokS      float64 `json:"spec_toks"`
	Speedup       float64 `json:"speedup"`
	MeasuredAlpha float64 `json:"measured_alpha"` // includes post-mismatch tail proposals
	VerifyPasses  int     `json:"verify_passes"`
	BitIdentical  bool    `json:"bit_identical"`
}

// specReport is the BENCH_specdec.json schema: the wall-clock sweep on
// this host's kernels. Its job is the bit-identity proof and the honest
// cost accounting: the bench model fits the last-level cache, where
// batch-1 decode is not bandwidth-bound and a (k+1)-row verification
// costs several decode steps.
type specReport struct {
	GOMAXPROCS   int         `json:"gomaxprocs"`
	Short        bool        `json:"short"`
	DModel       int         `json:"d_model"`
	Layers       int         `json:"layers"`
	DraftLayers  int         `json:"draft_layers"`
	Lookahead    int         `json:"lookahead"`
	MeasuredNote string      `json:"measured_note"`
	Measured     []specPoint `json:"measured"`
}

// runSpec runs the real engines (draft proposals, steered acceptance,
// fused multi-row verification) against the fused greedy baseline,
// wall-timed. Its job is proving bit-identity on every kernel tier and
// charging the honest cost: verification FLOPs scale with rows, so where
// batch-1 decode is not bandwidth-bound (a model that fits the last-level
// cache) speculation loses wall-clock, as the roofline predicts; the
// memory-bound regime where it pays is specdec.Run's. Steering pins the
// measured acceptance at each α while the draft still runs honestly for
// cost; greedy output stays bit-identical to the baseline regardless of
// steering, which each point asserts.
func runSpec(jsonPath string, short bool) error {
	cfg := model.Config{Name: "bench-spec", Family: model.OPT, Layers: 10,
		DModel: 320, Heads: 8, KVHeads: 8, DFF: 1280, Vocab: 512, MaxSeq: 2048}
	batches := []int{1, 2, 4}
	alphas := []float64{0.5, 0.7, 0.9}
	newTokens := 32
	promptLen := 16
	reps := 2
	tiers := []engine.Kernel{engine.KernelBlocked, engine.KernelParallel,
		engine.KernelTileBF16, engine.KernelTileBF16Parallel, engine.KernelInt8}
	if short {
		cfg.Layers, cfg.DModel, cfg.DFF = 6, 192, 768
		batches = []int{1, 2}
		alphas = []float64{0.7}
		newTokens = 16
		tiers = []engine.Kernel{engine.KernelTileBF16Parallel}
	}
	dcfg := cfg
	dcfg.Name = "bench-spec-draft"
	dcfg.Layers = 1
	const lookahead = 4

	rep := specReport{GOMAXPROCS: runtime.GOMAXPROCS(0), Short: short,
		DModel: cfg.DModel, Layers: cfg.Layers, DraftLayers: dcfg.Layers,
		Lookahead: lookahead,
		MeasuredNote: "wall-clock on this host's packed kernels (SIMD where " +
			"present); asserts bit-identity per point and charges the draft " +
			"honestly. Speculation pays only where batch-1 decode is " +
			"bandwidth-bound; this 25 MB bench model sits in a server's " +
			"last-level cache, where a (k+1)-row verification costs " +
			"several decode steps"}
	pool := kernels.NewPool(0)
	defer pool.Close()

	fmt.Printf("speculative decode sweep  (d=%d L=%d draft-L=%d k=%d, %d new tokens, best of %d reps)\n",
		cfg.DModel, cfg.Layers, dcfg.Layers, lookahead, newTokens, reps)
	fmt.Printf("%-22s %6s %6s  %14s  %14s  %8s  %6s\n",
		"kernel", "batch", "alpha", "baseline tok/s", "spec tok/s", "speedup", "ident")
	for _, kern := range tiers {
		tw, err := engine.NewWeights(cfg, 42, tensor.BF16)
		if err != nil {
			return err
		}
		dw, err := engine.NewWeights(dcfg, 43, tensor.BF16)
		if err != nil {
			return err
		}
		if kern == engine.KernelInt8 {
			tw.QuantizeAll()
			dw.QuantizeAll()
		}
		target, err := engine.New(tw, engine.Options{Kernel: kern, Pool: pool})
		if err != nil {
			return err
		}
		draft, err := engine.New(dw, engine.Options{Kernel: kern, Pool: pool})
		if err != nil {
			return err
		}
		for _, batch := range batches {
			prompts := seededPrompts(batch, promptLen, cfg.Vocab)
			// Fused greedy baseline: one batched Generate, wall-timed
			// end to end; its outputs are the steering reference and the
			// bit-identity oracle.
			var ref [][]int
			baseWall := bestOf(reps, func() {
				out, _, gerr := target.Generate(prompts, newTokens)
				if gerr != nil {
					err = gerr
					return
				}
				ref = out
			})
			if err != nil {
				return err
			}
			baseTokS := float64(batch*newTokens) / baseWall
			for _, alpha := range alphas {
				var st engine.SpecStats
				identical := true
				specWall := bestOf(reps, func() {
					st = engine.SpecStats{}
					for i, prompt := range prompts {
						rng := rand.New(rand.NewSource(int64(1000*alpha) + int64(i)))
						out, s, serr := engine.SpeculativeGenerate(target, draft, prompt, newTokens,
							engine.SpecOptions{Lookahead: lookahead,
								Steer: steerTo(ref[i], rng, alpha, cfg.Vocab)})
						if serr != nil {
							err = serr
							return
						}
						st.Proposed += s.Proposed
						st.Accepted += s.Accepted
						st.TargetPasses += s.TargetPasses
						if !slices.Equal(out, ref[i]) {
							identical = false
						}
					}
				})
				if err != nil {
					return err
				}
				specTokS := float64(batch*newTokens) / specWall
				pt := specPoint{
					Kernel: kern.String(), Batch: batch, Alpha: alpha,
					Lookahead: lookahead, NewTokens: newTokens,
					BaselineTokS: baseTokS, SpecTokS: specTokS,
					Speedup:       specTokS / baseTokS,
					MeasuredAlpha: st.AcceptanceRate(),
					VerifyPasses:  st.TargetPasses,
					BitIdentical:  identical,
				}
				rep.Measured = append(rep.Measured, pt)
				fmt.Printf("%-22s %6d %6.2f  %14.1f  %14.1f  %7.2fx  %6v\n",
					pt.Kernel, batch, alpha, baseTokS, specTokS, pt.Speedup, identical)
				if !identical {
					return fmt.Errorf("speculative output diverged from greedy baseline on %s batch %d alpha %.2f",
						pt.Kernel, batch, alpha)
				}
			}
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
	return nil
}

// steerTo returns a Steer function pinning acceptance near alpha: each
// proposal is the known-correct baseline token with probability alpha and
// a guaranteed-wrong token otherwise. Only the first wrong token per
// cycle matters (the verification pass discards the rest), so the leading
// accepted run is Bernoulli(alpha), matching the specdec model.
func steerTo(ref []int, rng *rand.Rand, alpha float64, vocab int) func(outLen, i, proposed int) int {
	return func(outLen, i, proposed int) int {
		pos := outLen + i
		if pos >= len(ref) {
			return proposed
		}
		if rng.Float64() < alpha {
			return ref[pos]
		}
		wrong := ref[pos] + 1
		if wrong >= vocab {
			wrong = 0
		}
		return wrong
	}
}

func bestOf(reps int, f func()) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		f()
		el := time.Since(start).Seconds()
		if best == 0 || el < best {
			best = el
		}
	}
	return best
}

// seededPrompts returns batch prompts of n tokens, prompt i from seed i+1.
func seededPrompts(batch, n, vocab int) [][]int {
	p := make([][]int, batch)
	for i := range p {
		p[i] = workload.NewGenerator(int64(i+1)).Prompt(n, vocab)
	}
	return p
}

func randMat(r *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32(r.NormFloat64())
	}
	return m
}
