package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/kernels"
	"repro/internal/model"
)

// stepModels are the models the step breakdown runs: the repository
// benchmark's OPT (bench/engine.go), which the op sweep is shaped after
// too, and a LLaMA-2 of the same widths with grouped-query attention (8
// query heads over 2 KV heads), so that RoPE, SwiGLU and GQA are broken
// down as well.
var stepModels = []model.Config{
	{Name: "bench-OPT", Family: model.OPT, Layers: 4, DModel: 256, Heads: 8, KVHeads: 8, DFF: 1024, Vocab: 2048, MaxSeq: 512},
	{Name: "bench-LLaMA-GQA", Family: model.LLaMA2, Layers: 4, DModel: 256, Heads: 8, KVHeads: 2, DFF: 1024, Vocab: 2048, MaxSeq: 512},
}

// opSet is the vector ops one way: the Go loops, or as shipped.
type opSet struct {
	relu      func(x []float32)
	add       func(dst, src []float32)
	round     func(dst, src []float32)
	dotRows   func(q, rows []float32, stride, n int, scale float32, out []float32)
	accumRows func(out, w, rows []float32, stride int)
	softmax   func(x []float32)
	norm      func(dst, x, gain, bias []float32, eps float32)
	mul       func(dst, src []float32)
}

var (
	goOps = opSet{kernels.ReLUGo, kernels.AddGo, kernels.RoundBF16IntoGo,
		kernels.DotRowsGo, kernels.AccumRowsGo, kernels.SoftmaxGo, kernels.LayerNormGo,
		kernels.MulGo}
	simdOps = opSet{kernels.ReLU, kernels.Add,
		func(dst, src []float32) { kernels.RoundBF16Into(dst, src) },
		kernels.DotRows, kernels.AccumRows, kernels.Softmax, kernels.LayerNorm,
		kernels.Mul}
)

// opRate is one way of running one op: seconds per call (median, spread)
// and the bytes it reads and writes per second against the host's triad.
type opRate struct {
	Seconds    float64 `json:"seconds"`
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	GBs        float64 `json:"gbs"`
	PctTriad   float64 `json:"pct_of_triad_ceiling"`
}

// opPoint is one vector op at one size, Go loop (before) against the
// shipped routine (after). The score rows carry a third column: the same
// scores from keys stored position-blocked (a packed panel of 16 positions
// per row, read by the GEMV micro-kernel) — the layout the engine did not
// adopt, kept measured so the choice stays checkable.
type opPoint struct {
	Op       string  `json:"op"`
	Shape    string  `json:"shape"`
	Reps     int     `json:"reps"`
	GoLoop   opRate  `json:"go_loop"`
	SIMD     opRate  `json:"simd"`
	Speedup  float64 `json:"speedup"`
	BlockedK *opRate `json:"position_blocked_k,omitempty"`
}

// interleave times each of fs reps times, round-robin so that a slow
// phase of the host falls on all of them alike, after one untimed round.
// Every other round goes backwards, so that no f always runs right after
// the same one. prep (optional) runs untimed before every call, given the
// index of the f to come: in-place ops get their operands restored. It
// returns each f's sorted wall times.
func interleave(reps int, prep func(i int), fs ...func()) [][]float64 {
	times := make([][]float64, len(fs))
	for r := 0; r <= reps; r++ {
		for j := range fs {
			i := j
			if r%2 == 1 {
				i = len(fs) - 1 - j
			}
			if prep != nil {
				prep(i)
			}
			start := time.Now()
			fs[i]()
			if r > 0 {
				times[i] = append(times[i], time.Since(start).Seconds())
			}
		}
	}
	for _, t := range times {
		sort.Float64s(t)
	}
	return times
}

func (h hostBlock) opRate(times []float64, calls int, bytes float64) opRate {
	per := func(t float64) float64 { return t / float64(calls) }
	r := opRate{Seconds: per(median(times)), MinSeconds: per(times[0]), MaxSeconds: per(times[len(times)-1])}
	r.GBs = bytes / r.Seconds / 1e9
	r.PctTriad = 100 * r.GBs / h.TriadGBs
	return r
}

// opSweep times every vector op as a Go loop and as shipped.
func opSweep(h hostBlock, reps int) []opPoint {
	cfg := stepModels[0]
	hd, kvDim, heads := cfg.HeadDim(), cfg.KVDim(), cfg.Heads
	rng := rand.New(rand.NewSource(2))
	var pts []opPoint
	add := func(p opPoint) {
		p.Reps, p.Speedup = reps, p.GoLoop.Seconds/p.SIMD.Seconds
		pts = append(pts, p)
		blocked := ""
		if p.BlockedK != nil {
			blocked = fmt.Sprintf("   position-blocked K %8.2f us", p.BlockedK.Seconds*1e6)
		}
		fmt.Printf("%-12s %-22s %10.2f us %6.1f GB/s  %10.2f us %6.1f GB/s  %6.1fx%s\n",
			p.Op, p.Shape, p.GoLoop.Seconds*1e6, p.GoLoop.GBs, p.SIMD.Seconds*1e6, p.SIMD.GBs, p.Speedup, blocked)
	}

	// Attention: one query row against ctx cached positions, every head —
	// one (sequence, row) unit of a layer.
	for _, ctx := range []int{64, 512} {
		rows, q := randMat(rng, ctx*kvDim), randMat(rng, heads*hd)
		sc, out := make([]float32, ctx), make([]float32, heads*hd)
		calls := 4096 / ctx
		shape := fmt.Sprintf("ctx %d, %d heads × %d", ctx, heads, hd)
		bytes := float64(4 * (ctx*kvDim + heads*ctx)) // keys or values in, scores out or in
		score := func(ops opSet) func() {
			return func() {
				for c := 0; c < calls; c++ {
					for hh := 0; hh < heads; hh++ {
						ops.dotRows(q[hh*hd:(hh+1)*hd], rows[hh*hd:], kvDim, ctx, 0.17, sc)
					}
				}
			}
		}
		// The alternative layout: per head, keys packed 16 positions per
		// panel row — scores are then a GEMV over the pack.
		packs := make([]*kernels.PackedB, heads)
		for hh := range packs {
			head := make([]float32, ctx*hd)
			for t := 0; t < ctx; t++ {
				copy(head[t*hd:(t+1)*hd], rows[t*kvDim+hh*hd:])
			}
			packs[hh] = kernels.PackBTrans(hd, ctx, head)
		}
		t := interleave(reps, nil, score(goOps), score(simdOps), func() {
			for c := 0; c < calls; c++ {
				for hh := 0; hh < heads; hh++ {
					kernels.GemvPacked(q[hh*hd:(hh+1)*hd], packs[hh], sc)
				}
			}
		})
		blocked := h.opRate(t[2], calls, bytes)
		add(opPoint{Op: "score", Shape: shape, GoLoop: h.opRate(t[0], calls, bytes),
			SIMD: h.opRate(t[1], calls, bytes), BlockedK: &blocked})

		w := randMat(rng, ctx)
		wv := func(ops opSet) func() {
			return func() {
				for c := 0; c < calls; c++ {
					for hh := 0; hh < heads; hh++ {
						ops.accumRows(out[hh*hd:(hh+1)*hd], w, rows[hh*hd:], kvDim)
					}
				}
			}
		}
		t = interleave(reps, nil, wv(goOps), wv(simdOps))
		add(opPoint{Op: "weighted-v", Shape: shape, GoLoop: h.opRate(t[0], calls, bytes), SIMD: h.opRate(t[1], calls, bytes)})

		// Softmax over every head's scores, restored before each timed run
		// (the calls within one run see the previous call's probabilities).
		logits := randMat(rng, heads*ctx)
		probs := make([]float32, heads*ctx)
		sm := func(ops opSet) func() {
			return func() {
				for c := 0; c < calls; c++ {
					for hh := 0; hh < heads; hh++ {
						ops.softmax(probs[hh*ctx : (hh+1)*ctx])
					}
				}
			}
		}
		smBytes := float64(8 * heads * ctx)
		t = interleave(reps, func(int) { copy(probs, logits) }, sm(goOps), sm(simdOps))
		add(opPoint{Op: "softmax", Shape: fmt.Sprintf("ctx %d, %d heads", ctx, heads),
			GoLoop: h.opRate(t[0], calls, smBytes), SIMD: h.opRate(t[1], calls, smBytes)})
	}

	// Prefill attention as the engine runs it: one sequence's 32-row
	// prompt, every head a HeadBlock over its keys and values — scores,
	// softmax, weighted V — the Go loops against the shipped routines.
	{
		const rows = 32
		d := cfg.DModel
		q, kc, vc := randMat(rng, rows*d), randMat(rng, rows*kvDim), randMat(rng, rows*kvDim)
		att, sc, kt := make([]float32, rows*d), make([]float32, rows*rows), make([]float32, 16*hd)
		scale := float32(1 / math.Sqrt(float64(hd)))
		block := func(goLoops bool) func() {
			return func() {
				for hh := 0; hh < heads; hh++ {
					b := kernels.HeadBlock{Rows: rows, Cols: hd, Scale: scale, Q: q[hh*hd:], QStride: d,
						S: sc, SStride: rows, Out: att[hh*hd:], OutStride: d, KT: kt}
					if goLoops {
						b.ScoresGo(kc[hh*hd:], kvDim, 0, rows)
						b.SoftmaxGo()
						b.AccumGo(vc[hh*hd:], kvDim, 0, rows)
					} else {
						b.Scores(kc[hh*hd:], kvDim, 0, rows)
						b.Softmax()
						b.Accum(vc[hh*hd:], kvDim, 0, rows)
					}
				}
			}
		}
		bytes := float64(4 * (2*rows*kvDim + 2*rows*d)) // keys and values, queries in, outputs out
		t := interleave(reps, nil, block(true), block(false))
		add(opPoint{Op: "prefill-attn", Shape: fmt.Sprintf("%d rows, %d heads × %d", rows, heads, hd),
			GoLoop: h.opRate(t[0], 1, bytes), SIMD: h.opRate(t[1], 1, bytes)})
	}

	// LayerNorm at the 4×32 prefill's hidden width: [128, d], rows read
	// from the residual stream and written to the normalized copy.
	{
		m, d := 128, cfg.DModel
		x, y, gain, bias := randMat(rng, m*d), make([]float32, m*d), randMat(rng, d), randMat(rng, d)
		ln := func(ops opSet) func() {
			return func() {
				for i := 0; i < m; i++ {
					ops.norm(y[i*d:(i+1)*d], x[i*d:(i+1)*d], gain, bias, 1e-5)
				}
			}
		}
		t := interleave(reps, nil, ln(goOps), ln(simdOps))
		add(opPoint{Op: "layernorm", Shape: fmt.Sprintf("[%d, %d]", m, d),
			GoLoop: h.opRate(t[0], 1, float64(8*m*d)), SIMD: h.opRate(t[1], 1, float64(8*m*d))})
	}

	// Element-wise ops at the 4×32 prefill's FFN width: [128, dff].
	m, dff := 128, cfg.DFF
	n := m * dff
	src, dst, bias := randMat(rng, n), make([]float32, n), randMat(rng, dff)
	elementwise := func(op string, prep func(int), f func(ops opSet)) {
		t := interleave(reps, prep, func() { f(goOps) }, func() { f(simdOps) })
		add(opPoint{Op: op, Shape: fmt.Sprintf("[%d, %d]", m, dff),
			GoLoop: h.opRate(t[0], 1, float64(8*n)), SIMD: h.opRate(t[1], 1, float64(8*n))})
	}
	// ReLU works in place and its Go loop branches on the sign: restore the
	// operand each time, or every call after the first sees no negatives.
	elementwise("relu", func(int) { copy(dst, src) }, func(ops opSet) { ops.relu(dst) })
	elementwise("bias-add", nil, func(ops opSet) {
		for i := 0; i < m; i++ {
			ops.add(dst[i*dff:(i+1)*dff], bias)
		}
	})
	elementwise("bf16-round", nil, func(ops opSet) { ops.round(dst, src) })
	// The SwiGLU gate times its up projection, restored each time (the
	// product would otherwise run to zero or Inf).
	up := randMat(rng, n)
	elementwise("mul", func(int) { copy(dst, src) }, func(ops opSet) { ops.mul(dst, up) })

	// Packing the bench model's FFN weight for the tile tiers, as engine
	// construction does once per linear: the Go loop over float32 weights,
	// and as shipped from a BF16 model's 16-bit store (PackBBF16Bits, what
	// engine.New runs). Each side's bytes are what it reads and writes.
	{
		k, n := cfg.DModel, cfg.DFF
		b, bits := randMat(rng, k*n), make([]uint16, k*n)
		kernels.NarrowBF16(bits, b)
		t := interleave(reps, nil, func() { kernels.PackBBF16Go(k, n, b) }, func() { kernels.PackBBF16Bits(k, n, bits) })
		add(opPoint{Op: "pack-bf16", Shape: fmt.Sprintf("%d × %d", k, n),
			GoLoop: h.opRate(t[0], 1, float64(6*k*n)), SIMD: h.opRate(t[1], 1, float64(4*k*n))})
	}
	return pts
}
