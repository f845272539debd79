package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// stepModel is the model the op sweep and the step breakdown are shaped
// after: the repository benchmark's (bench/engine.go).
var stepModel = model.Config{Name: "bench-OPT", Family: model.OPT,
	Layers: 4, DModel: 256, Heads: 8, KVHeads: 8, DFF: 1024, Vocab: 2048, MaxSeq: 512}

// opSet is the vector ops one way: the Go loops, or as shipped.
type opSet struct {
	relu      func(x []float32)
	add       func(dst, src []float32)
	round     func(dst, src []float32)
	dotRows   func(q, rows []float32, stride, n int, scale float32, out []float32)
	accumRows func(out, w, rows []float32, stride int)
}

var (
	goOps = opSet{kernels.ReLUGo, kernels.AddGo, kernels.RoundBF16IntoGo,
		kernels.DotRowsGo, kernels.AccumRowsGo}
	simdOps = opSet{kernels.ReLU, kernels.Add,
		func(dst, src []float32) { kernels.RoundBF16Into(dst, src) },
		kernels.DotRows, kernels.AccumRows}
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

// classTime is one operator class's share of a step.
type classTime struct {
	Class    string  `json:"class"`
	GoLoopMs float64 `json:"go_loop_ms"`
	SIMDMs   float64 `json:"simd_ms"`
	Share    float64 `json:"share_of_simd_sum"`
}

// stepBreakdown decomposes one engine step into operator classes, each
// class's operators replayed alone at the step's shapes over the step's
// working set (every layer's own weights and KV rows, so a class streams
// what the step streams). go_loop is the way before PR 15: Go-loop ops
// and one GEMM per sequence; simd is the shipped way. MeasuredMs is the
// real engine's step; SumMs/MeasuredMs says how much of it the replay
// accounts for.
type stepBreakdown struct {
	Step       string      `json:"step"`
	Classes    []classTime `json:"classes"`
	SumMs      float64     `json:"simd_sum_ms"`
	MeasuredMs float64     `json:"measured_step_ms"`
}

// interleave times each of fs reps times, round-robin so that a slow
// phase of the host falls on all of them alike, after one untimed round.
// prep (optional) runs untimed before every call: in-place ops get their
// operands restored. It returns each f's sorted wall times.
func interleave(reps int, prep func(), fs ...func()) [][]float64 {
	times := make([][]float64, len(fs))
	for r := 0; r <= reps; r++ {
		for i, f := range fs {
			if prep != nil {
				prep()
			}
			start := time.Now()
			f()
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
	cfg := stepModel
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
	}

	// Element-wise ops at the 4×32 prefill's FFN width: [128, dff].
	m, dff := 128, cfg.DFF
	n := m * dff
	src, dst, bias := randMat(rng, n), make([]float32, n), randMat(rng, dff)
	elementwise := func(op string, prep func(), f func(ops opSet)) {
		t := interleave(reps, prep, func() { f(goOps) }, func() { f(simdOps) })
		add(opPoint{Op: op, Shape: fmt.Sprintf("[%d, %d]", m, dff),
			GoLoop: h.opRate(t[0], 1, float64(8*n)), SIMD: h.opRate(t[1], 1, float64(8*n))})
	}
	// ReLU works in place and its Go loop branches on the sign: restore the
	// operand each time, or every call after the first sees no negatives.
	elementwise("relu", func() { copy(dst, src) }, func(ops opSet) { ops.relu(dst) })
	elementwise("bias-add", nil, func(ops opSet) {
		for i := 0; i < m; i++ {
			ops.add(dst[i*dff:(i+1)*dff], bias)
		}
	})
	elementwise("bf16-round", nil, func(ops opSet) { ops.round(dst, src) })
	return pts
}

// stepReplay holds one step's working set for the class replays.
type stepReplay struct {
	cfg      model.Config
	B, rows  int // sequences × new rows each
	startPos int
	w        *engine.Weights
	packs    [][]*kernels.PackedB // per layer: Wq Wk Wv Wo W1 W2, as the tile tier packs them
	head     *kernels.PackedB
	pool     *kernels.Pool
	job      kernels.PackedJob
	kc, vc   [][]float32 // per layer × sequence: [ctxCap, kvDim]
	ups      [][]float32 // per layer: FFN activations for ReLU, restored by resetUps
	upSrc    []float32
	scores   []float32

	x, h, q, att, proj, up, logits []float32
}

func newStepReplay(w *engine.Weights, pool *kernels.Pool, B, rows, startPos int) *stepReplay {
	cfg := w.Config
	d, dff, m := cfg.DModel, cfg.DFF, B*rows
	rng := rand.New(rand.NewSource(3))
	s := &stepReplay{cfg: cfg, B: B, rows: rows, startPos: startPos, w: w, pool: pool}
	for i := range w.Layers {
		lw := &w.Layers[i]
		var packs []*kernels.PackedB
		for _, l := range []*engine.Linear{&lw.Wq, &lw.Wk, &lw.Wv, &lw.Wo, &lw.W1, &lw.W2} {
			// The tile tier's own pack: a GEMM over it includes the bf16
			// rounding pass over its activations, and runs the instruction
			// mix the engine's does (fused on the 512-bit tiles).
			packs = append(packs, kernels.PackBBF16(l.In, l.Out, l.W))
		}
		s.packs = append(s.packs, packs)
		ctxCap := startPos + rows
		for b := 0; b < B; b++ {
			s.kc = append(s.kc, randMat(rng, ctxCap*cfg.KVDim()))
			s.vc = append(s.vc, randMat(rng, ctxCap*cfg.KVDim()))
		}
	}
	s.head = kernels.PackBTrans(d, cfg.Vocab, w.TokenEmb)
	s.x, s.h, s.q = randMat(rng, m*d), randMat(rng, m*d), randMat(rng, m*d)
	s.att, s.proj = randMat(rng, m*d), randMat(rng, m*d)
	s.up = randMat(rng, m*dff)
	s.logits = make([]float32, B*cfg.Vocab)
	s.scores = make([]float32, pool.Workers()*(startPos+rows))
	s.upSrc = randMat(rng, m*dff)
	for range w.Layers {
		s.ups = append(s.ups, make([]float32, m*dff))
	}
	return s
}

// resetUps restores the operands ReLU flattens (its Go loop branches on
// the sign, so it must not see its own output).
func (s *stepReplay) resetUps() {
	for _, up := range s.ups {
		copy(up, s.upSrc)
	}
}

// linear runs the step's GEMMs: stacked into one M = B·rows call per
// Linear, or (the prefill before PR 15) one call per sequence.
func (s *stepReplay) linear(fused bool) {
	m, calls := s.B*s.rows, 1
	if !fused {
		m, calls = s.rows, s.B
	}
	for range calls {
		for _, p := range s.packs {
			kernels.GemmPackedPooled(s.pool, &s.job, m, s.h, p[0], s.q)
			kernels.GemmPackedPooled(s.pool, &s.job, m, s.h, p[1], s.att)
			kernels.GemmPackedPooled(s.pool, &s.job, m, s.h, p[2], s.proj)
			kernels.GemmPackedPooled(s.pool, &s.job, m, s.att, p[3], s.proj)
			kernels.GemmPackedPooled(s.pool, &s.job, m, s.h, p[4], s.up)
			kernels.GemmPackedPooled(s.pool, &s.job, m, s.up, p[5], s.proj)
		}
	}
	kernels.GemmPackedPooled(s.pool, &s.job, s.B, s.h, s.head, s.logits)
}

// attnPart is the engine's attention fan-out: part p takes (sequence, row)
// pairs p, p+parts, ….
type attnPart struct {
	s     *stepReplay
	ops   opSet
	layer int
}

func (a *attnPart) RunPart(part, parts int) {
	s := a.s
	d, hd, kvDim := s.cfg.DModel, s.cfg.HeadDim(), s.cfg.KVDim()
	scale := float32(1 / math.Sqrt(float64(hd)))
	strip := s.startPos + s.rows
	for r := part; r < s.B*s.rows; r += parts {
		kc, vc := s.kc[a.layer*s.B+r/s.rows], s.vc[a.layer*s.B+r/s.rows]
		sc := s.scores[part*strip:][:s.startPos+r%s.rows+1]
		for hh := 0; hh < s.cfg.Heads; hh++ {
			a.ops.dotRows(s.q[r*d+hh*hd:r*d+(hh+1)*hd], kc[hh*hd:], kvDim, len(sc), scale, sc)
			kernels.Softmax(sc)
			out := s.att[r*d+hh*hd : r*d+(hh+1)*hd]
			for j := range out {
				out[j] = 0
			}
			a.ops.accumRows(out, sc, vc[hh*hd:], kvDim)
		}
	}
}

func (s *stepReplay) attention(ops opSet) {
	m := s.B * s.rows
	for layer := range s.packs {
		s.pool.Run(&attnPart{s, ops, layer}, min(m, s.pool.Workers()))
	}
}

func (s *stepReplay) norm() {
	d := s.cfg.DModel
	rowsOf := func(m int, gain, bias []float32) {
		for i := 0; i < m; i++ {
			kernels.LayerNorm(s.h[i*d:(i+1)*d], gain, bias, 1e-5)
		}
	}
	for i := range s.w.Layers {
		lw := &s.w.Layers[i]
		rowsOf(s.B*s.rows, lw.AttnNormGain, lw.AttnNormBias)
		rowsOf(s.B*s.rows, lw.FFNNormGain, lw.FFNNormBias)
	}
	rowsOf(s.B, s.w.FinalNormGain, s.w.FinalNormBias)
}

// activation replays ReLU and the bias and residual adds. (The bf16
// rounding pass in front of every tile-tier GEMM is part of the GEMM call,
// in the engine and here; the op sweep times it alone.)
func (s *stepReplay) activation(ops opSet) {
	biasRows := func(x, bias []float32) {
		for i := 0; i < len(x); i += len(bias) {
			ops.add(x[i:i+len(bias)], bias)
		}
	}
	for i := range s.w.Layers {
		lw := &s.w.Layers[i]
		up := s.ups[i]
		biasRows(s.q, lw.Wq.Bias)
		biasRows(s.proj, lw.Wk.Bias)
		biasRows(s.proj, lw.Wv.Bias)
		biasRows(s.proj, lw.Wo.Bias)
		ops.add(s.x, s.proj)
		biasRows(up, lw.W1.Bias)
		ops.relu(up)
		biasRows(s.proj, lw.W2.Bias)
		ops.add(s.x, s.proj)
	}
}

func (s *stepReplay) sampling() {
	for b := 0; b < s.B; b++ {
		kernels.Argmax(s.logits[b*s.cfg.Vocab : (b+1)*s.cfg.Vocab])
	}
}

// other is what belongs to no class: embedding lookups, the residual
// copies in front of each norm, and the KV-cache writes.
func (s *stepReplay) other() {
	m, d, kvDim := s.B*s.rows, s.cfg.DModel, s.cfg.KVDim()
	for r := 0; r < m; r++ {
		pos := s.startPos + r%s.rows
		copy(s.x[r*d:(r+1)*d], s.w.TokenEmb[r*d:])
		kernels.Add(s.x[r*d:(r+1)*d], s.w.PosEmb[pos*d:(pos+1)*d])
	}
	for layer := range s.packs {
		copy(s.h, s.x)
		copy(s.h, s.x)
		for r := 0; r < m; r++ {
			off := (s.startPos + r%s.rows) * kvDim
			copy(s.kc[layer*s.B+r/s.rows][off:off+kvDim], s.q[r*d:])
			copy(s.vc[layer*s.B+r/s.rows][off:off+kvDim], s.att[r*d:])
		}
	}
}

// breakdown times every class both ways and sets them beside the real
// engine's step.
func (s *stepReplay) breakdown(step string, reps int, measured float64) stepBreakdown {
	class := func(name string, goLoop, shipped func()) classTime {
		t := interleave(reps, s.resetUps, goLoop, shipped)
		return classTime{Class: name, GoLoopMs: median(t[0]) * 1e3, SIMDMs: median(t[1]) * 1e3}
	}
	same := func(name string, f func()) classTime { return class(name, f, f) }
	bd := stepBreakdown{Step: step, MeasuredMs: measured * 1e3, Classes: []classTime{
		class("linear", func() { s.linear(false) }, func() { s.linear(true) }),
		class("attention", func() { s.attention(goOps) }, func() { s.attention(simdOps) }),
		same("norm", s.norm),
		class("activation", func() { s.activation(goOps) }, func() { s.activation(simdOps) }),
		same("sampling", s.sampling),
		same("other", s.other),
	}}
	for _, c := range bd.Classes {
		bd.SumMs += c.SIMDMs
	}
	fmt.Printf("\n%s  (median of %d; measured engine step %.3f ms, classes sum to %.3f ms)\n",
		step, reps, bd.MeasuredMs, bd.SumMs)
	for i := range bd.Classes {
		c := &bd.Classes[i]
		c.Share = c.SIMDMs / bd.SumMs
		fmt.Printf("  %-20s  go loop %8.3f ms   shipped %8.3f ms   %5.1f %% of the step\n",
			c.Class, c.GoLoopMs, c.SIMDMs, 100*c.Share)
	}
	return bd
}

// stepBreakdowns decomposes the benchmark's three engine steps: a batch-1
// and a batch-4 decode step in mid-generation and a 4 × 32 prefill.
func stepBreakdowns(reps int) ([]stepBreakdown, error) {
	w, err := engine.NewWeights(stepModel, 42, tensor.BF16)
	if err != nil {
		return nil, err
	}
	pool := kernels.NewPool(0)
	defer pool.Close()
	eng, err := engine.New(w, engine.Options{Kernel: engine.KernelTileBF16Parallel, Pool: pool})
	if err != nil {
		return nil, err
	}
	prompts := func(batch, n int) [][]int {
		p := make([][]int, batch)
		for i := range p {
			p[i] = workload.NewGenerator(int64(i+1)).Prompt(n, stepModel.Vocab)
		}
		return p
	}

	const decodeCtx = 48  // the middle of engine-decode's 16 → 80
	const stepsPerRep = 4 // a step is short: take the median over more of them
	var stepErr error
	// decodeStep is the median step of `batch` sequences decoding together
	// from decodeCtx tokens of context each (engine-batch's fused M = 4
	// decode is the batch-4 one).
	decodeStep := func(batch int) float64 {
		s := eng.NewSession(batch, decodeCtx+stepsPerRep*reps+2)
		toks, err := eng.Prefill(s, prompts(batch, decodeCtx))
		if err != nil {
			stepErr = err
			return 0
		}
		return median(interleave(stepsPerRep*reps, nil, func() {
			if toks, err = eng.DecodeStep(s, toks); err != nil {
				stepErr = err
			}
		})[0])
	}
	decode1, decode4 := decodeStep(1), decodeStep(4)
	// Prefill as a serving loop sees it: a new session per request, on
	// memory the collector has already recycled (hence the warm-up).
	batch := prompts(4, 32)
	const warmUp = 12
	var prefills []float64
	for r := 0; r < warmUp+reps; r++ {
		s := eng.NewSession(4, 40)
		start := time.Now()
		if _, err := eng.Prefill(s, batch); err != nil {
			stepErr = err
		}
		if r >= warmUp {
			prefills = append(prefills, time.Since(start).Seconds())
		}
	}
	if stepErr != nil {
		return nil, stepErr
	}
	sort.Float64s(prefills)
	prefill := median(prefills)
	return []stepBreakdown{
		newStepReplay(w, pool, 1, 1, decodeCtx).breakdown(fmt.Sprintf("decode_b1_ctx%d", decodeCtx), reps, decode1),
		newStepReplay(w, pool, 4, 1, decodeCtx).breakdown(fmt.Sprintf("decode_b4_ctx%d", decodeCtx), reps, decode4),
		newStepReplay(w, pool, 4, 32, 0).breakdown("prefill_4x32", reps, prefill),
	}, nil
}
