// Package engine is a functional decoder-only transformer inference engine
// in pure Go. It executes real forward passes (prefill and decode with a
// KV cache, batching, greedy sampling) over the kernels package, supporting
// the architectural variants of both model families the paper evaluates
// (OPT: LayerNorm/ReLU/learned positions/biases; LLaMA-2: RMSNorm/SwiGLU/
// RoPE/grouped-query attention) and the numeric paths of the studied
// hardware (FP32 reference, AMX-style BF16 tiles, INT8). Every entry point
// — prefill (whole, chunked or resumed), decode, speculative verification,
// eval — is the same forward pass, with one linear path per
// numeric path (the packed GEMM, or the INT8 kernel) and one attention
// path (softmax over the KV cache's contiguous runs).
//
// The engine is the laptop-scale substitute for running IPEX on Xeon
// silicon: it exercises the same dataflow the performance model prices.
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Kernel selects the numeric path of the linear layers (FP32, AMX-style
// BF16, INT8) and, for the packed-GEMM paths, whether an engine built
// without Options.Pool gets a private worker pool. The names are those of
// the kernels each tier first ran on.
type Kernel int

const (
	// KernelBlocked runs the packed GEMM with FP32 numerics (AVX-512
	// analog), serial unless a Pool is passed.
	KernelBlocked Kernel = iota
	// KernelParallel is KernelBlocked split over a worker pool.
	KernelParallel
	// KernelTileBF16 runs the packed GEMM with AMX TMUL numerics (weights
	// and activations rounded to BF16, FP32 accumulate), serial unless a
	// Pool is passed.
	KernelTileBF16
	// KernelTileBF16Parallel is KernelTileBF16 split over a worker pool.
	KernelTileBF16Parallel
	// KernelInt8 uses INT8 weights with VNNI-style int32 accumulation.
	KernelInt8
)

// String returns the kernel name.
func (k Kernel) String() string {
	switch k {
	case KernelBlocked:
		return "blocked-fp32"
	case KernelParallel:
		return "parallel-fp32"
	case KernelTileBF16:
		return "tile-bf16"
	case KernelTileBF16Parallel:
		return "parallel-tile-bf16"
	case KernelInt8:
		return "int8"
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// Linear is one weight matrix with optional bias and an optional INT8
// shadow for the quantized path. Weights are stored row-major [In, Out] so
// that Y = X·W. The unexported pack fields hold panel-packed shadows built
// once at engine construction (Weights.ensurePacked).
type Linear struct {
	In, Out int
	W       []float32
	Bias    []float32 // nil for bias-free families
	Q       []int8    // int8 shadow, populated by Quantize
	QScale  float32

	pf32  *kernels.PackedB // FP32 panel pack (blocked/parallel tiers)
	pbf16 *kernels.PackedB // BF16 pre-rounded panel pack (tile tiers)
}

// Quantize populates the INT8 shadow representation.
func (l *Linear) Quantize() {
	l.Q, l.QScale = tensor.QuantizeInt8(l.W)
}

// packFor returns the packed shadow matching the kernel tier's numerics,
// or nil when the tier has none (INT8).
func (l *Linear) packFor(k Kernel) *kernels.PackedB {
	switch k {
	case KernelTileBF16, KernelTileBF16Parallel:
		return l.pbf16
	case KernelBlocked, KernelParallel:
		return l.pf32
	default:
		return nil
	}
}

// LayerWeights holds one decoder block's parameters.
type LayerWeights struct {
	AttnNormGain, AttnNormBias []float32
	Wq, Wk, Wv, Wo             Linear
	FFNNormGain, FFNNormBias   []float32
	W1                         Linear // up projection
	WGate                      Linear // LLaMA-2 gate projection (zero for OPT)
	W2                         Linear // down projection
}

// Weights holds a full model's parameters.
type Weights struct {
	Config        model.Config
	TokenEmb      []float32 // [vocab, d]
	PosEmb        []float32 // [maxSeq, d], OPT only
	Layers        []LayerWeights
	FinalNormGain []float32
	FinalNormBias []float32
	LMHead        Linear // untied head (LLaMA-2); OPT ties to TokenEmb

	packMu   sync.Mutex
	tiedHead *kernels.PackedB // FP32 pack of TokenEmbᵀ (OPT tied logits head)
}

// ensurePacked builds the panel-packed weight shadows the given kernel
// tier consumes: BF16 pre-rounded packs for the tile tiers, FP32 packs for
// the blocked/parallel tiers, and (for OPT) an FP32 pack of the transposed
// token embedding used as the tied logits head by every tier. Packing runs
// once per precision class — repeat calls and engines sharing one Weights
// are no-ops — and is guarded by a mutex so concurrent engine construction
// is safe.
func (w *Weights) ensurePacked(k Kernel) {
	w.packMu.Lock()
	defer w.packMu.Unlock()
	pack := func(l *Linear) {
		if l.W == nil {
			return
		}
		switch k {
		case KernelTileBF16, KernelTileBF16Parallel:
			if l.pbf16 == nil {
				l.pbf16 = kernels.PackBBF16(l.In, l.Out, l.W)
			}
		case KernelBlocked, KernelParallel:
			if l.pf32 == nil {
				l.pf32 = kernels.PackB(l.In, l.Out, l.W)
			}
		}
	}
	for i := range w.Layers {
		lw := &w.Layers[i]
		for _, l := range []*Linear{&lw.Wq, &lw.Wk, &lw.Wv, &lw.Wo, &lw.W1, &lw.WGate, &lw.W2} {
			pack(l)
		}
	}
	pack(&w.LMHead)
	if w.Config.Family == model.OPT && w.tiedHead == nil {
		// The tied head is computed in FP32 by every kernel tier, so its
		// pack is always FP32.
		w.tiedHead = kernels.PackBTrans(w.Config.DModel, w.Config.Vocab, w.TokenEmb)
	}
}

// NewWeights initializes deterministic random weights at the scale typical
// of trained transformers (N(0, 0.02)), optionally rounding to BF16 so the
// stored values match what an AMX pipeline would hold.
func NewWeights(cfg model.Config, seed int64, dt tensor.DType) (*Weights, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d, kv, dff := cfg.DModel, cfg.KVDim(), cfg.DFF
	hasBias := cfg.Family == model.OPT

	randSlice := func(n int, scale float64) []float32 {
		s := make([]float32, n)
		for i := range s {
			v := float32(rng.NormFloat64() * scale)
			if dt == tensor.BF16 {
				v = tensor.RoundBF16(v)
			}
			s[i] = v
		}
		return s
	}
	ones := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	lin := func(in, out int) Linear {
		l := Linear{In: in, Out: out, W: randSlice(in*out, 0.02/math.Sqrt(float64(in)/128))}
		if hasBias {
			l.Bias = make([]float32, out) // zero biases, still exercised
		}
		return l
	}

	w := &Weights{
		Config:        cfg,
		TokenEmb:      randSlice(cfg.Vocab*d, 0.02),
		FinalNormGain: ones(d),
		Layers:        make([]LayerWeights, cfg.Layers),
	}
	if cfg.Family == model.OPT {
		w.PosEmb = randSlice(cfg.MaxSeq*d, 0.02)
		w.FinalNormBias = make([]float32, d)
	} else {
		w.LMHead = lin(d, cfg.Vocab)
	}
	for i := range w.Layers {
		lw := &w.Layers[i]
		lw.AttnNormGain, lw.FFNNormGain = ones(d), ones(d)
		if hasBias {
			lw.AttnNormBias = make([]float32, d)
			lw.FFNNormBias = make([]float32, d)
		}
		lw.Wq, lw.Wk, lw.Wv = lin(d, d), lin(d, kv), lin(d, kv)
		lw.Wo = lin(d, d)
		lw.W1, lw.W2 = lin(d, dff), lin(dff, d)
		if cfg.Family == model.LLaMA2 {
			lw.WGate = lin(d, dff)
		}
	}
	return w, nil
}

// QuantizeAll populates INT8 shadows on every linear layer.
func (w *Weights) QuantizeAll() {
	for i := range w.Layers {
		lw := &w.Layers[i]
		for _, l := range []*Linear{&lw.Wq, &lw.Wk, &lw.Wv, &lw.Wo, &lw.W1, &lw.W2} {
			l.Quantize()
		}
		if lw.WGate.W != nil {
			lw.WGate.Quantize()
		}
	}
	if w.LMHead.W != nil {
		w.LMHead.Quantize()
	}
}
