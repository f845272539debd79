// Package engine is a functional decoder-only transformer inference engine
// in pure Go. It executes real forward passes (prefill and decode with a
// KV cache, batching, greedy sampling) over the kernels package, supporting
// the architectural variants of both model families the paper evaluates
// (OPT: LayerNorm/ReLU/learned positions/biases; LLaMA-2: RMSNorm/SwiGLU/
// RoPE/grouped-query attention) and the numeric paths of the studied
// hardware (FP32 reference, AMX-style BF16 tiles). Every entry point —
// prefill (whole, chunked or resumed), decode, speculative verification,
// eval — is the same forward pass, with one linear path (the packed GEMM
// over the tier's FP32 or BF16 pack) and one attention path (softmax over
// the KV cache's contiguous runs).
//
// The engine is the laptop-scale substitute for running IPEX on Xeon
// silicon: it exercises the same dataflow the performance model prices.
package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// Kernel selects the numeric path of the linear layers (FP32 or AMX-style
// BF16) and whether an engine built without Options.Pool gets a private
// worker pool: two numerics × {serial, pooled}. The names are those of the
// kernels each tier first ran on.
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
	default:
		return fmt.Sprintf("kernel(%d)", int(k))
	}
}

// bf16 reports whether the tier runs TMUL numerics over the BF16 pack.
func (k Kernel) bf16() bool { return k == KernelTileBF16 || k == KernelTileBF16Parallel }

// Linear is one weight matrix W (In rows, Out columns, so that Y = X·W)
// with optional bias. The weights are held once, in the model's dtype:
// float32, or a BF16 model's bfloat16 bits. Every tier derives its layout
// from that one store: the panel packs built at engine construction
// (Weights.ensurePacked).
type Linear struct {
	In, Out int
	Bias    []float32 // nil for bias-free families

	w32 []float32 // an FP32 model's weights, row-major [In, Out]
	w16 []uint16  // a BF16 model's, as bfloat16 bits (w32 is then nil)

	pf32  *kernels.PackedB // FP32 panel pack (blocked/parallel tiers)
	pbf16 *kernels.PackedB // BF16 pre-rounded panel pack (tile tiers)
}

// held reports whether the layer exists (LLaMA-2's gate and untied head
// only).
func (l *Linear) held() bool { return l.w32 != nil || l.w16 != nil }

// packFor returns the pack matching the kernel tier's numerics.
func (l *Linear) packFor(k Kernel) *kernels.PackedB {
	if k.bf16() {
		return l.pbf16
	}
	return l.pf32
}

// pack builds the pack the kernel tier reads, if it is not built yet.
func (l *Linear) pack(k Kernel) {
	switch {
	case k.bf16() && l.pbf16 == nil:
		if l.w16 != nil {
			l.pbf16 = kernels.PackBBF16Bits(l.In, l.Out, l.w16)
		} else {
			l.pbf16 = kernels.PackBBF16(l.In, l.Out, l.w32)
		}
	case !k.bf16() && l.pf32 == nil:
		if l.w16 != nil {
			l.pf32 = kernels.PackBBits(l.In, l.Out, l.w16)
		} else {
			l.pf32 = kernels.PackB(l.In, l.Out, l.w32)
		}
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
	for _, l := range w.linears() {
		l.pack(k)
	}
	if w.Config.Family == model.OPT && w.tiedHead == nil {
		// The tied head is computed in FP32 by every kernel tier, so its
		// pack is always FP32.
		w.tiedHead = kernels.PackBTrans(w.Config.DModel, w.Config.Vocab, w.TokenEmb)
	}
}

// NewWeights initializes deterministic random weights at the scale typical
// of trained transformers (N(0, 0.02)), optionally rounding to BF16 so the
// stored values match what an AMX pipeline would hold. The values are one
// serial math/rand stream; a BF16 model keeps its linear weights as
// bfloat16 bits, narrowed from the stream in one vector pass per tensor,
// and its other tensors rounded in place.
func NewWeights(cfg model.Config, seed int64, dt tensor.DType) (*Weights, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	d, kv, dff := cfg.DModel, cfg.KVDim(), cfg.DFF
	hasBias := cfg.Family == model.OPT
	bf16 := dt == tensor.BF16

	normal := func(dst []float32, scale float64) []float32 {
		for i := range dst {
			dst[i] = float32(rng.NormFloat64() * scale)
		}
		return dst
	}
	randSlice := func(n int, scale float64) []float32 {
		s := normal(make([]float32, n), scale)
		if bf16 {
			kernels.RoundBF16Into(s, s)
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
	var stream []float32 // a BF16 linear's values before they are narrowed
	lin := func(in, out int) Linear {
		l := Linear{In: in, Out: out}
		scale := 0.02 / math.Sqrt(float64(in)/128)
		if bf16 {
			if cap(stream) < in*out {
				stream = make([]float32, in*out)
			}
			l.w16 = make([]uint16, in*out)
			kernels.NarrowBF16(l.w16, normal(stream[:in*out], scale))
		} else {
			l.w32 = randSlice(in*out, scale)
		}
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

// linears returns every linear layer the model holds.
func (w *Weights) linears() []*Linear {
	var ls []*Linear
	for i := range w.Layers {
		lw := &w.Layers[i]
		ls = append(ls, &lw.Wq, &lw.Wk, &lw.Wv, &lw.Wo, &lw.W1, &lw.WGate, &lw.W2)
	}
	return slices.DeleteFunc(append(ls, &w.LMHead), func(l *Linear) bool { return !l.held() })
}
