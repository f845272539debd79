package model

import "repro/internal/tensor"

// KVDim returns the key/value projection width KVHeads·HeadDim. For models
// without grouped-query attention this equals DModel.
func (c Config) KVDim() int { return c.KVHeads * c.HeadDim() }

// AttnParams returns the attention parameter count of one decoder block:
// Wq and Wo are DModel×DModel, Wk and Wv are DModel×KVDim.
func (c Config) AttnParams() int64 {
	d := int64(c.DModel)
	kv := int64(c.KVDim())
	return 2*d*d + 2*d*kv
}

// FFNParams returns the feed-forward parameter count of one decoder block.
// OPT uses two projections (up, down); LLaMA-2 adds a gate projection.
func (c Config) FFNParams() int64 {
	d, dff := int64(c.DModel), int64(c.DFF)
	if c.Family == LLaMA2 {
		return 3 * d * dff
	}
	return 2 * d * dff
}

// LayerParams returns the parameter count of one decoder block including
// normalization gains/biases (and linear biases for OPT).
func (c Config) LayerParams() int64 {
	p := c.AttnParams() + c.FFNParams()
	d := int64(c.DModel)
	if c.Family == OPT {
		// Linear biases (qkv, o, ffn) and two LayerNorms (gain+bias).
		p += 3*d + int64(c.KVDim()) + int64(c.DFF) + 4*d
	} else {
		// Two RMSNorm gains.
		p += 2 * d
	}
	return p
}

// EmbeddingParams returns the token-embedding (and, for OPT, learned
// positional-embedding) parameter count. LLaMA-2 has an untied output
// head, which is counted here as well.
func (c Config) EmbeddingParams() int64 {
	d := int64(c.DModel)
	e := int64(c.Vocab) * d
	if c.Family == OPT {
		return e + int64(c.MaxSeq)*d // tied output head
	}
	return 2 * e // untied lm_head
}

// ParamCount returns the total parameter count of the model.
func (c Config) ParamCount() int64 {
	return int64(c.Layers)*c.LayerParams() + c.EmbeddingParams() + int64(c.DModel)
}

// WeightBytes returns the bytes needed to store all parameters in dt,
// the quantity plotted in Fig 6 (with dt = FP16).
func (c Config) WeightBytes(dt tensor.DType) int64 {
	return c.ParamCount() * int64(dt.Size())
}

// KVBytesPerTokenPerLayer returns the KV-cache bytes one token adds to one
// layer: 2 (K and V) × KVDim elements.
func (c Config) KVBytesPerTokenPerLayer(dt tensor.DType) int64 {
	return 2 * int64(c.KVDim()) * int64(dt.Size())
}

// KVCacheBytes returns the total KV-cache footprint for a given sequence
// length and batch size, the §II-B formula
//
//	size(dt) · 2 · n_layers · d_kv · n_seq · n_batch
//
// plotted in Fig 7.
func (c Config) KVCacheBytes(seqLen, batch int, dt tensor.DType) int64 {
	return int64(c.Layers) * c.KVBytesPerTokenPerLayer(dt) * int64(seqLen) * int64(batch)
}

// PrefillFLOPs returns the total floating-point operations of the prefill
// phase over inputLen tokens per sequence at the given batch size:
// 2·params per token for the linear layers plus causal attention.
func (c Config) PrefillFLOPs(inputLen, batch int) float64 {
	tokens := float64(inputLen) * float64(batch)
	linear := 2 * float64(c.LayerParams()) * float64(c.Layers) * tokens
	// Causal attention: Σ_t 4·d·t ≈ 2·d·S² per sequence per layer.
	attn := 2 * float64(c.DModel) * float64(inputLen) * float64(inputLen) *
		float64(batch) * float64(c.Layers)
	head := 2 * float64(c.Vocab) * float64(c.DModel) * float64(batch)
	return linear + attn + head
}

// DecodeStepFLOPs returns the floating-point operations of one decode step
// when the KV cache already holds ctxLen tokens per sequence.
func (c Config) DecodeStepFLOPs(ctxLen, batch int) float64 {
	linear := 2 * float64(c.LayerParams()) * float64(c.Layers) * float64(batch)
	attn := 4 * float64(c.DModel) * float64(ctxLen) * float64(batch) * float64(c.Layers)
	head := 2 * float64(c.Vocab) * float64(c.DModel) * float64(batch)
	return linear + attn + head
}
