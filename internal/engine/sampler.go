package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/kernels"
)

// Sampler converts logits into a token. The zero value (or a nil *Sampler)
// samples greedily; Temperature > 0 enables stochastic sampling with
// optional top-k and nucleus (top-p) truncation, seeded deterministically.
type Sampler struct {
	Temperature float64
	TopK        int     // keep the K most likely tokens (0 = all)
	TopP        float64 // keep the smallest nucleus with mass ≥ TopP (0 = all)
	rng         *rand.Rand
}

// NewSampler returns a deterministic sampler.
func NewSampler(seed int64, temperature float64, topK int, topP float64) *Sampler {
	return &Sampler{
		Temperature: temperature,
		TopK:        topK,
		TopP:        topP,
		rng:         rand.New(rand.NewSource(seed)),
	}
}

// Sample picks a token from the logits.
func (s *Sampler) Sample(logits []float32) int {
	if s == nil || s.Temperature <= 0 {
		return kernels.Argmax(logits)
	}
	// Softmax over temperature-scaled logits.
	probs := make([]float64, len(logits))
	maxL := float64(logits[0])
	for _, v := range logits[1:] {
		if float64(v) > maxL {
			maxL = float64(v)
		}
	}
	var sum float64
	for i, v := range logits {
		p := math.Exp((float64(v) - maxL) / s.Temperature)
		probs[i] = p
		sum += p
	}
	for i := range probs {
		probs[i] /= sum
	}

	// Candidate set, most likely first.
	idx := make([]int, len(probs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return probs[idx[a]] > probs[idx[b]] })
	keep := len(idx)
	if s.TopK > 0 && s.TopK < keep {
		keep = s.TopK
	}
	if s.TopP > 0 && s.TopP < 1 {
		var mass float64
		for i := 0; i < keep; i++ {
			mass += probs[idx[i]]
			if mass >= s.TopP {
				keep = i + 1
				break
			}
		}
	}
	// Renormalize and draw.
	var mass float64
	for i := 0; i < keep; i++ {
		mass += probs[idx[i]]
	}
	r := s.rng.Float64() * mass
	for i := 0; i < keep; i++ {
		r -= probs[idx[i]]
		if r <= 0 {
			return idx[i]
		}
	}
	return idx[keep-1]
}

// GenerateOptions controls sampled generation.
type GenerateOptions struct {
	MaxNew int
	// Sampler selects tokens; nil means greedy.
	Sampler *Sampler
	// Stop enables early stopping on StopToken (the zero value never
	// stops early, so token 0 remains usable).
	Stop      bool
	StopToken int
	// PrefillChunk processes the prompt in chunks of this many tokens
	// (Sarathi-style chunked prefill; 0 = whole prompt at once). The
	// result is bit-identical to unchunked prefill — chunking bounds the
	// latency impact of long prompts on co-scheduled decodes.
	PrefillChunk int
}

func (o GenerateOptions) stops(tok int) bool {
	return o.Stop && tok == o.StopToken
}

// GenerateWith runs generation with sampling, early stopping, and
// optional chunked prefill. Output per sequence ends at (and excludes)
// the stop token.
func (e *Engine) GenerateWith(prompts [][]int, opts GenerateOptions) ([][]int, Stats, error) {
	if opts.MaxNew <= 0 {
		return nil, Stats{}, errMaxNew
	}
	if len(prompts) == 0 {
		return nil, Stats{}, errNoPrompts
	}
	if opts.PrefillChunk < 0 {
		return nil, Stats{}, fmt.Errorf("engine: negative prefill chunk %d", opts.PrefillChunk)
	}
	s := e.NewSession(len(prompts), len(prompts[0])+opts.MaxNew)

	timer := newTimer()
	toks, err := e.prefillSample(s, prompts, opts.PrefillChunk, opts.Sampler)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{PrefillSeconds: timer.lap(), TokensOut: opts.MaxNew}

	out := make([][]int, len(prompts))
	done := make([]bool, len(prompts))
	liveCount := 0
	for b := range out {
		if opts.stops(toks[b]) {
			done[b] = true
			continue
		}
		out[b] = append(out[b], toks[b])
		liveCount++
	}
	for step := 1; step < opts.MaxNew && liveCount > 0; step++ {
		toks, err = e.decodeSample(s, toks, opts.Sampler)
		if err != nil {
			return nil, Stats{}, err
		}
		for b := range out {
			if done[b] {
				continue
			}
			if opts.stops(toks[b]) {
				done[b] = true
				liveCount--
				continue
			}
			out[b] = append(out[b], toks[b])
		}
	}
	stats.DecodeSeconds = timer.lap()
	return out, stats, nil
}
