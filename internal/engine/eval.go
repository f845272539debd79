package engine

import (
	"fmt"
	"math"
)

// Perplexity evaluation: teacher-forced log-likelihood of a token
// sequence under the model — the standard language-modeling quality
// metric, used here to verify that quantized/reduced-precision execution
// paths preserve model behaviour (the accuracy side of the INT8/INT4
// optimizations the performance side measures).

// EvalResult reports sequence-level likelihood metrics.
type EvalResult struct {
	Tokens       int     // predicted positions (len(seq)-1)
	TotalLogProb float64 // Σ log p(seq[i+1] | seq[..i])
	AvgLogProb   float64
	Perplexity   float64
	WorstTokenLP float64 // most surprising single token
}

// Perplexity computes teacher-forced perplexity of seq (at least two
// tokens: each position predicts the next).
func (e *Engine) Perplexity(seq []int) (EvalResult, error) {
	if len(seq) < 2 {
		return EvalResult{}, fmt.Errorf("engine: perplexity needs ≥2 tokens, got %d", len(seq))
	}
	if err := e.checkTokens(seq); err != nil {
		return EvalResult{}, err
	}
	s := e.NewSession(1, len(seq))
	ar := &s.ar
	e.forwardTokens(ar, s.caches, seq, 0)

	res := EvalResult{Tokens: len(seq) - 1, WorstTokenLP: 0}
	for i := 0; i+1 < len(seq); i++ {
		lps := logSoftmax(e.rowLogits(ar, i))
		lp := lps[seq[i+1]]
		res.TotalLogProb += lp
		if lp < res.WorstTokenLP {
			res.WorstTokenLP = lp
		}
	}
	res.AvgLogProb = res.TotalLogProb / float64(res.Tokens)
	res.Perplexity = math.Exp(-res.AvgLogProb)
	return res, nil
}

// logSoftmax converts logits into log-probabilities.
func logSoftmax(logits []float32) []float64 {
	maxL := float64(logits[0])
	for _, v := range logits[1:] {
		if float64(v) > maxL {
			maxL = float64(v)
		}
	}
	var sum float64
	lps := make([]float64, len(logits))
	for i, v := range logits {
		e := math.Exp(float64(v) - maxL)
		lps[i] = float64(v) - maxL
		sum += e
	}
	logSum := math.Log(sum)
	for i := range lps {
		lps[i] -= logSum
	}
	return lps
}

// TokenCallback receives each newly generated token (sequence index,
// step, token). Returning false stops that sequence's generation early.
type TokenCallback func(seq, step, token int) bool

// GenerateStream runs greedy generation, invoking cb as each token is
// produced — the engine's streaming API (the serving path's token-by-
// token delivery). Output per sequence ends where cb stopped it.
func (e *Engine) GenerateStream(prompts [][]int, maxNew int, cb TokenCallback) ([][]int, error) {
	if maxNew <= 0 {
		return nil, errMaxNew
	}
	if len(prompts) == 0 {
		return nil, errNoPrompts
	}
	if cb == nil {
		return nil, fmt.Errorf("engine: nil stream callback")
	}
	s := e.NewSession(len(prompts), len(prompts[0])+maxNew)
	toks, err := e.Prefill(s, prompts)
	if err != nil {
		return nil, err
	}
	out := make([][]int, len(prompts))
	stopped := make([]bool, len(prompts))
	live := 0
	for b, tok := range toks {
		if cb(b, 0, tok) {
			out[b] = append(out[b], tok)
			live++
		} else {
			stopped[b] = true
		}
	}
	for step := 1; step < maxNew && live > 0; step++ {
		toks, err = e.DecodeStep(s, toks)
		if err != nil {
			return nil, err
		}
		for b, tok := range toks {
			if stopped[b] {
				continue
			}
			if cb(b, step, tok) {
				out[b] = append(out[b], tok)
			} else {
				stopped[b] = true
				live--
			}
		}
	}
	return out, nil
}
