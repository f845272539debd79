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
	s := e.NewSession(1, len(seq))
	defer s.Release()
	if err := e.forwardTokens(s, seq); err != nil {
		return EvalResult{}, err
	}

	res := EvalResult{Tokens: len(seq) - 1, WorstTokenLP: 0}
	for i := 0; i+1 < len(seq); i++ {
		lps := logSoftmax(e.rowLogits(s.ar, i))
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
