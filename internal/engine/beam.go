package engine

import (
	"fmt"
	"math"
	"sort"
)

// Beam search: keep the Width highest-scoring partial continuations,
// expanding each by its best next tokens every step. Scores are summed
// log-probabilities. Each beam owns an independent KV cache, cloned at
// branch points — the memory amplification that motivates paged KV
// allocators with copy-on-write (package kvpool models the allocation
// side; here the caches are physically copied).

// BeamResult is one completed hypothesis.
type BeamResult struct {
	Tokens  []int
	LogProb float64
}

// beam is one live hypothesis during search.
type beam struct {
	cache   *KVCache
	pos     int
	tokens  []int
	logProb float64
	last    int
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

// BeamSearch generates maxNew tokens for one prompt keeping `width`
// hypotheses, and returns completed hypotheses best-first. Width 1
// reduces exactly to greedy generation.
func (e *Engine) BeamSearch(prompt []int, maxNew, width int) ([]BeamResult, error) {
	if maxNew <= 0 {
		return nil, errMaxNew
	}
	if width <= 0 {
		return nil, fmt.Errorf("engine: beam width must be positive")
	}
	if len(prompt) == 0 {
		return nil, fmt.Errorf("engine: empty prompt")
	}
	if err := e.checkTokens(prompt); err != nil {
		return nil, err
	}

	maxSeq := len(prompt) + maxNew
	d := e.cfg.DModel

	// Prefill once; all beams share the prompt prefix by cloning.
	root := NewKVCache(e.cfg.Layers, e.cfg.KVDim(), maxSeq)
	var ar arena
	e.forwardTokens(&ar, []KVStore{root}, prompt, 0)
	root.ExtendTo(len(prompt))
	lps := logSoftmax(e.rowLogits(&ar, len(prompt)-1))

	beams := seedBeams(root, len(prompt), lps, width)
	ar.ensure(e, width, 1, maxSeq)
	for step := 1; step < maxNew; step++ {
		type expansion struct {
			parent  int
			token   int
			logProb float64
			lps     []float64 // filled after forward
		}
		// Advance every beam one step — the beams move in lockstep, so
		// this is one fused pass — and collect its token distribution.
		caches := make([]KVStore, len(beams))
		for i := range beams {
			caches[i] = beams[i].cache
			e.embed(beams[i].last, beams[i].pos, ar.x[i*d:(i+1)*d])
		}
		e.forward(&ar, caches, 1, beams[0].pos)
		copy(ar.h[:len(beams)*d], ar.x[:len(beams)*d])
		logits := e.logits(&ar, len(beams))
		dists := make([][]float64, len(beams))
		for i := range beams {
			bm := &beams[i]
			bm.cache.ExtendTo(bm.pos + 1)
			bm.pos++
			dists[i] = logSoftmax(logits[i*e.cfg.Vocab : (i+1)*e.cfg.Vocab])
		}
		// Gather the top `width` continuations of each beam, then keep the
		// global top `width`.
		var exps []expansion
		for i, dist := range dists {
			for _, tok := range topK(dist, width) {
				exps = append(exps, expansion{
					parent: i, token: tok,
					logProb: beams[i].logProb + dist[tok],
				})
			}
		}
		sort.SliceStable(exps, func(a, b int) bool { return exps[a].logProb > exps[b].logProb })
		if len(exps) > width {
			exps = exps[:width]
		}
		// Materialize the surviving beams (cloning caches shared by more
		// than one survivor).
		used := map[int]int{}
		next := make([]beam, 0, len(exps))
		for _, ex := range exps {
			parent := beams[ex.parent]
			cache := parent.cache
			if used[ex.parent] > 0 {
				cache = parent.cache.Clone()
			}
			used[ex.parent]++
			next = append(next, beam{
				cache: cache, pos: parent.pos,
				tokens:  append(append([]int{}, parent.tokens...), ex.token),
				logProb: ex.logProb,
				last:    ex.token,
			})
		}
		beams = next
	}

	out := make([]BeamResult, len(beams))
	for i, bm := range beams {
		out[i] = BeamResult{Tokens: bm.tokens, LogProb: bm.logProb}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].LogProb > out[b].LogProb })
	return out, nil
}

// seedBeams creates the initial beams from the prefill distribution.
func seedBeams(root *KVCache, pos int, lps []float64, width int) []beam {
	toks := topK(lps, width)
	beams := make([]beam, 0, len(toks))
	for i, tok := range toks {
		cache := root
		if i > 0 {
			cache = root.Clone()
		}
		beams = append(beams, beam{
			cache: cache, pos: pos,
			tokens:  []int{tok},
			logProb: lps[tok],
			last:    tok,
		})
	}
	return beams
}

// topK returns the indices of the k largest values, best first.
func topK(vals []float64, k int) []int {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return vals[idx[a]] > vals[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
