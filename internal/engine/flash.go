package engine

import (
	"math"
)

// FlashAttention-style attention: instead of materializing the full score
// vector, applying softmax, and re-reading the values, the online-softmax
// formulation streams the KV cache once per query, maintaining a running
// maximum, a running denominator, and a running weighted sum that are
// rescaled as larger scores appear. The result is mathematically
// identical to softmax attention but touches each KV row exactly once
// with O(1) extra state — the memory-traffic shape that makes long-context
// attention tractable on bandwidth-bound hardware (the decode regime of
// Figs 11/12).
//
// Reference: Dao et al., "FlashAttention: Fast and Memory-Efficient Exact
// Attention with IO-Awareness" (the single-pass online softmax of
// Milakov & Gimelshein).

// flashRow is the single-query-row streaming attention at position pos.
// acc is caller-provided headDim scratch (the online-softmax value
// accumulator), served from the arena.
func (e *Engine) flashRow(cache KVStore, layer, pos int, q, att []float32, acc []float64) {
	hd, kvDim := e.cfg.HeadDim(), e.cfg.KVDim()
	groups := e.cfg.Heads / e.cfg.KVHeads
	scale := 1 / math.Sqrt(float64(hd))

	ctx := pos + 1
	for h := 0; h < e.cfg.Heads; h++ {
		off := h / groups * hd
		qv := q[h*hd : (h+1)*hd]

		// Online softmax state: running max m, denominator l, and the
		// value accumulator (scaled by exp(score-m) weights).
		m := math.Inf(-1)
		l := 0.0
		for j := range acc {
			acc[j] = 0
		}
		for t := 0; t < ctx; {
			kRun, vRun := cache.Run(layer, t)
			n := min(len(kRun)/kvDim, ctx-t)
			for i := 0; i < n; i++ {
				kr := kRun[i*kvDim+off : i*kvDim+off+hd]
				var s float64
				for j, qj := range qv {
					s += float64(qj) * float64(kr[j])
				}
				s *= scale
				if s > m {
					// Rescale previous accumulation to the new maximum.
					corr := math.Exp(m - s)
					l *= corr
					for j := range acc {
						acc[j] *= corr
					}
					m = s
				}
				w := math.Exp(s - m)
				l += w
				vr := vRun[i*kvDim+off : i*kvDim+off+hd]
				for j, vj := range vr {
					acc[j] += w * float64(vj)
				}
			}
			t += n
		}
		out := att[h*hd : (h+1)*hd]
		inv := 1 / l
		for j := range out {
			out[j] = float32(acc[j] * inv)
		}
	}
}
