package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// attnRow is the per-row attention the head blocks replaced, kept as
// their oracle: causal attention for the single query row q at position
// pos (attending to cache positions 0..pos) into att, one head at a time
// on the per-row ops, keys and values read in the cache's contiguous runs.
// scores is scratch of at least pos+1 values.
func attnRow(e *Engine, cache *PagedKVCache, layer, pos int, q, att, scores []float32) {
	hd, kvDim := e.cfg.HeadDim(), e.cfg.KVDim()
	groups := e.cfg.Heads / e.cfg.KVHeads
	scale := float32(1 / math.Sqrt(float64(hd)))

	sc := scores[:pos+1] // causal: attend to positions ≤ pos
	for h := 0; h < e.cfg.Heads; h++ {
		off := h / groups * hd
		qv := q[h*hd : (h+1)*hd]
		for t := 0; t < len(sc); {
			k, _ := cache.Run(layer, t)
			n := min(len(k)/kvDim, len(sc)-t)
			kernels.DotRows(qv, k[off:], kvDim, n, scale, sc[t:])
			t += n
		}
		kernels.Softmax(sc)
		out := att[h*hd : (h+1)*hd]
		for j := range out {
			out[j] = 0
		}
		for t := 0; t < len(sc); {
			_, v := cache.Run(layer, t)
			n := min(len(v)/kvDim, len(sc)-t)
			kernels.AccumRows(out, sc[t:t+n], v[off:], kvDim)
			t += n
		}
	}
}

// perRowAttention runs a layer's attention row by row through attnRow.
func perRowAttention(e *Engine, ar *arena, caches []*PagedKVCache, layer, rows, startPos int) {
	d := e.cfg.DModel
	scores := make([]float32, caches[0].Cap())
	for r := 0; r < len(caches)*rows; r++ {
		attnRow(e, caches[r/rows], layer, startPos+r%rows, ar.q[r*d:(r+1)*d], ar.att[r*d:(r+1)*d], scores)
	}
}

// splitAttention runs a layer's head blocks fanned out over the pool
// whatever their size: the split path, which the threshold keeps test
// shapes from.
func splitAttention(e *Engine, ar *arena, caches []*PagedKVCache, layer, rows, startPos int) {
	parts := min(len(caches)*e.cfg.Heads, e.pool.Workers())
	ar.strips(parts, e.cfg.HeadDim())
	ar.attn = attnJob{e: e, ar: ar, caches: caches, layer: layer, rows: rows, startPos: startPos}
	e.pool.Run(&ar.attn, parts)
}

// withAttention runs f with each layer's attention done by attend (nil:
// the engine's own dispatch).
func withAttention(attend func(*Engine, *arena, []*PagedKVCache, int, int, int), f func()) {
	attendOverride = attend
	defer func() { attendOverride = nil }()
	f()
}

// attnTrace runs every forward-pass shape on e at KV block size bs and
// returns each one's logits, by name: a batch-4 prefill then batch-4
// decode steps, chunked prefills, a resumed prefill behind an adopted
// prefix (causal offset > 0), a verification pass, and a prompt longer
// than attnTile in one pass and in chunks that cross the tile.
func attnTrace(t *testing.T, e *Engine, bs int) map[string][]float32 {
	t.Helper()
	const promptLen, prefix = 37, 20
	vocab := e.cfg.Vocab
	out := map[string][]float32{}
	keep := func(name string, logits []float32) { out[name] = append(out[name], logits...) }
	must := func(_ []int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	prompts := make([][]int, 4)
	for b := range prompts {
		prompts[b] = prompt(e, promptLen, int64(200+b))
	}

	s := e.NewPagedSession(4, promptLen+4, bs)
	toks, err := e.Prefill(s, prompts)
	if err != nil {
		t.Fatal(err)
	}
	keep("prefill", s.ar.logits[:4*vocab])
	for i := 0; i < 3; i++ {
		if toks, err = e.DecodeStep(s, toks); err != nil {
			t.Fatal(err)
		}
		keep("batch-4 decode", s.ar.logits[:4*vocab])
	}
	s.Release()

	for _, chunk := range []int{1, 5, 16} {
		s := e.NewPagedSession(2, promptLen+1, bs)
		must(e.PrefillChunked(s, prompts[:2], chunk, nil))
		keep(fmt.Sprintf("chunked %d", chunk), s.ar.logits[:2*vocab])
		s.Release()
	}

	src := e.NewPagedSession(1, promptLen+1, bs)
	must(e.Prefill(src, [][]int{prompts[0][:prefix]}))
	fork, err := e.ForkPagedSession(src, prefix)
	if err != nil {
		t.Fatal(err)
	}
	must(e.PrefillResume(fork, [][]int{prompts[0]}))
	keep("resume", fork.ar.logits[:vocab])

	must(e.VerifyRows(src, prompts[2][:9]))
	for i := 0; i < 9; i++ {
		keep("verify", e.rowLogits(src.ar, i))
	}
	fork.Release()
	src.Release()

	long := [][]int{prompt(e, 2*attnTile+9, 300)}
	for _, chunk := range []int{0, attnTile + 7} {
		s := e.NewPagedSession(1, len(long[0]), bs)
		must(e.prefillSample(s, long, chunk, nil))
		keep(fmt.Sprintf("long prefill, chunk %d", chunk), s.ar.logits[:vocab])
		s.Release()
	}
	return out
}

// TestHeadBlocksMatchPerRowAttention holds the engine's attention — inline
// and fanned out over two workers — to the per-row oracle it replaced: the
// logits of every forward-pass shape agree bit for bit, on OPT and on
// GQA LLaMA, at KV block sizes one block, 1 and 16.
func TestHeadBlocksMatchPerRowAttention(t *testing.T) {
	pool := kernels.NewPool(2)
	defer pool.Close()
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		cfg := model.Tiny(f)
		cfg.MaxSeq = 3 * attnTile // room for a prompt of several tiles
		w, err := NewWeights(cfg, 42, tensor.FP32)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(w, Options{Kernel: KernelParallel, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range []int{0, 1, 16} {
			var want, inline, split map[string][]float32
			withAttention(perRowAttention, func() { want = attnTrace(t, e, bs) })
			withAttention(nil, func() { inline = attnTrace(t, e, bs) })
			withAttention(splitAttention, func() { split = attnTrace(t, e, bs) })
			for name, w := range want {
				for way, got := range map[string][]float32{"inline": inline[name], "split": split[name]} {
					if len(got) != len(w) {
						t.Fatalf("%s block %d %s %s: %d logits, oracle %d", cfg.Name, bs, name, way, len(got), len(w))
					}
					for i := range w {
						if math.Float32bits(got[i]) != math.Float32bits(w[i]) {
							t.Errorf("%s block %d %s %s: logit %d is %x, per-row oracle %x", cfg.Name, bs, name, way,
								i, math.Float32bits(got[i]), math.Float32bits(w[i]))
							break
						}
					}
				}
			}
		}
	}
}

// TestArenaGrowsStripsOnlyToSplit holds a session's arena to one strip of
// attention scratch while its passes run inline, and to a strip per pool
// part once the engine's own dispatch splits one (a prompt long enough to
// pass minSplitAttnMACs), whose logits still match the per-row oracle.
func TestArenaGrowsStripsOnlyToSplit(t *testing.T) {
	pool := kernels.NewPool(3)
	defer pool.Close()
	cfg := model.Tiny(model.OPT)
	cfg.MaxSeq = 300
	w, err := NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w, Options{Kernel: KernelParallel, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	hd := e.cfg.HeadDim()
	prefill := func(n int) (*Session, []float32) {
		t.Helper()
		s := e.NewPagedSession(1, n, 0)
		if _, err := e.Prefill(s, [][]int{prompt(e, n, 5)}); err != nil {
			t.Fatal(err)
		}
		return s, append([]float32(nil), s.ar.logits[:e.cfg.Vocab]...)
	}
	strips := func(name string, ar *arena, want int) {
		t.Helper()
		if len(ar.scores) != want*ar.scoreLen || len(ar.kt) != want*16*hd {
			t.Errorf("%s: %d score and %d transpose floats, want %d strips of %d and %d", name,
				len(ar.scores), len(ar.kt), want, ar.scoreLen, 16*hd)
		}
	}
	s, _ := prefill(20)
	strips("inline prefill", s.ar, 1)
	s.Release()

	const long = 256
	if macs := e.cfg.Heads * 2 * hd * long * (long + 1) / 2; macs < minSplitAttnMACs {
		t.Fatalf("a %d-token prompt is %d attention MACs per layer, below the split at %d", long, macs, minSplitAttnMACs)
	}
	s, got := prefill(long)
	strips("split prefill", s.ar, 3)
	s.Release()
	var want []float32
	withAttention(perRowAttention, func() {
		s, want = prefill(long)
		s.Release()
	})
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("split prefill: logit %d is %x, per-row oracle %x", i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}
