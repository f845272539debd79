package engine

import (
	"repro/internal/kernels"
	"repro/internal/model"
)

// arena is the scratch of the forward pass, one per live Session (Release
// hands it to the next). Buffers are grow-only and reused, so a warm step
// performs no per-layer heap allocation — the paper's decode phase is
// memory-bandwidth-bound, and allocator traffic plus GC pressure on top of
// it is pure overhead. The arena also owns the reusable packed-GEMM
// dispatch state (job, with its bf16 rounding buffer) and the attention
// dispatch descriptor (attn), keeping pool dispatch allocation-free too.
type arena struct {
	x      []float32 // [rows, d] residual stream
	h      []float32 // [rows, d] normed hidden
	q      []float32 // [rows, d] query projection
	k      []float32 // [rows, kvDim]
	v      []float32 // [rows, kvDim]
	att    []float32 // [rows, d] attention output
	proj   []float32 // [rows, d] output projection
	up     []float32 // [rows, dff]
	gate   []float32 // [rows, dff], LLaMA-2 only
	logits []float32 // [batch, vocab] — never [rows, vocab]: multi-row passes ask row by row
	scores []float32 // [parts, scoreLen] attention scores, one strip per pool part
	kt     []float32 // [parts, 16·headDim] one transposed key group per pool part
	next   []int     // [batch] sampled tokens, reused view

	rows, batch, ctxCap int
	scoreLen            int // a strip: min(seqRows, attnTile) rows of ctxCap

	job  kernels.PackedJob
	attn attnJob
}

// ensure sizes the arena for a forward pass over `batch` sequences of
// seqRows rows each, attending over at most ctxCap positions. Sizing
// scores to the KV cache *capacity* (not the current context) means no
// buffer grows as decode advances; one strip holds a head block's rows at
// a row stride of ctxCap. It sizes one pool part's strip: a pass that
// splits its attention grows the rest (strips).
func (ar *arena) ensure(e *Engine, batch, seqRows, ctxCap int) {
	d, kvDim, dff := e.cfg.DModel, e.cfg.KVDim(), e.cfg.DFF
	if rows := batch * seqRows; rows > ar.rows {
		ar.rows = rows
		ar.x = make([]float32, rows*d)
		ar.h = make([]float32, rows*d)
		ar.q = make([]float32, rows*d)
		ar.k = make([]float32, rows*kvDim)
		ar.v = make([]float32, rows*kvDim)
		ar.att = make([]float32, rows*d)
		ar.proj = make([]float32, rows*d)
		ar.up = make([]float32, rows*dff)
		if e.cfg.Family == model.LLaMA2 {
			ar.gate = make([]float32, rows*dff)
		}
	}
	if batch > ar.batch {
		ar.batch = batch
		ar.logits = make([]float32, batch*e.cfg.Vocab)
		ar.next = make([]int, batch)
	}
	ar.ctxCap = max(ar.ctxCap, ctxCap)
	if n := min(seqRows, attnTile) * ar.ctxCap; n > ar.scoreLen {
		ar.scoreLen = n
		ar.scores = make([]float32, n)
	}
	ar.strips(1, e.cfg.HeadDim())
}

// strips makes room for `parts` strips of attention scratch, keeping what
// is there when it already fits.
func (ar *arena) strips(parts, headDim int) {
	if n := parts * ar.scoreLen; n > len(ar.scores) {
		ar.scores = make([]float32, n)
	}
	if n := parts * 16 * headDim; n > len(ar.kt) {
		ar.kt = make([]float32, n)
	}
}

// attnTile is the most query rows one head block takes: a longer pass's
// rows go through in tiles, so a strip of scores stays attnTile·ctxCap.
const attnTile = 64

// attnJob runs one layer's attention, a HeadBlock pass per (sequence,
// head). Part p takes pairs p, p+parts, …, on its own strip of scratch.
type attnJob struct {
	e        *Engine
	ar       *arena
	caches   []*PagedKVCache
	layer    int
	rows     int // per sequence
	startPos int
}

// RunPart implements kernels.Task.
func (j *attnJob) RunPart(part, parts int) {
	heads := j.e.cfg.Heads
	for u := part; u < len(j.caches)*heads; u += parts {
		j.e.attendHead(j.ar, part, j.caches[u/heads], j.layer, u/heads, u%heads, j.rows, j.startPos)
	}
}
