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
// fan-out descriptor (attn), keeping pool dispatch allocation-free too.
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
	scores []float32 // [workers, ctxCap] attention score scratch, one strip per pool part
	xq     []int8    // [seqRows, max(d,dff)] one sequence's int8 activations
	next   []int     // [batch] sampled tokens, reused view

	rows, batch, seqRows, ctxCap int

	job  kernels.PackedJob
	attn attnJob
}

// ensure sizes the arena for a forward pass over `batch` sequences of
// seqRows rows each, attending over at most ctxCap positions. Sizing
// scores to the KV cache *capacity* (not the current context) means no
// buffer grows as decode advances.
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
	if seqRows > ar.seqRows && e.opts.Kernel == KernelInt8 {
		ar.seqRows = seqRows
		ar.xq = make([]int8, seqRows*max(d, dff))
	}
	if ctxCap > ar.ctxCap {
		ar.ctxCap = ctxCap
		ar.scores = make([]float32, e.pool.Workers()*ctxCap)
	}
}

// attnJob fans one layer's causal attention out over the worker pool. The
// linear layers run as fused GEMMs, but attention reads each sequence's
// own KV cache, so the B·rows independent (sequence, row) attentions are
// the natural parallel unit. Part p takes pairs p, p+parts, …: a row's
// cost grows with its position, and striding spreads that evenly.
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
	e, ar := j.e, j.ar
	d := e.cfg.DModel
	for r := part; r < len(j.caches)*j.rows; r += parts {
		cache, pos := j.caches[r/j.rows], j.startPos+r%j.rows
		e.attnRow(cache, j.layer, pos, ar.q[r*d:(r+1)*d], ar.att[r*d:(r+1)*d],
			ar.scores[part*ar.ctxCap:(part+1)*ar.ctxCap])
	}
}
