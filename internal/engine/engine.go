package engine

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

var errMaxNew = errors.New("engine: maxNew must be positive")
var errReleased = errors.New("engine: session used after Release")

// Options configures the execution of forward passes.
type Options struct {
	// Kernel selects the GEMM tier for linear layers.
	Kernel Kernel
	// Pool is the persistent worker pool used by the packed kernels and
	// batched attention. Nil creates a private pool of GOMAXPROCS workers
	// for the parallel kernel tiers (serial tiers stay serial); passing one
	// lets several engines — e.g. all gateway lanes — share a single set of
	// workers instead of oversubscribing the machine.
	Pool *kernels.Pool
}

// Engine executes forward passes for one set of weights.
type Engine struct {
	cfg    model.Config
	w      *Weights
	opts   Options
	pool   *kernels.Pool   // persistent workers; nil means serial execution
	rope   []float32       // kernels.RoPETable over MaxSeq (LLaMA-2 only)
	scale  float32         // attention's 1/√headDim
	blocks blockLists      // released sessions' KV blocks
	arenas freeList[arena] // and arenas, for new sessions to reuse
}

// New returns an engine over the given weights. The INT8 kernel requires
// quantized shadows (Weights.QuantizeAll). The weights are panel-packed
// once here (shared Weights pack once) and a persistent worker pool is
// attached for the parallel kernel tiers.
func New(w *Weights, opts Options) (*Engine, error) {
	if w == nil {
		return nil, fmt.Errorf("engine: nil weights")
	}
	if opts.Kernel == KernelInt8 && w.Layers[0].Wq.Q == nil {
		return nil, fmt.Errorf("engine: %s kernel requires quantized weights (call QuantizeAll)", opts.Kernel)
	}
	pool := opts.Pool
	if pool == nil && (opts.Kernel == KernelParallel || opts.Kernel == KernelTileBF16Parallel) {
		pool = kernels.NewPool(0)
	}
	w.ensurePacked(opts.Kernel)
	e := &Engine{cfg: w.Config, w: w, opts: opts, pool: pool, blocks: blockLists{m: map[int]*freeList[kvBlock]{}},
		scale: float32(1 / math.Sqrt(float64(w.Config.HeadDim())))}
	e.arenas.pool.New = func() any { return new(arena) }
	if e.cfg.Family == model.LLaMA2 {
		e.rope = kernels.RoPETable(e.cfg.MaxSeq, e.cfg.HeadDim())
	}
	return e, nil
}

// Config returns the model configuration the engine runs.
func (e *Engine) Config() model.Config { return e.cfg }

// Session holds the per-request state of a batch of sequences generated in
// lockstep (homogeneous lengths, as in the paper's workloads).
type Session struct {
	e      *Engine
	caches []*PagedKVCache
	pos    int    // committed tokens per sequence
	ar     *arena // reused scratch for every forward pass; nil once released
	clock  classClock
}

// Classes returns the wall time the session's calls (prefill, decode,
// verification) have spent in the engine so far, by operator class. It
// stays readable after Release.
func (s *Session) Classes() ClassTimes { return s.clock.times }

// Release hands the session's KV blocks (those no fork still holds) and
// arena back for later sessions to reuse. Every later pass on the session
// returns an error; releasing twice is a no-op.
func (s *Session) Release() {
	if s.ar == nil {
		return
	}
	for _, c := range s.caches {
		c.Truncate(0)
	}
	s.e.arenas.put(s.ar)
	s.ar = nil
}

// NewSession allocates KV caches of one block per layer for a batch of
// sequences: the dense layout, each layer's block allocated on its first
// write. Like every session it can be forked (ForkPagedSession).
func (e *Engine) NewSession(batch, maxSeq int) *Session {
	return e.NewPagedSession(batch, maxSeq, 0)
}

// NewPagedSession allocates paged KV caches (vLLM-style lazy blocks of
// blockSize positions; 0 means one block per layer). Generation is
// bit-identical at every block size; only the allocation pattern differs.
func (e *Engine) NewPagedSession(batch, maxSeq, blockSize int) *Session {
	if maxSeq <= 0 || maxSeq > e.cfg.MaxSeq {
		maxSeq = e.cfg.MaxSeq
	}
	if blockSize <= 0 {
		blockSize = maxSeq
	}
	s := &Session{e: e, caches: make([]*PagedKVCache, batch), ar: e.arenas.get()}
	for i := range s.caches {
		s.caches[i] = NewPagedKVCache(e.cfg.Layers, e.cfg.KVDim(), maxSeq, blockSize)
		s.caches[i].free = e.blocks.of(2 * blockSize * e.cfg.KVDim())
	}
	return s
}

// Pos returns the number of committed tokens per sequence.
func (s *Session) Pos() int { return s.pos }

// Batch returns the session's batch size.
func (s *Session) Batch() int { return len(s.caches) }

// KVBytes returns the total allocated KV-cache footprint of the session.
func (s *Session) KVBytes() int64 {
	var b int64
	for _, c := range s.caches {
		b += c.Bytes()
	}
	return b
}

// linear computes out = x·W (+bias) for the m rows of x ([m, l.In]
// row-major; out holds m·l.Out values) on the configured kernel tier: the
// packed GEMM over the tier's FP32 or BF16 pack, or the INT8 kernel over
// the quantized shadow. Scratch comes from the arena, so no tier
// allocates. The INT8 tier quantizes activations with one scale per
// sequence's block of seqRows rows (one row in decode, the chunk in
// prefill), so a sequence's numbers do not depend on what it is batched
// with.
func (e *Engine) linear(ar *arena, m, seqRows int, x []float32, l *Linear, out []float32) {
	if e.opts.Kernel == KernelInt8 {
		xq := ar.xq[:seqRows*l.In]
		for r := 0; r < m; r += seqRows {
			xs := tensor.QuantizeInt8Into(xq, x[r*l.In:(r+seqRows)*l.In])
			kernels.GemmInt8(seqRows, l.Out, l.In, xq, xs, l.Q, l.QScale, out[r*l.Out:(r+seqRows)*l.Out])
		}
	} else {
		kernels.GemmPackedPooled(e.pool, &ar.job, m, x, l.packFor(e.opts.Kernel), out)
	}
	if l.Bias != nil {
		for i := 0; i < m; i++ {
			kernels.AddBias(out[i*l.Out:(i+1)*l.Out], l.Bias)
		}
	}
}

// normRows writes each of the m rows of x normalized into dst (dst may be
// x).
func (e *Engine) normRows(m int, dst, x, gain, bias []float32) {
	d := e.cfg.DModel
	for i := 0; i < m; i++ {
		if e.cfg.Family == model.OPT {
			kernels.LayerNorm(dst[i*d:(i+1)*d], x[i*d:(i+1)*d], gain, bias, 1e-5)
		} else {
			kernels.RMSNorm(dst[i*d:(i+1)*d], x[i*d:(i+1)*d], gain, 1e-5)
		}
	}
}

// embed writes the embedding of token at position pos into dst (d values).
func (e *Engine) embed(token, pos int, dst []float32) {
	d := e.cfg.DModel
	copy(dst, e.w.TokenEmb[token*d:(token+1)*d])
	if e.w.PosEmb != nil {
		kernels.Add(dst, e.w.PosEmb[pos*d:(pos+1)*d])
	}
}

// attention runs one layer's causal attention over the pass's rows: one
// kernels.HeadBlock pass per (sequence, head), inline unless the layer's
// work passes minSplitAttnMACs, then fanned out over the pool with the
// (sequence, head) pairs as the unit.
func (e *Engine) attention(ar *arena, caches []*PagedKVCache, layer, rows, startPos int) {
	if attendOverride != nil {
		attendOverride(e, ar, caches, layer, rows, startPos)
		return
	}
	units := len(caches) * e.cfg.Heads
	// Each unit's scores and weighted sums: hd multiply-adds per (row, key).
	macs := units * 2 * e.cfg.HeadDim() * (rows*startPos + rows*(rows+1)/2)
	parts := 1
	if macs >= minSplitAttnMACs {
		parts = min(units, e.pool.Workers())
		ar.strips(parts, e.cfg.HeadDim())
	}
	ar.attn = attnJob{e: e, ar: ar, caches: caches, layer: layer, rows: rows, startPos: startPos}
	e.pool.Run(&ar.attn, parts)
	ar.attn.caches = nil // keep no caller slice alive
}

// attendOverride, when a test sets it, runs each layer's attention in
// place of this dispatch: the per-row oracle, or a forced split.
var attendOverride func(e *Engine, ar *arena, caches []*PagedKVCache, layer, rows, startPos int)

// minSplitAttnMACs is the least attention work (multiply-adds, over every
// head of every sequence) of a layer that goes to the pool. A parked
// worker takes long enough to wake that, below it, the caller has
// finished the layer by the time the worker would have helped, as with
// kernels' minSplitMACs for a GEMM. The break-even is a time — measured
// on a two-vCPU host, about 250 µs of inline work — and the head blocks
// of a multi-row pass run 9–20 GMAC/s there, so 2²² multiply-adds. A
// decode step's one-row blocks run 3.5–5 GMAC/s, so they reach it only
// well past 250 µs; the two decode shapes measured below it lost or tied
// split. No benchmark shape comes near it. docs/performance.md has the
// measurement.
const minSplitAttnMACs = 1 << 22

// attendHead computes head `head` of sequence b's causal attention for
// the pass's rows, at most attnTile query rows per HeadBlock, into ar.att,
// on part `part`'s scratch. Keys and values are read in the cache's
// contiguous runs.
func (e *Engine) attendHead(ar *arena, part int, cache *PagedKVCache, layer, b, head, rows, startPos int) {
	d, hd, kvDim := e.cfg.DModel, e.cfg.HeadDim(), e.cfg.KVDim()
	off := head / (e.cfg.Heads / e.cfg.KVHeads) * hd
	scores := ar.scores[part*ar.scoreLen : (part+1)*ar.scoreLen]
	kt := ar.kt[part*16*hd : (part+1)*16*hd]
	for r0 := 0; r0 < rows; r0 += attnTile {
		row := (b*rows+r0)*d + head*hd
		blk := kernels.HeadBlock{Rows: min(attnTile, rows-r0), Start: startPos + r0, Cols: hd, Scale: e.scale,
			Q: ar.q[row:], QStride: d, S: scores, SStride: ar.ctxCap, Out: ar.att[row:], OutStride: d, KT: kt}
		ctx := blk.Start + blk.Rows
		for t := 0; t < ctx; {
			k, _ := cache.Run(layer, t)
			n := min(len(k)/kvDim, ctx-t)
			blk.Scores(k[off:], kvDim, t, n)
			t += n
		}
		blk.Softmax()
		for r := 0; r < blk.Rows; r++ {
			clear(ar.att[row+r*d:][:hd])
		}
		for t := 0; t < ctx; {
			_, v := cache.Run(layer, t)
			n := min(len(v)/kvDim, ctx-t)
			blk.Accum(v[off:], kvDim, t, n)
			t += n
		}
	}
}

// forward runs all decoder blocks over `rows` new tokens, at positions
// startPos.., of each of the session's first B sequences, filling their KV
// caches (positions are written, not committed), and adds each operator
// class's time to the session's clock. It is the engine's one
// forward pass: prefill (rows = the prompt or a chunk of it), speculative
// verification and eval (B = 1), and decode (rows = 1) differ only in
// shape. ar.x holds the embeddings on entry and the final hidden states on
// return, [B·rows, d] with sequence b's rows at b·rows..; the arena must
// have been sized by ensure(e, B, rows, ·). Whatever ran since the
// previous lap (checks, arena sizing, the embeddings) stays unattributed.
//
// The B·rows hidden rows are stacked into one activation matrix so every
// linear layer runs ONCE per layer as a single GEMM (the weights stream
// from memory once per layer instead of once per sequence — the paper's
// arithmetic-intensity lever); attention reads each sequence's own cache
// in one pass per (sequence, head) over all the rows. All scratch
// comes from the arena: a warm forward pass performs no heap allocation.
// Results are bit-identical for any batching of the same sequences.
func (e *Engine) forward(s *Session, B, rows, startPos int) {
	d, kvDim, dff, hd := e.cfg.DModel, e.cfg.KVDim(), e.cfg.DFF, e.cfg.HeadDim()
	ar, caches, clk := s.ar, s.caches[:B], &s.clock
	m := B * rows
	x, h := ar.x[:m*d], ar.h[:m*d]

	clk.skip()
	for layer := range e.w.Layers {
		lw := &e.w.Layers[layer]
		// Attention block.
		e.normRows(m, h, x, lw.AttnNormGain, lw.AttnNormBias)
		clk.lap(ClassNorm)
		e.linear(ar, m, rows, h, &lw.Wq, ar.q)
		e.linear(ar, m, rows, h, &lw.Wk, ar.k)
		e.linear(ar, m, rows, h, &lw.Wv, ar.v)
		clk.lap(ClassLinear)
		if e.rope != nil {
			for r := 0; r < m; r++ {
				rot := e.rope[(startPos+r%rows)*hd:][:hd]
				for head := 0; head < e.cfg.Heads; head++ {
					kernels.RoPERotate(ar.q[r*d+head*hd:r*d+(head+1)*hd], rot)
				}
				for head := 0; head < e.cfg.KVHeads; head++ {
					kernels.RoPERotate(ar.k[r*kvDim+head*hd:r*kvDim+(head+1)*hd], rot)
				}
			}
			clk.lap(ClassRoPE)
		}
		for r := 0; r < m; r++ {
			caches[r/rows].Put(layer, startPos+r%rows, ar.k[r*kvDim:(r+1)*kvDim], ar.v[r*kvDim:(r+1)*kvDim])
		}
		clk.lap(ClassKVWrite)
		e.attention(ar, caches, layer, rows, startPos)
		clk.lap(ClassAttention)
		e.linear(ar, m, rows, ar.att, &lw.Wo, ar.proj)
		clk.lap(ClassLinear)
		kernels.Add(x, ar.proj[:m*d])
		clk.lap(ClassResidual)

		// Feed-forward block.
		e.normRows(m, h, x, lw.FFNNormGain, lw.FFNNormBias)
		clk.lap(ClassNorm)
		if e.cfg.Family == model.LLaMA2 {
			gate, up := ar.gate[:m*dff], ar.up[:m*dff]
			e.linear(ar, m, rows, h, &lw.WGate, gate)
			e.linear(ar, m, rows, h, &lw.W1, up)
			clk.lap(ClassLinear)
			kernels.SiLU(gate)
			for i := range gate {
				gate[i] *= up[i]
			}
			clk.lap(ClassActivation)
			e.linear(ar, m, rows, gate, &lw.W2, ar.proj)
		} else {
			e.linear(ar, m, rows, h, &lw.W1, ar.up)
			clk.lap(ClassLinear)
			kernels.ReLU(ar.up[:m*dff])
			clk.lap(ClassActivation)
			e.linear(ar, m, rows, ar.up, &lw.W2, ar.proj)
		}
		clk.lap(ClassLinear)
		kernels.Add(x, ar.proj[:m*d])
		clk.lap(ClassResidual)
	}
}

// logits computes the vocabulary logits of the hidden states x ([m, d];
// x may be ar.h, which the final norm writes either way) into the arena's
// reused logits buffer and returns them, [m, vocab]. m never exceeds the
// batch the arena was sized for: multi-row passes (verification, eval) ask
// row by row. The norm and the head are laps of the session's clock.
func (e *Engine) logits(s *Session, x []float32) []float32 {
	d, ar := e.cfg.DModel, s.ar
	m := len(x) / d
	h, out := ar.h[:m*d], ar.logits[:m*e.cfg.Vocab]
	e.normRows(m, h, x, e.w.FinalNormGain, e.w.FinalNormBias)
	s.clock.lap(ClassNorm)
	if e.cfg.Family == model.OPT { // tied head: logits = TokenEmb · h
		kernels.GemmPackedPooled(e.pool, &ar.job, m, h, e.w.tiedHead, out)
	} else {
		e.linear(ar, m, 1, h, &e.w.LMHead, out)
	}
	s.clock.lap(ClassLinear)
	return out
}

// forwardTokens runs toks through the network at positions s.Pos().. of
// the session's first sequence, writing (not committing) their KV rows.
// Tokens outside the vocabulary or past the session's capacity are an
// error before anything runs.
func (e *Engine) forwardTokens(s *Session, toks []int) error {
	if err := e.checkTokens(toks); err != nil {
		return err
	}
	if err := s.checkContext(s.pos + len(toks)); err != nil {
		return err
	}
	d, ar := e.cfg.DModel, s.ar
	ar.ensure(e, 1, len(toks), s.caches[0].Cap())
	for i, tok := range toks {
		e.embed(tok, s.pos+i, ar.x[i*d:(i+1)*d])
	}
	e.forward(s, 1, len(toks), s.pos)
	return nil
}

// rowLogits returns the logits of hidden row i of the session's last
// forward pass.
func (e *Engine) rowLogits(s *Session, i int) []float32 {
	d := e.cfg.DModel
	return e.logits(s, s.ar.x[i*d:(i+1)*d])
}

// Prefill processes the prompts of a batch (all of equal length) and
// returns the greedy first output token of each sequence.
func (e *Engine) Prefill(s *Session, prompts [][]int) ([]int, error) {
	return e.prefillSample(s, prompts, 0, nil)
}

// PrefillChunked processes the prompts in chunks of at most `chunk`
// tokens (Sarathi-style chunked prefill). The KV cache and the returned
// first tokens are identical to a monolithic Prefill — causal attention
// makes prefix processing order-independent across chunk boundaries.
func (e *Engine) PrefillChunked(s *Session, prompts [][]int, chunk int, sampler *Sampler) ([]int, error) {
	if chunk <= 0 {
		return nil, fmt.Errorf("engine: non-positive prefill chunk %d", chunk)
	}
	return e.prefillSample(s, prompts, chunk, sampler)
}

// prefillSample prefills a fresh session, chunk positions at a time (0 =
// all at once).
func (e *Engine) prefillSample(s *Session, prompts [][]int, chunk int, sampler *Sampler) ([]int, error) {
	if s.pos != 0 {
		return nil, fmt.Errorf("engine: session already prefilled")
	}
	return e.prefillFrom(s, prompts, chunk, sampler)
}

// prefillFrom runs the prompt positions the session has not committed yet
// (all of them, or the tail behind an adopted prefix) through the network,
// the whole batch per forward pass, at most chunk positions at a time
// (0 = all at once), and samples each sequence's first output token.
func (e *Engine) prefillFrom(s *Session, prompts [][]int, chunk int, sampler *Sampler) ([]int, error) {
	s.clock.begin()
	defer s.clock.end()
	if len(prompts) != s.Batch() {
		return nil, fmt.Errorf("engine: %d prompts for batch %d", len(prompts), s.Batch())
	}
	rows := len(prompts[0])
	if rows == 0 {
		return nil, fmt.Errorf("engine: empty prompt")
	}
	for _, prompt := range prompts {
		if len(prompt) != rows {
			return nil, fmt.Errorf("engine: ragged prompts (%d vs %d); pad the batch", len(prompt), rows)
		}
		if err := e.checkTokens(prompt); err != nil {
			return nil, err
		}
	}
	if err := s.checkContext(rows); err != nil {
		return nil, err
	}
	from := s.pos
	if chunk <= 0 || chunk > rows-from {
		chunk = rows - from
	}
	B, d := len(prompts), e.cfg.DModel
	ar := s.ar
	ar.ensure(e, B, chunk, s.caches[0].Cap())
	n := chunk
	for lo := from; lo < rows; lo += n {
		n = min(chunk, rows-lo)
		for b, prompt := range prompts {
			for i, tok := range prompt[lo : lo+n] {
				e.embed(tok, lo+i, ar.x[(b*n+i)*d:(b*n+i+1)*d])
			}
		}
		e.forward(s, B, n, lo)
		s.Commit(lo + n)
	}
	for b := 0; b < B; b++ { // each sequence's last hidden row
		copy(ar.h[b*d:(b+1)*d], ar.x[(b*n+n-1)*d:(b*n+n)*d])
	}
	s.clock.skip()
	logits := e.logits(s, ar.h[:B*d])
	next := make([]int, B)
	for b := range next {
		next[b] = sampler.Sample(logits[b*e.cfg.Vocab : (b+1)*e.cfg.Vocab])
	}
	s.clock.lap(ClassSampling)
	return next, nil
}

// DecodeStep feeds one token per sequence and returns the next greedy
// token for each.
func (e *Engine) DecodeStep(s *Session, tokens []int) ([]int, error) {
	return e.decodeSample(s, tokens, nil)
}

func (e *Engine) decodeSample(s *Session, tokens []int, sampler *Sampler) ([]int, error) {
	s.clock.begin()
	defer s.clock.end()
	if len(tokens) != s.Batch() {
		return nil, fmt.Errorf("engine: %d tokens for batch %d", len(tokens), s.Batch())
	}
	if s.pos == 0 {
		return nil, fmt.Errorf("engine: decode before prefill")
	}
	if err := e.checkTokens(tokens); err != nil {
		return nil, err
	}
	if err := s.checkContext(s.pos + 1); err != nil {
		return nil, err
	}
	B, d, vocab := len(tokens), e.cfg.DModel, e.cfg.Vocab
	ar := s.ar
	ar.ensure(e, B, 1, s.caches[0].Cap())
	for b, tok := range tokens {
		e.embed(tok, s.pos, ar.x[b*d:(b+1)*d])
	}
	e.forward(s, B, 1, s.pos)
	logits := e.logits(s, ar.x[:B*d])
	for b := range tokens {
		ar.next[b] = sampler.Sample(logits[b*vocab : (b+1)*vocab])
	}
	s.clock.lap(ClassSampling)
	s.Commit(s.pos + 1)
	// ar.next is a reused view, valid until the next decode step or Release;
	// callers needing to retain it copy (Generate appends element-wise).
	return ar.next[:B], nil
}

// checkContext rejects a pass on a released session, or one that would
// leave it holding ctx tokens per sequence, more than its caches hold.
func (s *Session) checkContext(ctx int) error {
	if s.ar == nil {
		return errReleased
	}
	if c := s.caches[0].Cap(); ctx > c {
		return fmt.Errorf("engine: context %d exceeds capacity %d", ctx, c)
	}
	return nil
}

func (e *Engine) checkTokens(toks []int) error {
	for _, t := range toks {
		if t < 0 || t >= e.cfg.Vocab {
			return fmt.Errorf("engine: token %d outside vocab %d", t, e.cfg.Vocab)
		}
	}
	return nil
}

// Stats reports measured timings of a Generate call — the functional
// engine's real TTFT/TPOT, the quantities the simulator models at scale.
type Stats struct {
	PrefillSeconds float64
	DecodeSeconds  float64
	TokensOut      int // steps run: the prefill's, then one per decode step
	// Classes splits the engine's part of both phases by operator class.
	Classes ClassTimes
}

// TTFT returns the measured time to first token.
func (s Stats) TTFT() float64 { return s.PrefillSeconds }

// TPOT returns the measured mean time per subsequent output token.
func (s Stats) TPOT() float64 {
	if s.TokensOut <= 1 {
		return 0
	}
	return s.DecodeSeconds / float64(s.TokensOut-1)
}

// Generate runs greedy generation of maxNew tokens for a batch of equal-
// length prompts, returning the generated tokens per sequence and timing.
func (e *Engine) Generate(prompts [][]int, maxNew int) ([][]int, Stats, error) {
	return e.GenerateWith(prompts, GenerateOptions{MaxNew: maxNew})
}

// TokenCallback receives each newly generated token (sequence index,
// step, token). Returning false stops that sequence's generation early.
type TokenCallback func(seq, step, token int) bool

// GenerateOptions controls generation.
type GenerateOptions struct {
	MaxNew int
	// Sampler selects tokens; nil means greedy.
	Sampler *Sampler
	// OnToken, when non-nil, sees each token as it is produced — the
	// serving path's token-by-token delivery, and its stop condition: a
	// sequence whose callback returns false ends before that token.
	OnToken TokenCallback
	// PrefillChunk processes the prompt in chunks of this many tokens
	// (Sarathi-style chunked prefill; 0 = whole prompt at once). The
	// result is bit-identical to unchunked prefill — chunking bounds the
	// latency impact of long prompts on co-scheduled decodes.
	PrefillChunk int
}

// GenerateWith is the engine's generation loop: one prefill, then decode
// steps until every sequence has MaxNew tokens or was stopped by OnToken.
func (e *Engine) GenerateWith(prompts [][]int, opts GenerateOptions) ([][]int, Stats, error) {
	if opts.MaxNew <= 0 {
		return nil, Stats{}, errMaxNew
	}
	if len(prompts) == 0 {
		return nil, Stats{}, fmt.Errorf("engine: no prompts")
	}
	if opts.PrefillChunk < 0 {
		return nil, Stats{}, fmt.Errorf("engine: negative prefill chunk %d", opts.PrefillChunk)
	}
	s := e.NewSession(len(prompts), len(prompts[0])+opts.MaxNew)
	defer s.Release()

	start := time.Now()
	toks, err := e.prefillSample(s, prompts, opts.PrefillChunk, opts.Sampler)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{PrefillSeconds: time.Since(start).Seconds()}

	decodeStart := time.Now()
	out := make([][]int, len(prompts))
	for b := range out {
		out[b] = make([]int, 0, min(opts.MaxNew, s.caches[0].Cap()))
	}
	stopped := make([]bool, len(prompts))
	live := len(prompts)
	for step := 0; ; step++ {
		for b, tok := range toks {
			if stopped[b] {
				continue
			}
			if opts.OnToken != nil && !opts.OnToken(b, step, tok) {
				stopped[b] = true
				live--
				continue
			}
			out[b] = append(out[b], tok)
		}
		if step+1 == opts.MaxNew || live == 0 {
			stats.TokensOut = step + 1
			break
		}
		if toks, err = e.decodeSample(s, toks, opts.Sampler); err != nil {
			return nil, Stats{}, err
		}
	}
	stats.DecodeSeconds = time.Since(decodeStart).Seconds()
	stats.Classes = s.Classes()
	return out, stats, nil
}
