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

var (
	errMaxNew    = errors.New("engine: maxNew must be positive")
	errNoPrompts = errors.New("engine: no prompts")
)

// lapTimer measures consecutive phase durations.
type lapTimer struct{ last time.Time }

func newTimer() *lapTimer { return &lapTimer{last: time.Now()} }

func (t *lapTimer) lap() float64 {
	now := time.Now()
	d := now.Sub(t.last).Seconds()
	t.last = now
	return d
}

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
	// Hooks receive phase-completion callbacks from forward passes, so
	// callers (tracing, profiling) can attribute measured engine time
	// without wrapping every call site. Nil hooks are skipped.
	Hooks Hooks
}

// Hooks are optional observers of the engine's execution phases. They run
// synchronously on the calling goroutine after the phase completes, so
// implementations must be fast and must not call back into the engine.
type Hooks struct {
	// OnPrefill fires after a successful prompt prefill (monolithic or
	// chunked) with the batch size, prompt length in tokens, and the
	// measured wall time of the phase.
	OnPrefill func(batch, promptLen int, elapsed time.Duration)
	// OnDecodeStep fires after each successful decode step with the batch
	// size, the context position the step consumed (tokens already
	// committed), and the measured wall time of the step.
	OnDecodeStep func(batch, pos int, elapsed time.Duration)
}

// Engine executes forward passes for one set of weights.
type Engine struct {
	cfg  model.Config
	w    *Weights
	opts Options
	pool *kernels.Pool // persistent workers; nil means serial execution
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
	return &Engine{cfg: w.Config, w: w, opts: opts, pool: pool}, nil
}

// Config returns the model configuration the engine runs.
func (e *Engine) Config() model.Config { return e.cfg }

// Session holds the per-request state of a batch of sequences generated in
// lockstep (homogeneous lengths, as in the paper's workloads).
type Session struct {
	caches []KVStore
	pos    int   // committed tokens per sequence
	ar     arena // reused scratch for every forward pass on this session
}

// NewSession allocates dense KV caches for a batch of sequences.
func (e *Engine) NewSession(batch, maxSeq int) *Session {
	if maxSeq <= 0 || maxSeq > e.cfg.MaxSeq {
		maxSeq = e.cfg.MaxSeq
	}
	s := &Session{caches: make([]KVStore, batch)}
	for i := range s.caches {
		s.caches[i] = NewKVCache(e.cfg.Layers, e.cfg.KVDim(), maxSeq)
	}
	return s
}

// NewPagedSession allocates paged KV caches (vLLM-style lazy blocks of
// blockSize positions). Generation is bit-identical to a dense session;
// only the allocation pattern differs.
func (e *Engine) NewPagedSession(batch, maxSeq, blockSize int) *Session {
	if maxSeq <= 0 || maxSeq > e.cfg.MaxSeq {
		maxSeq = e.cfg.MaxSeq
	}
	s := &Session{caches: make([]KVStore, batch)}
	for i := range s.caches {
		s.caches[i] = NewPagedKVCache(e.cfg.Layers, e.cfg.KVDim(), maxSeq, blockSize)
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

// normRows normalizes each of the m rows of x in place.
func (e *Engine) normRows(m int, x, gain, bias []float32) {
	d := e.cfg.DModel
	for i := 0; i < m; i++ {
		if e.cfg.Family == model.OPT {
			kernels.LayerNorm(x[i*d:(i+1)*d], gain, bias, 1e-5)
		} else {
			kernels.RMSNorm(x[i*d:(i+1)*d], gain, 1e-5)
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

// attnRow computes causal attention for the single query row q at position
// pos (attending to cache positions 0..pos), writing the result to att.
// scores is scratch of at least pos+1 values. Keys and values are read in
// the cache's contiguous runs.
func (e *Engine) attnRow(cache KVStore, layer, pos int, q, att, scores []float32) {
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

// forward runs all decoder blocks over `rows` new tokens, at positions
// startPos.., of each of the B = len(caches) sequences, filling their KV
// caches (positions are written, not committed). It is the engine's one
// forward pass: prefill (rows = the prompt or a chunk of it), speculative
// verification and eval (B = 1), and decode (rows = 1) differ only in
// shape. ar.x holds the embeddings on entry and the final hidden states on
// return, [B·rows, d] with sequence b's rows at b·rows..; the arena must
// have been sized by ensure(e, B, rows, ·).
//
// The B·rows hidden rows are stacked into one activation matrix so every
// linear layer runs ONCE per layer as a single GEMM (the weights stream
// from memory once per layer instead of once per sequence — the paper's
// arithmetic-intensity lever); attention reads each sequence's own cache
// and fans the (sequence, row) pairs out over the worker pool. All scratch
// comes from the arena: a warm forward pass performs no heap allocation.
// Results are bit-identical for any batching of the same sequences.
func (e *Engine) forward(ar *arena, caches []KVStore, rows, startPos int) {
	d, kvDim, dff, hd := e.cfg.DModel, e.cfg.KVDim(), e.cfg.DFF, e.cfg.HeadDim()
	m := len(caches) * rows
	x, h := ar.x[:m*d], ar.h[:m*d]

	for layer := range e.w.Layers {
		lw := &e.w.Layers[layer]
		// Attention block.
		copy(h, x)
		e.normRows(m, h, lw.AttnNormGain, lw.AttnNormBias)
		e.linear(ar, m, rows, h, &lw.Wq, ar.q)
		e.linear(ar, m, rows, h, &lw.Wk, ar.k)
		e.linear(ar, m, rows, h, &lw.Wv, ar.v)
		for r := 0; r < m; r++ {
			pos := startPos + r%rows
			if e.cfg.Family == model.LLaMA2 {
				for head := 0; head < e.cfg.Heads; head++ {
					kernels.RoPE(ar.q[r*d+head*hd:r*d+(head+1)*hd], pos, hd)
				}
				for head := 0; head < e.cfg.KVHeads; head++ {
					kernels.RoPE(ar.k[r*kvDim+head*hd:r*kvDim+(head+1)*hd], pos, hd)
				}
			}
			caches[r/rows].Put(layer, pos, ar.k[r*kvDim:(r+1)*kvDim], ar.v[r*kvDim:(r+1)*kvDim])
		}
		ar.attn = attnJob{e: e, ar: ar, caches: caches, layer: layer, rows: rows, startPos: startPos}
		e.pool.Run(&ar.attn, min(m, e.pool.Workers()))
		e.linear(ar, m, rows, ar.att, &lw.Wo, ar.proj)
		kernels.Add(x, ar.proj[:m*d])

		// Feed-forward block.
		copy(h, x)
		e.normRows(m, h, lw.FFNNormGain, lw.FFNNormBias)
		if e.cfg.Family == model.LLaMA2 {
			gate, up := ar.gate[:m*dff], ar.up[:m*dff]
			e.linear(ar, m, rows, h, &lw.WGate, gate)
			kernels.SiLU(gate)
			e.linear(ar, m, rows, h, &lw.W1, up)
			for i := range gate {
				gate[i] *= up[i]
			}
			e.linear(ar, m, rows, gate, &lw.W2, ar.proj)
		} else {
			e.linear(ar, m, rows, h, &lw.W1, ar.up)
			kernels.ReLU(ar.up[:m*dff])
			e.linear(ar, m, rows, ar.up, &lw.W2, ar.proj)
		}
		kernels.Add(x, ar.proj[:m*d])
	}
}

// logits computes the vocabulary logits of the m hidden states in
// ar.h[:m·d] (which the final norm overwrites) into the arena's reused
// logits buffer and returns them, [m, vocab]. m never exceeds the batch
// the arena was sized for: multi-row passes (verification, eval) ask row
// by row.
func (e *Engine) logits(ar *arena, m int) []float32 {
	d := e.cfg.DModel
	h, out := ar.h[:m*d], ar.logits[:m*e.cfg.Vocab]
	e.normRows(m, h, e.w.FinalNormGain, e.w.FinalNormBias)
	if e.cfg.Family == model.OPT { // tied head: logits = TokenEmb · h
		kernels.GemmPackedPooled(e.pool, &ar.job, m, h, e.w.tiedHead, out)
	} else {
		e.linear(ar, m, 1, h, &e.w.LMHead, out)
	}
	return out
}

// forwardTokens runs toks, at positions startPos.., through the network
// for the one sequence whose cache is caches[0], sizing the arena first.
func (e *Engine) forwardTokens(ar *arena, caches []KVStore, toks []int, startPos int) {
	d := e.cfg.DModel
	ar.ensure(e, 1, len(toks), caches[0].Cap())
	for i, tok := range toks {
		e.embed(tok, startPos+i, ar.x[i*d:(i+1)*d])
	}
	e.forward(ar, caches[:1], len(toks), startPos)
}

// rowLogits returns the logits of hidden row i of ar.x.
func (e *Engine) rowLogits(ar *arena, i int) []float32 {
	d := e.cfg.DModel
	copy(ar.h[:d], ar.x[i*d:(i+1)*d])
	return e.logits(ar, 1)
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
	start := time.Now()
	from := s.pos
	if chunk <= 0 || chunk > rows-from {
		chunk = rows - from
	}
	B, d := len(prompts), e.cfg.DModel
	ar := &s.ar
	ar.ensure(e, B, chunk, s.caches[0].Cap())
	n := chunk
	for lo := from; lo < rows; lo += n {
		n = min(chunk, rows-lo)
		for b, prompt := range prompts {
			for i, tok := range prompt[lo : lo+n] {
				e.embed(tok, lo+i, ar.x[(b*n+i)*d:(b*n+i+1)*d])
			}
		}
		e.forward(ar, s.caches, n, lo)
		s.Commit(lo + n)
	}
	for b := 0; b < B; b++ { // each sequence's last hidden row
		copy(ar.h[b*d:(b+1)*d], ar.x[(b*n+n-1)*d:(b*n+n)*d])
	}
	logits := e.logits(ar, B)
	next := make([]int, B)
	for b := range next {
		next[b] = sampler.Sample(logits[b*e.cfg.Vocab : (b+1)*e.cfg.Vocab])
	}
	if h := e.opts.Hooks.OnPrefill; h != nil {
		h(B, rows-from, time.Since(start))
	}
	return next, nil
}

// DecodeStep feeds one token per sequence and returns the next greedy
// token for each.
func (e *Engine) DecodeStep(s *Session, tokens []int) ([]int, error) {
	return e.decodeSample(s, tokens, nil)
}

func (e *Engine) decodeSample(s *Session, tokens []int, sampler *Sampler) ([]int, error) {
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
	start := time.Now()
	B, d, vocab := len(tokens), e.cfg.DModel, e.cfg.Vocab
	ar := &s.ar
	ar.ensure(e, B, 1, s.caches[0].Cap())
	for b, tok := range tokens {
		e.embed(tok, s.pos, ar.x[b*d:(b+1)*d])
	}
	e.forward(ar, s.caches, 1, s.pos)
	copy(ar.h[:B*d], ar.x[:B*d])
	logits := e.logits(ar, B)
	for b := range tokens {
		ar.next[b] = sampler.Sample(logits[b*vocab : (b+1)*vocab])
	}
	if h := e.opts.Hooks.OnDecodeStep; h != nil {
		h(B, s.pos, time.Since(start))
	}
	s.Commit(s.pos + 1)
	// ar.next is a reused view, valid until the next decode step; callers
	// needing to retain it copy (Generate appends element-wise).
	return ar.next[:B], nil
}

// checkContext rejects a pass that would leave the session holding ctx
// tokens per sequence when its KV caches were sized for fewer.
func (s *Session) checkContext(ctx int) error {
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
	TokensOut      int
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
	if maxNew <= 0 {
		return nil, Stats{}, errMaxNew
	}
	if len(prompts) == 0 {
		return nil, Stats{}, errNoPrompts
	}
	s := e.NewSession(len(prompts), len(prompts[0])+maxNew)

	start := time.Now()
	toks, err := e.Prefill(s, prompts)
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{PrefillSeconds: time.Since(start).Seconds(), TokensOut: maxNew}

	out := make([][]int, len(prompts))
	for b := range out {
		out[b] = append(out[b], toks[b])
	}
	decodeStart := time.Now()
	for step := 1; step < maxNew; step++ {
		toks, err = e.DecodeStep(s, toks)
		if err != nil {
			return nil, Stats{}, err
		}
		for b := range out {
			out[b] = append(out[b], toks[b])
		}
	}
	stats.DecodeSeconds = time.Since(decodeStart).Seconds()
	return out, stats, nil
}
