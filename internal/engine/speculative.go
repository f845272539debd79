package engine

import (
	"fmt"

	"repro/internal/kernels"
)

// Speculative decoding (the paper's related work [37], SpecInfer): a small
// draft model proposes lookahead tokens autoregressively and the target
// model verifies the whole proposal in one forward pass. With greedy
// acceptance the output is bit-identical to the target's own greedy
// generation — the draft only changes *how fast* tokens are produced,
// converting k memory-bound target steps into one multi-row pass. On the
// CPUs this paper characterizes that is exactly the decode-phase
// bandwidth bottleneck (Figs 9–12), which makes speculation a natural
// §VI-style optimization.

// SpecStats reports the dynamics of one speculative generation.
type SpecStats struct {
	// Proposed counts draft-proposed tokens; Accepted counts those the
	// target kept. AcceptanceRate is their ratio.
	Proposed, Accepted int
	// TargetPasses counts target forward passes (each verifies k+ tokens);
	// plain greedy decoding would need one pass per token.
	TargetPasses int
}

// AcceptanceRate returns Accepted/Proposed (0 when nothing was proposed).
func (s SpecStats) AcceptanceRate() float64 {
	if s.Proposed == 0 {
		return 0
	}
	return float64(s.Accepted) / float64(s.Proposed)
}

// SpecOptions configures SpeculativeGenerate.
type SpecOptions struct {
	// Lookahead is the draft proposal length k per cycle.
	Lookahead int
	// BlockSize is the KV block size of both engines' sessions; 0 means
	// one block per layer.
	BlockSize int
	// Steer, when non-nil, rewrites each draft proposal before
	// verification: it receives the output length so far, the proposal
	// index i within the cycle, and the draft's proposed token, and
	// returns the token to propose instead. Benchmarks use it to pin the
	// measured acceptance rate (propose the known-correct token with
	// probability α) while the draft still runs honestly for cost — the
	// verification pass repairs any wrong proposal, so greedy output is
	// unchanged by any Steer function.
	Steer func(outLen, i, proposed int) int
}

// SpeculativeGenerate generates maxNew tokens for a single prompt using
// draft to propose batches of opts.Lookahead tokens and the target engine
// to verify them greedily. Both engines must share the vocabulary. The
// returned tokens are identical to target.Generate's greedy output.
func SpeculativeGenerate(target, draft *Engine, prompt []int, maxNew int, opts SpecOptions) ([]int, SpecStats, error) {
	var st SpecStats
	k := opts.Lookahead
	if maxNew <= 0 {
		return nil, st, errMaxNew
	}
	if k <= 0 {
		return nil, st, fmt.Errorf("engine: lookahead k must be positive")
	}
	if target.cfg.Vocab != draft.cfg.Vocab {
		return nil, st, fmt.Errorf("engine: draft vocab %d != target vocab %d",
			draft.cfg.Vocab, target.cfg.Vocab)
	}
	maxSeq := len(prompt) + maxNew + k + 1
	ts := target.NewPagedSession(1, maxSeq, opts.BlockSize)
	ds := draft.NewPagedSession(1, maxSeq, opts.BlockSize)
	defer ts.Release()
	defer ds.Release()

	// Both models prefill the prompt; the target's greedy token is the
	// first output.
	tTok, err := target.Prefill(ts, [][]int{prompt})
	if err != nil {
		return nil, st, err
	}
	if _, err := draft.Prefill(ds, [][]int{prompt}); err != nil {
		return nil, st, err
	}
	st.TargetPasses++
	out := []int{tTok[0]}

	for len(out) < maxNew {
		// Draft proposes up to k tokens continuing from the accepted
		// sequence. The draft cache first catches up on any accepted
		// tokens it has not seen (they were produced by the target).
		if err := syncDraft(draft, ds, prompt, out); err != nil {
			return nil, st, err
		}
		lookahead := min(k, maxNew-len(out))
		proposal := make([]int, 0, lookahead)
		last := out[len(out)-1]
		for i := 0; i < lookahead; i++ {
			next, err := draft.DecodeStep(ds, []int{last})
			if err != nil {
				return nil, st, err
			}
			tok := next[0]
			if opts.Steer != nil {
				tok = opts.Steer(len(out), i, tok)
				if tok < 0 || tok >= target.cfg.Vocab {
					return nil, st, fmt.Errorf("engine: steered token %d outside vocab %d", tok, target.cfg.Vocab)
				}
			}
			proposal = append(proposal, tok)
			last = tok
		}
		st.Proposed += len(proposal)

		// Target verifies: one forward pass over [lastAccepted, proposal...]
		// produces the target's greedy next-token at every position.
		verify := append([]int{out[len(out)-1]}, proposal...)
		targetNext, err := target.VerifyRows(ts, verify)
		if err != nil {
			return nil, st, err
		}
		st.TargetPasses++

		// Greedy acceptance: keep proposals while they match the target's
		// own choice; the first mismatch is replaced by the target token.
		accepted := 0
		for accepted < len(proposal) && proposal[accepted] == targetNext[accepted] {
			accepted++
		}
		st.Accepted += accepted
		// Commit exactly the consumed rows into the target cache: the row
		// for out's last token plus the accepted proposals. The mismatch
		// (or bonus) token may run out one past maxNew; the return trims it.
		ts.Commit(ts.pos + 1 + accepted)
		out = append(append(out, proposal[:accepted]...), targetNext[accepted])
	}
	return out[:maxNew], st, nil
}

// VerifyRows runs one multi-row target pass over toks (continuing the
// committed cache) and returns the greedy next token after each row —
// the fused verification step of speculative decoding, exported so cost
// models and benchmarks can time the pass in isolation. The cache is
// left *uncommitted* beyond the current position; the caller commits the
// accepted prefix via Commit (or discards by committing the old
// position).
func (e *Engine) VerifyRows(s *Session, toks []int) ([]int, error) {
	if err := e.forwardTokens(s, toks); err != nil {
		return nil, err
	}
	next := make([]int, len(toks))
	for i := range next {
		next[i] = kernels.Argmax(e.rowLogits(s.ar, i))
	}
	return next, nil
}

// Commit fixes the session's caches at exactly n positions (which may be
// beyond the previous commit — VerifyRows has already written the KV
// entries — but never before it). It is the acceptance step after a
// verification pass: commit pos+1+accepted to keep the consumed row for
// the previous token plus the accepted proposals.
func (s *Session) Commit(n int) {
	for _, c := range s.caches {
		c.ExtendTo(n)
	}
	s.pos = n
}

// syncDraft replays target-accepted tokens the draft has not processed
// yet, so the draft cache always reflects the accepted sequence.
func syncDraft(draft *Engine, ds *Session, prompt, out []int) error {
	want := len(prompt) + len(out) - 1 // cache holds everything before the last token
	if ds.pos > want {
		// The draft speculated past the accepted point: discard.
		for _, c := range ds.caches {
			c.Truncate(want)
		}
		ds.pos = want
		return nil
	}
	for ds.pos < want { // feed the accepted token that belongs at ds.pos
		if _, err := draft.DecodeStep(ds, []int{out[ds.pos-len(prompt)]}); err != nil {
			return err
		}
	}
	return nil
}
