package engine

// fork.go is the functional layer under the serving stack's radix prefix
// cache (internal/prefixcache over kvpool blocks): a cache hit forks the
// session that already computed a shared prompt prefix instead of
// recomputing its prefill. ForkPagedSession adopts the source's KV
// blocks copy-on-write, and PrefillResume runs only the unmatched prompt
// tail — causal attention makes the combination bit-identical to a cold
// prefill of the whole prompt.

import "fmt"

// ForkPagedSession returns a new session whose KV caches alias the first
// prefix positions of src copy-on-write (whole blocks shared, the
// partial boundary block copied). src must be a paged session with at
// least prefix committed positions; it stays usable and is never mutated
// through the fork. The fork resumes at position prefix — finish its
// prompt with PrefillResume before decoding.
func (e *Engine) ForkPagedSession(src *Session, prefix int) (*Session, error) {
	if prefix <= 0 || prefix > src.pos {
		return nil, fmt.Errorf("engine: fork prefix %d outside (0,%d]", prefix, src.pos)
	}
	s := &Session{caches: make([]KVStore, len(src.caches)), pos: prefix}
	for i, store := range src.caches {
		pc, ok := store.(*PagedKVCache)
		if !ok {
			return nil, fmt.Errorf("engine: fork requires a paged session (cache %d is %T)", i, store)
		}
		f := NewPagedKVCache(pc.layers, pc.kvDim, pc.maxSeq, pc.blockSize)
		f.AdoptPrefix(pc, prefix)
		s.caches[i] = f
	}
	return s, nil
}

// PrefillResume completes the prefill of a forked session: prompts are
// the full prompts, and only the positions from s.Pos() on are embedded
// and run through the network on top of the adopted KV prefix. The
// returned greedy next tokens match what a cold Prefill of the full
// prompts would produce. At least one position must remain — a fork
// never adopts the entire prompt, because the last position's logits are
// what generation starts from.
func (e *Engine) PrefillResume(s *Session, prompts [][]int) ([]int, error) {
	if len(prompts) != s.Batch() {
		return nil, fmt.Errorf("engine: %d prompts for batch %d", len(prompts), s.Batch())
	}
	if s.pos <= 0 {
		return nil, fmt.Errorf("engine: PrefillResume on an unfilled session; use Prefill")
	}
	if rows := len(prompts[0]); s.pos >= rows {
		return nil, fmt.Errorf("engine: nothing to resume (%d committed of %d prompt positions)", s.pos, rows)
	}
	return e.prefillFrom(s, prompts, 0, nil)
}
