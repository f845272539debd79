package serve

import "fmt"

// batch.go is the iteration-level scheduler core: the in-flight set of one
// batching stream and the decisions every iteration-level policy here is
// made of — Orca's continuous batching, Sarathi's chunked prefill, vLLM's
// paged admission with preemption by recompute. It is pure and
// single-threaded. It knows no clock, lock, channel, trace or cost model:
// a driver admits what has arrived, asks Next for the iteration's shapes,
// prices (or executes) them itself, advances its own clock and Commits.
// The trace simulator (serve.go) and the gateway's live lanes
// (internal/gateway/lane.go) are the two drivers, so what is predicted and
// what is served batch identically by construction.

// Memory is one sequence's claim on a finite KV pool — the seam between
// the scheduler and whatever meters memory (a kvpool.Sequence under the
// simulator, a govern.Lease under the gateway). A failed Reserve or Grow
// holds exactly what it held before.
type Memory interface {
	// Reserve claims blocks for tokens of context at admission.
	Reserve(tokens int) error
	// Grow extends the claim by n tokens.
	Grow(n int) error
	// ReleaseBlocks returns every block held; releasing nothing is a no-op.
	ReleaseBlocks()
}

// Seq is one execution attempt of a request inside a Batch. The driver
// fills the exported fields before Admit and hangs its own per-attempt
// state off Job; the progress counters belong to the Batch.
type Seq[J any] struct {
	Job     J
	In, Out int
	// Cached is how many leading prompt tokens are already resident (a
	// prefix-cache hit) and need no prefill. The driver may set it any time
	// before the first Next after Admit; it must stay below In.
	Cached int
	// Mem meters the sequence's KV memory; nil means unmetered.
	Mem Memory

	prefilled int // uncached prompt tokens prefilled so far
	ctx       int // tokens in the KV cache once the prompt is in
	remaining int // output tokens still to produce
}

// Ctx is the sequence's context length: the prompt plus every decoded
// token but the newest (whose KV the next step writes).
func (s *Seq[J]) Ctx() int { return s.ctx }

// Produced counts the output tokens committed so far.
func (s *Seq[J]) Produced() int { return s.Out - s.remaining }

// Prefilled counts the prompt tokens resident so far, cached ones included.
func (s *Seq[J]) Prefilled() int { return s.Cached + s.prefilled }

// Prefilling reports whether the prompt is still being processed, i.e. no
// output token exists yet.
func (s *Seq[J]) Prefilling() bool { return s.ctx == 0 }

// Done reports whether the last output token has been committed.
func (s *Seq[J]) Done() bool { return s.remaining == 0 }

// Plan is one iteration's work as Next decided it: the shapes to price
// and the sequences riding each. It is the Batch's own and is overwritten
// by the following Next.
type Plan[J any] struct {
	// Decode sequences take one decode step together, priced at
	// (len(Decode), DecodeCtx) — the longest context among them.
	Decode    []*Seq[J]
	DecodeCtx int
	// Prefill sequences have prompt tokens processed, priced at
	// (len(Prefill), PrefillLen): the longest uncached prompt of the
	// sequences that just joined, or one chunk of the prefilling sequence.
	Prefill    []*Seq[J]
	PrefillLen int
	// Victims were preempted to let the rest grow, youngest first. Their
	// blocks are already released and they have left the batch; the driver
	// requeues them — ahead of new arrivals, behind earlier victims — to
	// recompute from prefill. One rule for both drivers: a requeued
	// request's timeline does not restart. Its first-token time stays that
	// of the first token delivered (the client has it), and its end-to-end
	// time keeps running from where it first started.
	Victims []*Seq[J]
}

// Empty reports that the iteration has nothing to price.
func (p *Plan[J]) Empty() bool { return len(p.Decode) == 0 && len(p.Prefill) == 0 }

// Batch is the in-flight set of one batching stream. The zero value with
// MaxBatch set is a continuous-batching scheduler without a memory limit.
type Batch[J any] struct {
	// MaxBatch bounds the sequences in flight.
	MaxBatch int
	// Chunk > 0 selects chunked prefill: one sequence at a time prefills
	// Chunk prompt tokens per iteration, coalesced with the decode step.
	// 0 runs each round of joiners' prompts as one dedicated iteration.
	Chunk int
	// Optimistic reserves only the prompt at admission and grows each
	// running sequence by one token per decode step, preempting the
	// youngest when the pool runs out. Otherwise admission reserves the
	// full context and nothing is ever preempted.
	Optimistic bool

	running []*Seq[J] // decoding, in admission order (oldest first)
	joining []*Seq[J] // admitted, prompt not yet fully prefilled
	plan    Plan[J]
	all     []*Seq[J]
}

// Len is the number of sequences in flight.
func (b *Batch[J]) Len() int { return len(b.running) + len(b.joining) }

// Slots is how many more sequences may be admitted before the next
// iteration: the free share of MaxBatch, or under chunked prefill the
// single prefill slot.
func (b *Batch[J]) Slots() int {
	if b.Chunk > 0 {
		if len(b.joining) == 0 && len(b.running) < b.MaxBatch {
			return 1
		}
		return 0
	}
	return b.MaxBatch - b.Len()
}

// Admit reserves s's KV memory — the full context, or the prompt only
// under Optimistic — and adds it to the batch. A reservation failure is
// returned as the Memory reported it, with s left out and holding nothing.
// The caller checks Slots first.
func (b *Batch[J]) Admit(s *Seq[J]) error {
	if s.Mem != nil {
		tokens := s.In
		if !b.Optimistic {
			tokens += s.Out
		}
		if err := s.Mem.Reserve(tokens); err != nil {
			return err
		}
	}
	s.prefilled, s.ctx, s.remaining = 0, 0, s.Out
	b.joining = append(b.joining, s)
	return nil
}

// Next decides the coming iteration. Sequences that just joined get a
// dedicated batched prefill; otherwise the running batch takes a decode
// step, which under chunked prefill is coalesced with the next chunk of
// the prefilling sequence. Under Optimistic every sequence about to
// decode first grows its claim by the token the step appends, and while
// the pool cannot supply it the youngest running sequence — the one with
// the least progress to lose — is preempted.
func (b *Batch[J]) Next() *Plan[J] {
	p := &b.plan
	p.Decode, p.Prefill, p.Victims = p.Decode[:0], p.Prefill[:0], p.Victims[:0]
	p.DecodeCtx, p.PrefillLen = 0, 0

	if b.Chunk == 0 && len(b.joining) > 0 {
		for _, s := range b.joining {
			p.PrefillLen = max(p.PrefillLen, s.In-s.Cached)
		}
		p.Prefill = append(p.Prefill, b.joining...)
		return p
	}
	if b.Optimistic {
		// running is in admission order, so the youngest is the last. A
		// victim never holds this round's token: growth proceeds oldest
		// first and stops at the first failure.
		for i := 0; i < len(b.running); {
			if s := b.running[i]; s.Mem == nil || s.Mem.Grow(1) == nil {
				i++
				continue
			}
			last := len(b.running) - 1
			victim := b.running[last]
			b.running[last] = nil
			b.running = b.running[:last]
			if victim.Mem != nil {
				victim.Mem.ReleaseBlocks()
			}
			p.Victims = append(p.Victims, victim)
		}
	}
	for _, s := range b.running {
		p.DecodeCtx = max(p.DecodeCtx, s.ctx)
	}
	p.Decode = append(p.Decode, b.running...)
	if len(b.joining) > 0 {
		s := b.joining[0]
		p.PrefillLen = min(b.Chunk, s.In-s.Cached-s.prefilled)
		p.Prefill = append(p.Prefill, s)
	}
	return p
}

// Commit applies a priced plan. Each decoding sequence advances by one
// token, or by counts[i] when counts is non-nil (a speculation cycle
// commits its accepted run plus the bonus token). Each prefilling sequence
// advances by the planned length; one whose prompt is now complete has
// its first output token and starts decoding. A sequence whose last token
// this was leaves the batch with its blocks released. Afterwards the
// driver reads the outcome off the plan's sequences: Produced, Prefilling,
// Done.
func (b *Batch[J]) Commit(p *Plan[J], counts []int) {
	moved := false // some sequence finished, or finished its prompt
	for i, s := range p.Decode {
		n := 1
		if counts != nil {
			n = counts[i]
		}
		if n < 1 || n > s.remaining {
			panic(fmt.Sprintf("serve: commit of %d tokens with %d remaining", n, s.remaining))
		}
		s.ctx += n
		s.remaining -= n
		moved = moved || s.remaining == 0
	}
	for _, s := range p.Prefill {
		s.prefilled += min(p.PrefillLen, s.In-s.Cached-s.prefilled)
		if s.Prefilled() == s.In {
			s.ctx, s.remaining = s.In, s.Out-1
			moved = true
		}
	}
	if !moved {
		return
	}
	// Rebuild both sets in admission order: survivors of the decode step,
	// then the sequences whose prompt just completed.
	kept, still := b.running[:0], b.joining[:0]
	for _, set := range [2][]*Seq[J]{b.running, b.joining} {
		for _, s := range set {
			switch {
			case s.Prefilling():
				still = append(still, s)
			case s.remaining > 0:
				kept = append(kept, s)
			case s.Mem != nil:
				s.Mem.ReleaseBlocks()
			}
		}
	}
	clear(b.running[min(len(kept), len(b.running)):]) // kept may have grown past it
	clear(b.joining[len(still):])
	b.running, b.joining = kept, still
}

// All lists the sequences in flight, decoding ones first, into a buffer
// the Batch reuses; the driver may Remove while ranging over it.
func (b *Batch[J]) All() []*Seq[J] {
	b.all = append(append(b.all[:0], b.running...), b.joining...)
	return b.all
}

// Remove takes s out of the batch (a cancellation) and releases its
// blocks. It reports whether s was in flight.
func (b *Batch[J]) Remove(s *Seq[J]) bool {
	for _, set := range []*[]*Seq[J]{&b.running, &b.joining} {
		for i, q := range *set {
			if q == s {
				*set = append((*set)[:i], (*set)[i+1:]...)
				if s.Mem != nil {
					s.Mem.ReleaseBlocks()
				}
				return true
			}
		}
	}
	return false
}

// Drain empties the batch, releasing every block, and returns what was in
// flight (as All does) for the driver to fail or requeue.
func (b *Batch[J]) Drain() []*Seq[J] {
	all := b.All()
	for _, s := range all {
		if s.Mem != nil {
			s.Mem.ReleaseBlocks()
		}
	}
	clear(b.running)
	clear(b.joining)
	b.running, b.joining = b.running[:0], b.joining[:0]
	return all
}
