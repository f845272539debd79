package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// tokenPool is a finite fake memory with one-token blocks, so the
// property test can state conservation in tokens.
type tokenPool struct{ capacity, free int }

var errNoTokens = errors.New("token pool exhausted")

type tokenClaim struct {
	pool *tokenPool
	held int
}

func (c *tokenClaim) take(n int) error {
	if n > c.pool.free {
		return errNoTokens
	}
	c.pool.free -= n
	c.held += n
	return nil
}
func (c *tokenClaim) Reserve(tokens int) error { return c.take(tokens) }
func (c *tokenClaim) Grow(n int) error         { return c.take(n) }
func (c *tokenClaim) ReleaseBlocks()           { c.pool.free += c.held; c.held = 0 }

// propReq is one request of the property test's driver.
type propReq struct {
	id, in, out int
	admitSeq    int  // global admission counter at the latest admission
	finished    bool // committed all of out on some attempt
	canceled    bool
}

type propSeq = Seq[*propReq]

// TestBatchProperties drives the core alone through seeded random
// schedules — arrivals trickling in, cancellations through Remove, a
// finite memory, commit counts of 1…k tokens — and checks after every
// step what both drivers rely on.
func TestBatchProperties(t *testing.T) {
	for _, chunk := range []int{0, 8} {
		for _, mem := range []string{"none", "conservative", "optimistic"} {
			for _, k := range []int{1, 4} {
				name := fmt.Sprintf("chunk%d/%s/k%d", chunk, mem, k)
				t.Run(name, func(t *testing.T) {
					preempted := 0
					for seed := int64(1); seed <= 40; seed++ {
						preempted += runBatchSchedule(t, seed, chunk, mem, k)
					}
					if mem == "optimistic" && preempted == 0 {
						t.Error("no schedule preempted: the pool is too large to test anything")
					}
				})
			}
		}
	}
}

func runBatchSchedule(t *testing.T, seed int64, chunk int, mem string, k int) (preempted int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const capacity, maxBatch = 96, 6
	pool := &tokenPool{capacity: capacity, free: capacity}
	b := Batch[*propReq]{MaxBatch: maxBatch, Chunk: chunk, Optimistic: mem == "optimistic"}

	var pending []*propReq
	for i := 0; i < 14; i++ {
		in := 1 + rng.Intn(48)
		pending = append(pending, &propReq{id: i, in: in, out: 1 + rng.Intn(16)})
	}
	total, admissions := len(pending), 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	held := func(s *propSeq) int {
		if s.Mem == nil {
			return 0
		}
		return s.Mem.(*tokenClaim).held
	}
	checkConservation := func(when string) {
		t.Helper()
		sum, prefilling := 0, 0
		for _, s := range b.All() {
			sum += held(s)
			if mem != "none" && held(s) < s.Ctx() {
				fail("%s: request %d holds %d tokens for a context of %d", when, s.Job.id, held(s), s.Ctx())
			}
			if s.Prefilling() {
				prefilling++
			}
		}
		if sum != capacity-pool.free {
			fail("%s: pool says %d reserved, in-flight sequences hold %d", when, capacity-pool.free, sum)
		}
		if b.Len() > maxBatch {
			fail("%s: %d in flight, MaxBatch %d", when, b.Len(), maxBatch)
		}
		if chunk > 0 && prefilling > 1 {
			fail("%s: %d sequences prefilling under chunked prefill", when, prefilling)
		}
	}

	done := 0
	for steps := 0; done < total; steps++ {
		if steps > 20000 {
			fail("no progress: %d of %d done", done, total)
		}
		// Arrivals trickle in: usually admit what fits, sometimes hold back.
		for b.Slots() > 0 && len(pending) > 0 && rng.Intn(4) > 0 {
			r := pending[0]
			s := &propSeq{Job: r, In: r.in, Out: r.out}
			if mem != "none" {
				s.Mem = &tokenClaim{pool: pool}
			}
			if err := b.Admit(s); err != nil {
				if held(s) != 0 {
					fail("failed admission of %d left %d tokens held", r.id, held(s))
				}
				if b.Len() == 0 {
					fail("request %d (%d+%d) cannot be admitted into an empty batch: %v", r.id, r.in, r.out, err)
				}
				break
			}
			want := r.in + r.out
			if mem == "optimistic" {
				want = r.in
			}
			if mem != "none" && held(s) != want {
				fail("admission of %d reserved %d tokens, want %d", r.id, held(s), want)
			}
			admissions++
			r.admitSeq = admissions
			pending = pending[1:]
		}
		checkConservation("after admission")

		if all := b.All(); len(all) > 0 && rng.Intn(25) == 0 {
			victim := all[rng.Intn(len(all))]
			if !b.Remove(victim) || b.Remove(victim) {
				fail("Remove of in-flight request %d must succeed exactly once", victim.Job.id)
			}
			if held(victim) != 0 {
				fail("removed request %d still holds %d tokens", victim.Job.id, held(victim))
			}
			victim.Job.canceled = true
			done++
			checkConservation("after remove")
		}

		p := b.Next()
		// Victims are the youngest, youngest first, and hold nothing.
		youngest := int(^uint(0) >> 1)
		for _, v := range p.Victims {
			if v.Job.admitSeq >= youngest {
				fail("victims out of order: %d after %d", v.Job.admitSeq, youngest)
			}
			youngest = v.Job.admitSeq
			if held(v) != 0 {
				fail("victim %d still holds %d tokens", v.Job.id, held(v))
			}
		}
		for _, s := range p.Decode {
			if len(p.Victims) > 0 && s.Job.admitSeq > youngest {
				fail("request %d (admission %d) survived while older %d was preempted",
					s.Job.id, s.Job.admitSeq, youngest)
			}
			if s.Ctx() > p.DecodeCtx {
				fail("decode priced at ctx %d below request %d's %d", p.DecodeCtx, s.Job.id, s.Ctx())
			}
		}
		if len(p.Victims) > 0 && mem != "optimistic" {
			fail("preemption without optimistic admission")
		}
		preempted += len(p.Victims)
		// Requeue ahead of new arrivals, in preemption order.
		requeue := make([]*propReq, 0, len(p.Victims))
		for _, v := range p.Victims {
			requeue = append(requeue, v.Job)
		}
		pending = append(requeue, pending...)
		if chunk > 0 && len(p.Prefill) > 0 && (len(p.Prefill) != 1 || p.PrefillLen < 1 || p.PrefillLen > chunk) {
			fail("chunked plan prefills %d sequences over %d tokens", len(p.Prefill), p.PrefillLen)
		}
		if chunk == 0 && len(p.Prefill) > 0 && len(p.Decode) > 0 {
			fail("continuous plan mixes a dedicated prefill with a decode step")
		}
		checkConservation("after next")
		if p.Empty() {
			continue
		}

		// Commit 1…k tokens per decoding sequence, as a speculation cycle
		// would: the extra rows need memory the driver grows itself.
		var counts []int
		before := make([]int, len(p.Decode))
		for i, s := range p.Decode {
			before[i] = s.Produced()
			n := 1 + rng.Intn(min(k, s.Out-s.Produced()))
			if n > 1 && mem == "optimistic" && s.Mem.Grow(n-1) != nil {
				n = 1
			}
			counts = append(counts, n)
		}
		if k == 1 {
			counts = nil
		}
		b.Commit(p, counts)
		for i, s := range p.Decode {
			n := 1
			if counts != nil {
				n = counts[i]
			}
			if s.Produced() != before[i]+n {
				fail("request %d produced %d tokens after committing %d on top of %d",
					s.Job.id, s.Produced(), n, before[i])
			}
		}
		for _, set := range [][]*propSeq{p.Decode, p.Prefill} {
			for _, s := range set {
				if !s.Prefilling() && s.Ctx() != s.In+s.Produced()-1 {
					fail("request %d: ctx %d with %d tokens produced over a prompt of %d",
						s.Job.id, s.Ctx(), s.Produced(), s.In)
				}
				if s.Done() != (s.Produced() == s.Out) {
					fail("request %d: Done=%v at %d of %d tokens", s.Job.id, s.Done(), s.Produced(), s.Out)
				}
				if s.Done() {
					if s.Job.finished {
						fail("request %d finished twice", s.Job.id)
					}
					if held(s) != 0 {
						fail("finished request %d still holds %d tokens", s.Job.id, held(s))
					}
					s.Job.finished = true
					done++
				}
			}
		}
		checkConservation("after commit")

		// Some schedules end with a drain instead of running dry.
		if seed%5 == 0 && done > total/2 {
			for _, s := range b.Drain() {
				if held(s) != 0 {
					fail("drained request %d still holds %d tokens", s.Job.id, held(s))
				}
			}
			break
		}
	}
	if b.Len() != 0 {
		fail("%d sequences left in flight", b.Len())
	}
	if pool.free != capacity {
		fail("pool not full again: %d of %d free", pool.free, capacity)
	}
	return preempted
}

// steadyBatch is a full batch of 8 in steady-state decode: every sequence
// metered, optimistic growth on, outputs long enough never to finish.
func steadyBatch() *Batch[int] {
	pool := &tokenPool{capacity: 1 << 40, free: 1 << 40}
	b := &Batch[int]{MaxBatch: 8, Optimistic: true}
	for i := 0; i < 8; i++ {
		if err := b.Admit(&Seq[int]{Job: i, In: 128 + i, Out: 1 << 30,
			Mem: &tokenClaim{pool: pool}}); err != nil {
			panic(err)
		}
	}
	b.Commit(b.Next(), nil) // the joint prefill
	return b
}

var sinkCtx int

// BenchmarkBatchIteration is the scheduler core's own cost per iteration:
// Next + Commit for a batch of 8 (ROADMAP aim 1's first layer above the
// engine).
func BenchmarkBatchIteration(b *testing.B) {
	batch := steadyBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := batch.Next()
		sinkCtx = p.DecodeCtx
		batch.Commit(p, nil)
	}
}

// TestBatchIterationAllocs: in steady state the core allocates nothing —
// plan and victim slices are reused, there is no per-iteration map.
func TestBatchIterationAllocs(t *testing.T) {
	batch := steadyBatch()
	counts := []int{1, 2, 1, 3, 1, 1, 2, 1}
	if n := testing.AllocsPerRun(200, func() {
		batch.Commit(batch.Next(), nil)
		batch.Commit(batch.Next(), counts)
		_ = batch.All()
	}); n != 0 {
		t.Errorf("steady-state iteration allocates %.1f objects, want 0", n)
	}
}
