// Package serve holds the iteration-level scheduler core (batch.go) that
// forms batches both where serving is predicted and where it is done, and
// the first of its two drivers: a discrete-event simulator of an LLM
// inference server fed by a request trace (the other is the gateway's
// live lane, internal/gateway). The simulator implements the batching
// disciplines the paper's context discusses (§II-C, §VII):
// first-come-first-served single-request execution, static batching as in
// TorchServe/Triton, Orca-style continuous (iteration-level) batching and
// Sarathi-style chunked prefill, optionally under a finite paged KV pool
// (vLLM-style admission, conservative or optimistic with preemption by
// recompute), all priced by the platform performance model. It turns the
// paper's per-point metrics into serving-level ones: queueing delay, TTFT
// under load, tail latency, and sustained tokens/s.
package serve

import (
	"fmt"
	"sort"

	"repro/internal/counters"
	"repro/internal/kvpool"
	"repro/internal/workload"
)

// CostModel prices the two phase primitives a server schedules.
type CostModel interface {
	// PrefillCost returns the seconds to prefill a batch of equal-length
	// prompts.
	PrefillCost(batch, inputLen int) (float64, error)
	// DecodeStepCost returns the seconds of one decode iteration for
	// `batch` sequences whose longest context is ctxLen.
	DecodeStepCost(batch, ctxLen int) (float64, error)
	// Cached returns the price of a prefill or decode step an earlier
	// call already priced, without pricing anything. ok is false for a
	// shape the model has not priced yet, and always for a model that
	// keeps no memo. It never waits on a price being computed.
	Cached(prefill bool, batch, length int) (q Quote, ok bool)
}

// Quote is one memoized price: the seconds and, when the model emulates
// hardware counters, the phase's counter report (see CounterModel).
type Quote struct {
	Seconds     float64
	Counters    counters.Report
	HasCounters bool
}

// CounterModel is optionally implemented by cost models that can report
// the emulated hardware counters (internal/counters) behind a priced
// phase. The gateway attaches these reports to trace spans — it reads
// them from the same memo entry Cached returns — so a slow request can be
// attributed to LLC misses or memory-boundedness the way the paper
// attributes whole runs. Models without counter emulation (measured
// engines, GPUs) report none.
type CounterModel interface {
	// PhaseCounters returns the counter report for the same phase shape
	// PrefillCost/DecodeStepCost price, and whether one is available.
	PhaseCounters(prefill bool, batch, length int) (counters.Report, bool)
}

// Policy selects the batching discipline.
type Policy int

const (
	// FCFS runs one request at a time in arrival order: continuous
	// batching at a batch of one.
	FCFS Policy = iota
	// Static groups up to MaxBatch requests (waiting at most BatchWait
	// after the first arrival), pads them to the longest prompt and
	// generation, and runs the whole batch to completion.
	Static
	// Continuous schedules at iteration granularity (Orca): sequences
	// join mid-flight when slots free and leave the moment they finish.
	Continuous
	// Chunked is continuous batching with Sarathi-style chunked prefill
	// (the paper's related work [2], [3]). Plain continuous batching runs
	// an arriving request's whole prefill as one iteration, stalling every
	// in-flight decode for the full prompt duration — the TTFT/TPOT
	// interference Sarathi-Serve measures. Chunked splits each prefill
	// into PrefillChunk-token pieces and coalesces one piece with the
	// decode batch per iteration, bounding any single iteration (and so
	// every in-flight request's inter-token stall) by roughly a chunk's
	// worth of compute.
	Chunked
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case Static:
		return "static"
	case Continuous:
		return "continuous"
	case Chunked:
		return "chunked"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Server is one simulated inference server.
type Server struct {
	Cost     CostModel
	Policy   Policy
	MaxBatch int
	// BatchWait is the static policy's fill timeout: a partial batch
	// launches this long after its first request arrived.
	BatchWait float64
	// PrefillChunk is the number of prompt tokens an admitting request
	// processes per iteration under the Chunked policy.
	PrefillChunk int
	// Pool, when set, puts the iteration-level policies under a finite
	// KV-cache budget managed by a paged allocator (vLLM-style): a request
	// is admitted only when blocks for its full context are available, and
	// its blocks return to the pool the moment it finishes. This couples
	// the paper's two resource stories — the decode-bandwidth cost model
	// and the Fig 7 KV-cache capacity pressure — into one scheduler.
	Pool *kvpool.Pool
	// Optimistic switches the Pool from conservative full-context
	// reservation to vLLM-style optimistic admission: a request is
	// admitted with blocks for its prompt only, decode iterations grow
	// allocations token by token, and on exhaustion the youngest running
	// sequence is preempted and recomputed later (vLLM's recompute
	// policy). Preemptions waste work but pack the pool tighter.
	Optimistic bool

	// MaxIterationSeconds records the longest single iteration of the
	// last Run — the worst inter-token stall in-flight decodes observed.
	MaxIterationSeconds float64
	// Preemptions counts sequences evicted by Run (informational).
	Preemptions int
}

// Completion records one served request.
type Completion struct {
	Request   workload.Request
	QueueWait float64 // arrival → execution start
	TTFT      float64 // arrival → first token
	E2E       float64 // arrival → last token
	Finish    float64 // absolute completion time
}

// Summary aggregates a run.
type Summary struct {
	Count           int
	Makespan        float64
	TokensPerSecond float64
	MeanQueueWait   float64
	MeanTTFT        float64
	P95TTFT         float64
	MeanE2E         float64
	P95E2E          float64
}

// Run serves the trace (which must be sorted by arrival time) and returns
// per-request completions in arrival order. Under a Pool, a request whose
// context can never fit produces an error (it would deadlock).
func (s *Server) Run(trace []workload.Request) ([]Completion, error) {
	if s.Cost == nil {
		return nil, fmt.Errorf("serve: nil cost model")
	}
	if s.MaxBatch < 1 {
		s.MaxBatch = 1
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].ArrivalSeconds < trace[i-1].ArrivalSeconds {
			return nil, fmt.Errorf("serve: trace not sorted by arrival at index %d", i)
		}
	}
	b := Batch[simReq]{MaxBatch: s.MaxBatch, Optimistic: s.Optimistic}
	switch s.Policy {
	case FCFS:
		b.MaxBatch = 1
	case Static:
		if s.Pool != nil {
			return nil, fmt.Errorf("serve: the static policy does not model a KV pool")
		}
		return s.runStatic(trace)
	case Continuous:
	case Chunked:
		if s.PrefillChunk < 1 {
			return nil, fmt.Errorf("serve: chunked policy needs a positive PrefillChunk")
		}
		b.Chunk = s.PrefillChunk
	default:
		return nil, fmt.Errorf("serve: unknown policy %d", int(s.Policy))
	}
	if s.Optimistic && s.Pool == nil {
		return nil, fmt.Errorf("serve: optimistic admission needs a pool")
	}
	return s.runIterations(&b, trace)
}

func (s *Server) runStatic(trace []workload.Request) ([]Completion, error) {
	var clock float64
	out := make([]Completion, 0, len(trace))
	i := 0
	for i < len(trace) {
		// Form the next batch: it launches when full, or BatchWait after
		// its first request arrived (whichever is earlier), and never
		// before the server is free.
		first := trace[i]
		n := 1
		launch := first.ArrivalSeconds + s.BatchWait
		for i+n < len(trace) && n < s.MaxBatch && trace[i+n].ArrivalSeconds <= launch {
			n++
		}
		if n == s.MaxBatch {
			launch = trace[i+n-1].ArrivalSeconds
		}
		if clock > launch {
			launch = clock
		}
		batch := trace[i : i+n]
		maxIn, maxOut := 0, 0
		for _, r := range batch {
			if r.InputLen > maxIn {
				maxIn = r.InputLen
			}
			if r.OutputLen > maxOut {
				maxOut = r.OutputLen
			}
		}
		pre, err := s.Cost.PrefillCost(n, maxIn)
		if err != nil {
			return nil, err
		}
		t := launch + pre
		ttftAbs := t
		for step := 1; step < maxOut; step++ {
			d, err := s.Cost.DecodeStepCost(n, maxIn+step-1)
			if err != nil {
				return nil, err
			}
			t += d
		}
		// Static batching: every request in the batch completes when the
		// padded batch does.
		for _, r := range batch {
			out = append(out, Completion{
				Request: r, QueueWait: launch - r.ArrivalSeconds,
				TTFT: ttftAbs - r.ArrivalSeconds, E2E: t - r.ArrivalSeconds,
				Finish: t,
			})
		}
		clock = t
		i += n
	}
	return out, nil
}

// simReq is one trace request's record across execution attempts: what
// must survive a preemption rides here, handed from the preempted Seq to
// the one that recomputes it.
type simReq struct {
	req   workload.Request
	start float64 // clock at the latest admission
	ttft  float64 // arrival → first token of the FIRST attempt
	first bool    // ttft is set
}

// poolClaim adapts a kvpool.Sequence — one request's block table — to the
// scheduler's Memory seam.
type poolClaim struct {
	pool *kvpool.Pool
	seq  *kvpool.Sequence
}

func (c *poolClaim) Reserve(tokens int) error {
	c.seq = c.pool.NewSequence()
	return c.seq.Append(tokens)
}

func (c *poolClaim) Grow(n int) error { return c.seq.Append(n) }

func (c *poolClaim) ReleaseBlocks() {
	if c.seq != nil {
		_ = c.seq.Free() // fails only on a double free, which the nil below excludes
		c.seq = nil
	}
}

// runIterations is the scheduler core's trace driver: it admits what has
// arrived into free slots (preempted requests ahead of new arrivals),
// prices the iteration the Batch plans, advances the virtual clock by it
// and commits. Every iteration-level policy is this one loop; they differ
// only in how the Batch is configured.
func (s *Server) runIterations(b *Batch[simReq], trace []workload.Request) ([]Completion, error) {
	s.MaxIterationSeconds, s.Preemptions = 0, 0
	var clock float64
	var preempted []simReq // awaiting readmission
	next := 0
	out := make([]Completion, 0, len(trace))
	finish := func(r *simReq) {
		out = append(out, Completion{
			Request:   r.req,
			QueueWait: r.start - r.req.ArrivalSeconds,
			TTFT:      r.ttft,
			E2E:       clock - r.req.ArrivalSeconds,
			Finish:    clock,
		})
	}

	for len(out) < len(trace) {
	admit:
		for b.Slots() > 0 {
			var r simReq
			switch {
			case len(preempted) > 0:
				r = preempted[0]
			case next < len(trace) && trace[next].ArrivalSeconds <= clock:
				r = simReq{req: trace[next]}
			default:
				break admit // nothing has arrived
			}
			r.start = clock
			q := &Seq[simReq]{Job: r, In: r.req.InputLen, Out: r.req.OutputLen}
			if s.Pool != nil {
				q.Mem = &poolClaim{pool: s.Pool}
			}
			if err := b.Admit(q); err != nil {
				if err != kvpool.ErrOutOfBlocks {
					return nil, err
				}
				if b.Len() > 0 {
					break // wait for blocks to free
				}
				if s.Optimistic {
					return nil, fmt.Errorf(
						"serve: request %d prompt (%d tokens) can never fit the KV pool",
						r.req.ID, r.req.InputLen)
				}
				return nil, fmt.Errorf(
					"serve: request %d (ctx %d) can never fit the KV pool",
					r.req.ID, r.req.InputLen+r.req.OutputLen)
			}
			if len(preempted) > 0 {
				preempted = preempted[1:]
			} else {
				next++
			}
		}

		p := b.Next()
		if n := len(p.Victims); n > 0 && b.Len() == 0 {
			// The oldest sequence had the pool to itself and still ran out
			// of blocks: recomputing it could only end here again.
			return nil, fmt.Errorf("serve: request %d cannot grow within the KV pool",
				p.Victims[n-1].Job.req.ID)
		}
		for _, v := range p.Victims {
			s.Preemptions++
			preempted = append(preempted, v.Job)
		}
		if p.Empty() {
			// Idle: jump to the next arrival.
			if next >= len(trace) {
				break
			}
			clock = max(clock, trace[next].ArrivalSeconds)
			continue
		}

		var iter float64
		if len(p.Decode) > 0 {
			d, err := s.Cost.DecodeStepCost(len(p.Decode), p.DecodeCtx)
			if err != nil {
				return nil, err
			}
			iter += d
		}
		if len(p.Prefill) > 0 {
			c, err := s.Cost.PrefillCost(len(p.Prefill), p.PrefillLen)
			if err != nil {
				return nil, err
			}
			iter += c
		}
		clock += iter
		s.MaxIterationSeconds = max(s.MaxIterationSeconds, iter)
		b.Commit(p)

		for _, q := range p.Decode {
			if q.Done() {
				finish(&q.Job)
			}
		}
		for _, q := range p.Prefill {
			if q.Prefilling() {
				continue
			}
			// The first token exists now. A preempted request keeps the
			// TTFT of its first attempt: the client received that token.
			if r := &q.Job; !r.first {
				r.ttft, r.first = clock-r.req.ArrivalSeconds, true
			}
			if q.Done() {
				finish(&q.Job)
			}
		}
	}
	sort.Slice(out, func(a, c int) bool { return out[a].Request.ID < out[c].Request.ID })
	return out, nil
}

// Summarize aggregates completions into serving metrics.
func Summarize(cs []Completion) Summary {
	var sm Summary
	sm.Count = len(cs)
	if len(cs) == 0 {
		return sm
	}
	var ttfts, e2es []float64
	var tokens int
	var firstArrival = cs[0].Request.ArrivalSeconds
	for _, c := range cs {
		sm.MeanQueueWait += c.QueueWait
		sm.MeanTTFT += c.TTFT
		sm.MeanE2E += c.E2E
		ttfts = append(ttfts, c.TTFT)
		e2es = append(e2es, c.E2E)
		tokens += c.Request.OutputLen
		if c.Finish > sm.Makespan {
			sm.Makespan = c.Finish
		}
		if c.Request.ArrivalSeconds < firstArrival {
			firstArrival = c.Request.ArrivalSeconds
		}
	}
	n := float64(len(cs))
	sm.MeanQueueWait /= n
	sm.MeanTTFT /= n
	sm.MeanE2E /= n
	sm.P95TTFT = percentile(ttfts, 0.95)
	sm.P95E2E = percentile(e2es, 0.95)
	if span := sm.Makespan - firstArrival; span > 0 {
		sm.TokensPerSecond = float64(tokens) / span
	}
	return sm
}

func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(p * float64(len(s)-1))
	return s[idx]
}
