package gateway

// memory.go is the lane's side of KV-memory governance (internal/govern).
// The scheduler core (serve.Batch) decides what to reserve at admission,
// grows every running sequence per decode step under optimistic
// admission and picks the victims when the lane's pool runs out; this
// file hands it the job's lease as its memory seam — through the prefix
// cache when the request is matchable — and does what a preemption means
// for a live request: spans, the requeue budget, the queue. Everything
// here is a no-op when the gateway runs without a governor (every lease
// is nil).

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/govern"
	"repro/internal/serve"
	"repro/internal/trace"
)

// claim returns the memory seam the scheduler core reserves, grows and
// releases a job's KV blocks through: nil without a governor, the job's
// lease as it is, or — for a request the prefix cache can match — the
// lease with its admission reservation routed through the cache. Called
// under g.mu (the lease locks the governor and pool below it; see the
// lock order in govern).
func (g *Gateway) claim(j *job) serve.Memory {
	j.cached = 0
	if j.lease == nil {
		return nil
	}
	if j.req.CacheDisabled || !g.gov.CacheEnabled() || len(j.req.Prefix) == 0 {
		return j.lease
	}
	return prefixClaim{j.lease, j}
}

// prefixClaim is a lease whose admission reservation first adopts
// whatever prefix of the prompt the lane's cache holds; j.cached reports
// how many prompt tokens that covered.
type prefixClaim struct {
	*govern.Lease
	j *job
}

func (c prefixClaim) Reserve(tokens int) error {
	j := c.j
	start := time.Now()
	cached, err := c.ReserveWithPrefix(j.req.Prefix, tokens,
		j.req.InputLen, j.req.MinPrefixTokens)
	if tr := j.req.Trace; tr != nil {
		attrs := map[string]string{"result": "miss"}
		if cached > 0 {
			attrs["result"] = "hit"
			attrs["cached_tokens"] = strconv.Itoa(cached)
		}
		tr.Add(trace.SpanData{Name: trace.PhaseCacheLookup,
			Start: start, End: time.Now(), Attrs: attrs})
	}
	if err != nil {
		return err
	}
	j.cached = cached
	return nil
}

// noteCacheHit fixes a cache-hit job's prefill saving once its (possibly
// shortened) prefill has been priced: the saving is the cost-model delta
// between prefilling the full prompt and the uncached suffix at the
// iteration's batch size, recorded on the trace as a cache_hit marker
// span and observed by the saved-seconds histogram. Misses are no-ops.
func (g *Gateway) noteCacheHit(j *job, m serve.CostModel, batch int, at time.Time) {
	if j.cached <= 0 {
		return
	}
	j.saved = estimateSaved(m, batch, j.req.InputLen, j.cached)
	g.m.cacheSaved.Observe(j.saved)
	if tr := j.req.Trace; tr != nil {
		tr.Add(trace.SpanData{Name: trace.PhaseCacheHit,
			Start: at, End: at, ModelSeconds: j.saved,
			Attrs: map[string]string{
				"cached_tokens": strconv.Itoa(j.cached),
				"saved_s":       strconv.FormatFloat(j.saved, 'g', 6, 64),
			}})
	}
}

// estimateSaved prices the prefill compute a cache hit avoided: the
// platform cost model's full-prompt prefill minus the uncached-suffix
// prefill, at the iteration's batch size. Both calls ride the model's
// pricing memo. Best-effort: a failing model yields 0, never an error.
func estimateSaved(m serve.CostModel, batch, fullIn, cached int) float64 {
	if cached <= 0 || m == nil {
		return 0
	}
	full, err1 := m.PrefillCost(batch, fullIn)
	eff, err2 := m.PrefillCost(batch, fullIn-cached)
	if err1 != nil || err2 != nil || eff >= full {
		return 0
	}
	return full - eff
}

// donatePrefix offers a just-prefilled job's prompt blocks to its lane's
// prefix cache so later requests sharing the prefix skip that compute.
// Opted-out and unmatchable requests donate nothing.
func (g *Gateway) donatePrefix(j *job) {
	if j.req.CacheDisabled || len(j.req.Prefix) == 0 {
		return
	}
	j.lease.DonatePrefix(j.req.Prefix)
}

// preemptSeq handles one sequence the core evicted on KV exhaustion (its
// blocks are already back in the pool): its execution so far tiles into a
// preempted span, and the job goes back to the head of the queue to
// recompute from prefill — unless its requeue budget is spent, in which
// case it fails with govern.ErrKVExhausted (HTTP 503 + Retry-After).
func (g *Gateway) preemptSeq(l *lane, s *seq) {
	j := s.Job.j
	now := time.Now()
	if tr := j.req.Trace; tr != nil {
		tr.Add(trace.SpanData{Name: trace.PhasePreempted,
			Start: s.Job.mark, End: now,
			Attrs: map[string]string{"cause": "kv pool exhausted"}})
	}
	j.lease.Preempt()
	if j.requeues >= g.cfg.MaxRequeues {
		g.failJob(j, fmt.Errorf("%w: lane %s", govern.ErrKVExhausted, l.key))
		return
	}
	j.requeues++
	j.lastMark = now
	g.m.inflight.Dec()
	g.m.preempted.Inc()
	g.log.Warn("gateway: KV preemption",
		"lane", l.key, "trace_id", j.req.Trace.ID(), "requeues", j.requeues)
	g.mu.Lock()
	l.requeueLocked(j)
	g.waiting++
	g.mu.Unlock()
	g.m.queueDepth.Inc()
}
