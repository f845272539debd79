package cluster

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/overload"
	"repro/internal/trace"
)

// retryable reports whether err is a replica-level failure worth a
// dispatch on another replica. Client errors (bad request, canceled
// context, deadline) and per-request verdicts (KV never fits, quota)
// are final wherever they run.
func retryable(err error) bool {
	switch {
	case errors.Is(err, ErrReplicaDown),
		errors.Is(err, gateway.ErrDraining),
		errors.Is(err, gateway.ErrLanePanic),
		errors.Is(err, gateway.ErrLaneQuarantined),
		errors.Is(err, gateway.ErrLaneBroken),
		errors.Is(err, gateway.ErrWatchdogTimeout),
		errors.Is(err, gateway.ErrQueueFull),
		errors.Is(err, gateway.ErrClassShed),
		errors.Is(err, gateway.ErrConcurrencyLimited),
		errors.Is(err, govern.ErrShedding),
		errors.Is(err, govern.ErrKVExhausted):
		return true
	}
	return false
}

// countsAgainstHealth reports whether err should grow a replica's
// consecutive-error streak. Load rejections (queue full, shedding,
// quota) are honest backpressure, not sickness: ejecting a busy replica
// shrinks the pool exactly when capacity is scarcest.
func countsAgainstHealth(err error) bool {
	switch {
	case err == nil,
		errors.Is(err, gateway.ErrQueueFull),
		errors.Is(err, gateway.ErrClassShed),
		errors.Is(err, gateway.ErrConcurrencyLimited),
		errors.Is(err, gateway.ErrDeadlineUnmeetable),
		errors.Is(err, govern.ErrShedding),
		errors.Is(err, govern.ErrQuotaExceeded),
		errors.Is(err, govern.ErrNeverFits),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return false
	}
	return true
}

// retryBudget is a per-client token bucket: RetryBudget failover tokens
// refilled continuously over RetryWindow, bursting to the cap.
type retryBudget struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// allowRetry charges one failover token for client, refusing when the
// bucket is empty. An unlimited budget (cap < 0) always allows.
func (r *Router) allowRetry(client string) bool {
	if r.cfg.RetryBudget < 0 {
		return true
	}
	cap := float64(r.cfg.RetryBudget)
	rate := cap / r.cfg.RetryWindow.Seconds()
	now := time.Now()
	r.budgetMu.Lock()
	b, ok := r.budgets[client]
	if !ok {
		b = &retryBudget{tokens: cap, last: now}
		r.budgets[client] = b
	}
	r.budgetMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > cap {
		b.tokens = cap
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// backoff returns the full-jitter exponential delay before retry
// attempt n (1-based): uniform in (0, min(BackoffMax, BackoffBase·2^n)].
func (r *Router) backoff(attempt int) time.Duration {
	max := r.cfg.BackoffBase << uint(attempt)
	if max > r.cfg.BackoffMax || max <= 0 {
		max = r.cfg.BackoffMax
	}
	r.rngMu.Lock()
	d := time.Duration(r.rng.Int63n(int64(max))) + 1
	r.rngMu.Unlock()
	return d
}

// attemptState tracks one request's delivery across dispatches: the
// cross-attempt exactly-once guard extending PR 6's produced/emitted
// split to the replica dimension.
type attemptState struct {
	// mu makes claiming an index and handing it to the caller's sink one
	// step. Claiming alone is not enough: two live attempts could claim 5
	// and 6 in order and then deliver 6 before 5. Sinks never block
	// (gateway.TokenSink), so the hold is short.
	mu sync.Mutex
	// delivered is 1 + the highest token index handed to the caller's
	// sink, written under mu so a racing doomed attempt can never
	// re-deliver or reorder; atomic for the lock-free read in streamed.
	delivered atomic.Int64
	// finals counts Final-token deliveries; the chaos suite asserts it
	// never exceeds one per request.
	finals atomic.Int64
}

// wrapSink funnels one dispatch attempt's tokens through the shared
// exactly-once filter. All attempts of a request share st, so a token
// index delivered by attempt k is silently dropped if attempt k+1
// replays it.
func (st *attemptState) wrapSink(sink gateway.TokenSink) gateway.TokenSink {
	if sink == nil {
		return nil
	}
	return func(ev gateway.TokenEvent) {
		st.mu.Lock()
		defer st.mu.Unlock()
		if int64(ev.Index) < st.delivered.Load() {
			return // replayed by a later attempt: already delivered
		}
		st.delivered.Store(int64(ev.Index) + 1)
		if ev.Final {
			st.finals.Add(1)
		}
		sink(ev)
	}
}

// streamed reports whether any token reached the caller: past this
// point the request is no longer idempotent and must not be retried.
func (st *attemptState) streamed() bool { return st.delivered.Load() > 0 }

// Generate routes one request through the cluster: pick a replica,
// dispatch, and — if the dispatch failed at the replica level before
// any token was streamed — fail over to the next replica under the
// retry budget, backoff and deadline. Short non-streamed requests may
// additionally be hedged on a second replica.
func (r *Router) Generate(ctx context.Context, req gateway.Request) (gateway.Result, error) {
	if r.Draining() {
		return gateway.Result{}, gateway.ErrDraining
	}
	st := &attemptState{}
	origSink := req.Sink
	tried := map[string]bool{}
	var lastErr error
	failovers := 0

	for attempt := 0; ; attempt++ {
		rep, err := r.pickFor(&req, tried)
		if err != nil {
			r.m.noHealthy.Inc()
			if lastErr != nil {
				return gateway.Result{}, lastErr
			}
			return gateway.Result{}, err
		}
		tried[rep.id] = true

		res, err := r.dispatch(ctx, rep, req, st, origSink, attempt)
		if err == nil {
			if res.Replica == "" { // hedged wins set their own attribution
				res.Replica = rep.id
			}
			res.Failovers = failovers
			return res, nil
		}
		lastErr = err

		// Decide whether this failure may move to another replica.
		switch {
		case !retryable(err) || ctx.Err() != nil:
			return gateway.Result{}, err
		case st.streamed():
			// Mid-stream failure: the client already saw tokens, so the
			// stream terminates with the uniform error envelope. Retrying
			// would risk duplicate delivery.
			return gateway.Result{}, err
		case attempt >= r.cfg.MaxFailovers || r.cfg.MaxFailovers < 0:
			return gateway.Result{}, err
		}
		if !r.allowRetry(req.Client) {
			r.m.budgetExhausted.Inc()
			return gateway.Result{}, err
		}
		delay := r.backoff(attempt + 1)
		if deadline, ok := ctx.Deadline(); ok && time.Now().Add(delay).After(deadline) {
			// The backoff alone would blow the client's budget: stop
			// retrying and report the real failure now, honestly.
			r.m.retriesDeadline.Inc()
			return gateway.Result{}, err
		}
		foStart := time.Now()
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return gateway.Result{}, ctx.Err()
		}
		if tr := req.Trace; tr != nil {
			tr.Add(trace.SpanData{
				Name: trace.PhaseFailover, Start: foStart, End: time.Now(),
				Attrs: map[string]string{
					"from":  rep.id,
					"cause": err.Error(),
				},
			})
		}
		r.m.failovers.Inc()
		failovers++
		r.log.Info("cluster: failing over", "replica", rep.id,
			"attempt", attempt+1, "error", err)
	}
}

// pick selects a replica for req among routable candidates not in
// tried. When every replica was tried already, the tried filter is
// dropped — re-dispatching to a previously failed replica beats
// failing a request that still has budget. Half-open trial slots
// claimed for losing candidates are released.
func (r *Router) pick(req *gateway.Request, tried map[string]bool) (*replica, []Candidate, error) {
	cands := r.routable(tried)
	if len(cands) == 0 && len(tried) > 0 {
		cands = r.routable(nil)
	}
	if len(cands) == 0 {
		return nil, nil, ErrNoHealthyReplicas
	}
	c := r.cfg.Policy.Pick(req, cands)
	return r.replicas[c.Index], cands, nil
}

// pickFor is pick plus trial-slot bookkeeping for the losers.
func (r *Router) pickFor(req *gateway.Request, tried map[string]bool) (*replica, error) {
	rep, cands, err := r.pick(req, tried)
	if err != nil {
		return nil, err
	}
	r.releaseTrial(cands, candidateFor(rep, cands))
	return rep, nil
}

// candidateFor finds rep's candidate entry (always present after pick).
func candidateFor(rep *replica, cands []Candidate) Candidate {
	for _, c := range cands {
		if c.ID == rep.id {
			return c
		}
	}
	return Candidate{ID: rep.id, Index: -1}
}

// dispatch runs one attempt of req on rep, recording the route span,
// the attempt latency, passive health, and optionally racing a hedged
// duplicate. The caller's sink is replaced by the exactly-once wrapper.
func (r *Router) dispatch(ctx context.Context, rep *replica, req gateway.Request,
	st *attemptState, origSink gateway.TokenSink, attempt int) (gateway.Result, error) {

	r.m.routed.Inc()
	req.Sink = st.wrapSink(origSink)
	start := time.Now()
	var res gateway.Result
	var err error
	if r.hedgeEligible(rep, req, attempt) {
		res, err = r.hedgedDispatch(ctx, rep, req)
	} else {
		res, err = r.generateOn(ctx, rep, req)
	}
	r.m.routeLatency.Observe(time.Since(start).Seconds())
	r.ejectLatencyOutliers()
	if tr := req.Trace; tr != nil {
		tr.Add(trace.SpanData{
			Name: trace.PhaseRoute, Start: start, End: time.Now(),
			Attrs: map[string]string{
				"replica": rep.id,
				"policy":  r.cfg.Policy.Name(),
				"attempt": strconv.Itoa(attempt + 1),
			},
		})
	}
	return res, err
}

// generateOn runs req on rep under the forced-down watch and feeds the
// outcome into rep's passive health. Each hedge arm reports its own
// outcome, so a losing arm's cancel frees its half-open trial slot
// instead of being credited with the winner's success.
func (r *Router) generateOn(ctx context.Context, rep *replica, req gateway.Request) (gateway.Result, error) {
	start := time.Now()
	var res gateway.Result
	err := r.runOnReplica(ctx, rep, func(dctx context.Context) error {
		var derr error
		res, derr = rep.gateway().Generate(dctx, req)
		return derr
	})
	r.observeOutcome(rep, err, time.Since(start))
	return res, err
}

// hedgeMaxOut caps the output length of hedge-eligible requests: hedging
// pays double compute, which only makes sense for short prefill-dominated
// jobs.
const hedgeMaxOut = 4

// hedgeEligible restricts hedging to first attempts of short,
// non-streamed requests: duplicating a stream would need cross-replica
// token reconciliation, and duplicating a long decode doubles the most
// expensive phase for a latency win only short prefill-dominated jobs
// can realize. Hedging is also the brownout ladder's first rung: a
// primary at or past LevelNoHedge is overloaded enough that speculative
// duplicates would only feed the overload.
func (r *Router) hedgeEligible(primary *replica, req gateway.Request, attempt int) bool {
	return r.cfg.HedgeAfter > 0 &&
		attempt == 0 &&
		req.Sink == nil &&
		req.OutputLen <= hedgeMaxOut &&
		primary.gateway().BrownoutLevel() < overload.LevelNoHedge
}

// hedgeOutcome is one arm's result in a hedged race.
type hedgeOutcome struct {
	res   gateway.Result
	err   error
	rep   *replica
	hedge bool
}

// hedgedDispatch races req on primary against a delayed duplicate on a
// second replica. The first success wins and the loser's context is
// cancelled, its burn accounted as wasted compute. If the primary fails
// before the hedge launches, the error returns immediately so the
// normal failover path (budgeted, backed off) handles it; if an arm
// fails while the other runs, the survivor decides the request.
func (r *Router) hedgedDispatch(ctx context.Context, primary *replica,
	req gateway.Request) (gateway.Result, error) {

	rctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	outcomes := make(chan hedgeOutcome, 2)
	run := func(rep *replica, hedge bool) {
		res, err := r.generateOn(rctx, rep, req)
		outcomes <- hedgeOutcome{res: res, err: err, rep: rep, hedge: hedge}
	}
	entry := time.Now()
	go run(primary, false)

	hedgeTimer := time.NewTimer(r.cfg.HedgeAfter)
	defer hedgeTimer.Stop()
	arms, settled := 1, 0
	var hedgeStart time.Time
	for {
		select {
		case o := <-outcomes:
			settled++
			if o.err == nil {
				cancelAll()
				if arms == 2 {
					// The loser ran from its start until this cancel.
					wasted := time.Since(entry)
					if !o.hedge {
						wasted = time.Since(hedgeStart)
					}
					r.m.hedgeWasted.Observe(wasted.Seconds())
					if o.hedge {
						r.m.hedgeWins.Inc()
						o.res.Hedged = true
						o.res.Replica = o.rep.id
					}
				}
				return o.res, nil
			}
			if settled == arms {
				return gateway.Result{}, o.err
			}
			// One arm down, the other still racing: wait it out.
		case <-hedgeTimer.C:
			if arms == 1 && ctx.Err() == nil {
				if rep, ok := r.hedgeReplica(primary, &req); ok {
					hedgeStart = time.Now()
					arms++
					r.m.hedges.Inc()
					go run(rep, true)
					if tr := req.Trace; tr != nil {
						tr.Event(trace.PhaseHedge, hedgeStart, map[string]string{
							"replica": rep.id, "primary": primary.id,
						})
					}
				}
			}
		case <-ctx.Done():
			return gateway.Result{}, ctx.Err()
		}
	}
}

// hedgeReplica picks a routable replica other than primary for the
// hedged arm; ok is false when no distinct replica is available.
func (r *Router) hedgeReplica(primary *replica, req *gateway.Request) (*replica, bool) {
	cands := r.routable(map[string]bool{primary.id: true})
	if len(cands) == 0 {
		return nil, false
	}
	c := r.cfg.Policy.Pick(req, cands)
	rep := r.replicas[c.Index]
	r.releaseTrial(cands, c)
	if rep.id == primary.id {
		return nil, false
	}
	return rep, true
}
