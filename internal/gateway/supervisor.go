package gateway

// supervisor.go is the gateway's resilience layer: panic isolation and
// restart of lane workers, a per-call watchdog over the priced iteration,
// a per-lane circuit breaker that reroutes pricing to a degraded-mode
// fallback cost model, and quarantine of lanes that crash repeatedly.
// The aim is the serving posture the paper's context demands: partial
// failure (a wedged engine, a panicking worker, a failing cost model)
// degrades one lane's service, never the process.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Typed failure sentinels. The API layer maps these onto HTTP statuses;
// tests and clients match them with errors.Is.
var (
	// ErrLanePanic marks requests failed because their lane worker
	// panicked; the supervisor recovered it and restarted the lane.
	ErrLanePanic = errors.New("gateway: lane worker panicked")
	// ErrLaneQuarantined rejects submissions to a lane that crashed
	// repeatedly and is cooling off.
	ErrLaneQuarantined = errors.New("gateway: lane quarantined")
	// ErrWatchdogTimeout marks an iteration whose priced call exceeded
	// the watchdog budget; its batch is cancelled and requeued.
	ErrWatchdogTimeout = errors.New("gateway: iteration exceeded watchdog deadline")
	// ErrLaneBroken fails requests on a lane whose breaker is open and
	// which has no fallback cost model to degrade onto.
	ErrLaneBroken = errors.New("gateway: lane circuit breaker open")
)

// PanicError carries a recovered lane panic to the requests it failed.
type PanicError struct {
	Lane  string
	Value any
}

// Error describes the recovered panic.
func (e *PanicError) Error() string {
	return fmt.Sprintf("gateway: lane %s panicked: %v", e.Lane, e.Value)
}

// Unwrap lets errors.Is(err, ErrLanePanic) match.
func (e *PanicError) Unwrap() error { return ErrLanePanic }

// Injection sites the gateway threads through its hot path (see
// internal/faults).
const (
	siteLane    = "lane"
	sitePrefill = "cost.prefill"
	siteDecode  = "cost.decode"
	siteGovern  = "govern.kv"
)

// breakerState is the classic three-state circuit breaker.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// breaker guards a lane's primary cost model. It is owned by the lane's
// scheduler goroutine — no locking. Consecutive primary failures open it;
// while open, pricing reroutes to the lane's fallback (degraded mode).
// After BreakerOpenPeriod one probe call is let through (half-open):
// success closes the breaker, failure re-opens it.
type breaker struct {
	state    breakerState
	fails    int
	reopenAt time.Time
}

// allowPrimary reports whether the primary cost model may be called now,
// transitioning open → half-open once the cool-off has elapsed.
func (b *breaker) allowPrimary(now time.Time) bool {
	if b.state != breakerOpen {
		return true
	}
	if now.Before(b.reopenAt) {
		return false
	}
	b.state = breakerHalfOpen
	return true
}

// onSuccess closes the breaker; it reports whether this was a transition
// out of open/half-open (for metrics).
func (b *breaker) onSuccess() bool {
	was := b.state
	b.state = breakerClosed
	b.fails = 0
	return was != breakerClosed
}

// onFailure records a primary failure; it reports whether this failure
// tripped the breaker closed → open (a half-open probe failure merely
// extends the open period).
func (b *breaker) onFailure(now time.Time, threshold int, openFor time.Duration) bool {
	b.fails++
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.reopenAt = now.Add(openFor)
	case breakerClosed:
		if b.fails >= threshold {
			b.state = breakerOpen
			b.reopenAt = now.Add(openFor)
			return true
		}
	}
	return false
}

// priceInfo describes how one priced call was served, so the scheduler can
// attach pricing spans and counter analogs to the traces of the sequences
// that rode the iteration: whether the fallback served it, the wall-clock
// window of the call, the injection site, the model that produced the
// price (primary or fallback), and — when the primary's memo answered on
// the lane goroutine — the quote that read returned.
type priceInfo struct {
	degraded   bool
	start, end time.Time
	site       string
	model      serve.CostModel
	quote      serve.Quote
	cached     bool
}

// pricedShape is one priced call: a prefill or a decode step. It travels
// by value, so a call the watchdog abandons keeps pricing its own copy
// after the lane moves on.
type pricedShape struct {
	prefill       bool
	batch, length int
}

// site is the injection site the shape is priced under.
func (s pricedShape) site() string {
	if s.prefill {
		return sitePrefill
	}
	return siteDecode
}

// price prices the shape on m.
func (s pricedShape) price(m serve.CostModel) (float64, error) {
	if s.prefill {
		return m.PrefillCost(s.batch, s.length)
	}
	return m.DecodeStepCost(s.batch, s.length)
}

// run prices the shape on m after the faults armed at its site.
func (s pricedShape) run(inj *faults.Injector, lane string, m serve.CostModel) (float64, error) {
	if err := inj.Apply(s.site(), lane); err != nil {
		return 0, err
	}
	return s.price(m)
}

// pricedCall prices one shape through the lane's resilience weave: fault
// injection at the shape's site, the watchdog deadline, the circuit
// breaker, and — when the primary fails or the breaker is open — the
// degraded-mode fallback, which prices the same shape. The returned
// priceInfo reports whether the cost came from the fallback and which
// model priced it.
func (g *Gateway) pricedCall(l *lane, s pricedShape) (float64, priceInfo, error) {
	info := priceInfo{start: time.Now(), site: s.site(), model: l.cost}
	var cost float64
	var err error
	if l.br.allowPrimary(info.start) {
		cost, err = g.primaryCall(l, s, &info)
		info.end = time.Now()
		if err == nil {
			if l.br.onSuccess() {
				g.m.breakerClosed.Inc()
				g.m.breakerOpenLanes.Dec()
				g.log.Info("gateway: breaker closed", "lane", l.key)
			}
			return cost, info, nil
		}
		if errors.Is(err, ErrWatchdogTimeout) {
			g.m.watchdogTimeouts.Inc()
			g.log.Warn("gateway: watchdog timeout",
				"lane", l.key, "site", info.site, "err", err)
		}
		if l.br.onFailure(info.end, g.cfg.BreakerThreshold, g.cfg.BreakerOpenPeriod) {
			g.m.breakerOpened.Inc()
			g.m.breakerOpenLanes.Inc()
			g.log.Warn("gateway: breaker opened", "lane", l.key, "err", err)
		}
		if l.fallback == nil {
			return 0, info, err
		}
		// Primary failed but a fallback exists: serve this very call
		// degraded rather than failing the batch.
	} else if l.fallback == nil {
		info.end = info.start
		return 0, info, fmt.Errorf("%w: lane %s", ErrLaneBroken, l.key)
	}
	info.model = l.fallback
	cost, err = s.price(l.fallback)
	info.end = time.Now()
	if err != nil {
		return 0, info, err
	}
	g.m.degradedIters.Inc()
	info.degraded = true
	return cost, info, nil
}

// primaryCall prices s on the lane's primary model. A shape the model's
// memo already holds is read on the lane goroutine, unless a firing fault
// rule is armed: a memo read cannot block, so it needs no watchdog, and
// with no firing rule there is nothing to inject. Every other call — a
// memo miss, a model without a memo, any call while a latency, stall,
// panic or cost-error rule is armed — goes to the watchdog.
func (g *Gateway) primaryCall(l *lane, s pricedShape, info *priceInfo) (float64, error) {
	if !g.inj.Firing() {
		if q, ok := l.cost.Cached(s.prefill, s.batch, s.length); ok {
			info.quote, info.cached = q, true
			return q.Seconds, nil
		}
	}
	return g.watchdogCall(l, s)
}

// counterAnalogs converts a phase's counter report into the emulated
// hardware counters (LLC MPKI, core utilization, memory-bound fraction,
// UPI utilization) a span carries. A quote without a report — measured
// engines, GPU models — yields nil, and the span carries timing only.
func counterAnalogs(q serve.Quote) *trace.Counters {
	if !q.HasCounters {
		return nil
	}
	return &trace.Counters{
		LLCMPKI:             q.Counters.LLCMPKI,
		CoreUtilization:     q.Counters.CoreUtilization,
		MemoryBoundFraction: q.Counters.MemoryBoundFraction,
		UPIUtilization:      q.Counters.UPIUtilization,
	}
}

// faultAttrs extracts injected-fault span attributes from an execution
// error, unwrapping recovered panics whose panic value was an injected
// fault. Non-injected failures yield nil.
func faultAttrs(err error) map[string]string {
	var inj *faults.Injected
	if errors.As(err, &inj) {
		return inj.Attrs()
	}
	var pe *PanicError
	if errors.As(err, &pe) {
		if v, ok := pe.Value.(*faults.Injected); ok {
			attrs := v.Attrs()
			attrs["fault.panic"] = "true"
			return attrs
		}
	}
	return nil
}

// priced is what one priced call returned.
type priced struct {
	c   float64
	err error
}

// watchdog is a lane's pricing worker: the goroutine priced calls that can
// block run on, so the lane can give up on one that overruns its budget.
// It is owned by the lane's scheduler goroutine and lives from the
// session's first such call until the lane parks (or a call times out,
// which abandons it); a session whose every call is a memo hit starts
// none.
type watchdog struct {
	calls chan pricedShape // nil while no worker is running
	done  chan priced
	timer *time.Timer // stopped and drained between calls
}

// retire lets the worker exit once the call it is in, if any, returns.
func (w *watchdog) retire() {
	if w.calls != nil {
		close(w.calls)
		w.calls = nil
	}
}

// pricingWorker prices a lane's shapes on its primary model m, one at a
// time, until calls is closed. done has room for one result, so a worker
// the lane abandoned delivers into the void and exits.
func pricingWorker(lane string, inj *faults.Injector, m serve.CostModel, calls <-chan pricedShape, done chan<- priced) {
	for s := range calls {
		done <- runPriced(lane, inj, m, s)
	}
}

// runPriced runs one priced call. A panic inside it is converted to a
// PanicError instead of crashing the process: cost-model panics are
// failures, not process events.
func runPriced(lane string, inj *faults.Injector, m serve.CostModel, s pricedShape) (p priced) {
	defer func() {
		if r := recover(); r != nil {
			p = priced{0, &PanicError{Lane: lane, Value: r}}
		}
	}()
	c, err := s.run(inj, lane, m)
	return priced{c, err}
}

// watchdogCall prices one shape on the lane's primary model, on its
// pricing worker under the watchdog deadline. A call that overruns the
// budget is abandoned together with its worker (which exits when the call
// finally returns; the next call starts a fresh one) and reported as
// ErrWatchdogTimeout so the scheduler can cancel and requeue the batch.
// With the watchdog disabled the call runs inline, and its panics reach
// the lane supervisor.
func (g *Gateway) watchdogCall(l *lane, s pricedShape) (float64, error) {
	budget := g.cfg.WatchdogBudget
	if budget <= 0 {
		return s.run(g.inj, l.key, l.cost)
	}
	w := &l.wd
	if w.calls == nil {
		w.calls, w.done = make(chan pricedShape), make(chan priced, 1)
		go pricingWorker(l.key, g.inj, l.cost, w.calls, w.done)
	}
	if w.timer == nil {
		w.timer = time.NewTimer(budget)
	} else {
		w.timer.Reset(budget)
	}
	w.calls <- s
	select {
	case p := <-w.done:
		// go.mod predates Go 1.23's timers: a Reset is only safe on a
		// timer that is stopped and whose channel is empty.
		if !w.timer.Stop() {
			<-w.timer.C
		}
		return p.c, p.err
	case <-w.timer.C:
		w.retire()
		return 0, fmt.Errorf("%w: lane %s exceeded %v", ErrWatchdogTimeout, l.key, budget)
	}
}

// failInflight fails every in-flight sequence of the lane with err,
// tagging each sequence's trace with the fault that killed it.
func (g *Gateway) failInflight(l *lane, err error) {
	seqs := l.batch.Drain()
	if len(seqs) == 0 {
		return
	}
	attrs := faultAttrs(err)
	now := time.Now()
	for _, s := range seqs {
		if tr := s.Job.j.req.Trace; tr != nil {
			if attrs != nil {
				tr.Event("fault", now, attrs)
			}
			tr.Event("failed", now, map[string]string{"err": err.Error()})
		}
		g.failJob(s.Job.j, err)
	}
	g.log.Error("gateway: in-flight batch failed",
		"lane", l.key, "requests", len(seqs), "err", err)
}

// requeueInflight pushes the lane's in-flight sequences back to the head
// of its queue after a watchdog cancellation, failing any job that has
// exhausted its requeue budget. A requeued job restarts from prefill, so
// draining the batch returned its KV reservation to the pool; the lease
// (and its quota charge) survives for readmission.
func (g *Gateway) requeueInflight(l *lane, cause error) {
	now := time.Now()
	var requeue []*job
	for _, s := range l.batch.Drain() {
		j := s.Job.j
		if tr := j.req.Trace; tr != nil {
			// The cancelled iteration's wall time tiles into a stalled
			// span, so the requeue round-trip stays visible and the
			// trace's tiling spans still sum to the request's residence.
			tr.Add(trace.SpanData{Name: trace.PhaseStalled,
				Start: s.Job.mark, End: now,
				Attrs: map[string]string{"cause": cause.Error()}})
		}
		if j.requeues >= g.cfg.MaxRequeues {
			g.failJob(j, cause)
			continue
		}
		j.requeues++
		j.lastMark = now
		j.req.Trace.Event("requeued", now,
			map[string]string{"requeues": fmt.Sprint(j.requeues)})
		g.m.inflight.Dec()
		g.m.requeued.Inc()
		requeue = append(requeue, j)
	}
	if len(requeue) == 0 {
		return
	}
	g.log.Warn("gateway: watchdog requeue",
		"lane", l.key, "requests", len(requeue), "cause", cause)
	g.mu.Lock()
	l.requeueLocked(requeue...)
	g.waiting += len(requeue)
	g.mu.Unlock()
	g.m.queueDepth.Add(int64(len(requeue)))
}

// quarantineLane takes a repeatedly crashing lane out of service: queued
// jobs fail fast with ErrLaneQuarantined, and new submissions are
// rejected until the quarantine period elapses.
func (g *Gateway) quarantineLane(l *lane, now time.Time) {
	g.m.quarantines.Inc()
	g.m.quarantinedLanes.Inc()
	qerr := fmt.Errorf("%w: lane %s", ErrLaneQuarantined, l.key)
	g.mu.Lock()
	l.quarantinedUntil = now.Add(g.cfg.QuarantinePeriod)
	l.crashes = nil
	l.restarts = 0
	queued := l.queue
	l.queue = nil
	g.waiting -= len(queued)
	l.wd.retire()
	l.active = false
	g.mu.Unlock()
	g.log.Error("gateway: lane quarantined",
		"lane", l.key, "until", l.quarantinedUntil, "queued_failed", len(queued))
	for _, j := range queued {
		g.m.queueDepth.Dec()
		j.req.Trace.Event("quarantined", now, map[string]string{"lane": l.key})
		g.failQueuedJob(j, qerr)
	}
}

// failQueuedJob reports an error for a job that never reached admission
// (unlike failJob, it must not touch the in-flight gauge).
func (g *Gateway) failQueuedJob(j *job, err error) {
	g.m.failed.Inc()
	j.lease.Release()
	j.done <- jobOutcome{err: err}
}
