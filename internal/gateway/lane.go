package gateway

// lane.go is the live driver of the scheduler core (serve.Batch): one
// goroutine per active lane admits queued jobs into the lane's batch, asks
// the core for the iteration's shapes, prices them through the resilience
// weave, advances the lane's virtual clock by the modeled cost and
// commits — the loop the trace simulator in internal/serve runs over the
// same core, here fed by live requests arriving over real channels. The
// lane owns everything that is not scheduling: the class-ordered queue
// (under g.mu), wall-clock spans and metrics, exactly-once emission,
// prefix-cache attribution and pacing. Queue waits and wall times are
// measured against the real clock.
//
// The scheduler runs under a supervisor (runLane): a panic anywhere in
// the iteration loop fails only the in-flight requests with a typed
// PanicError, then the lane restarts with exponential backoff; a lane
// that keeps crashing is quarantined. Priced calls that can block run
// under a watchdog, and every priced call under a circuit breaker
// (supervisor.go), so a wedged or failing cost model degrades onto the
// fallback model instead of stalling the lane.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/govern"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/trace"
)

// jobOutcome is what Generate receives back.
type jobOutcome struct {
	res Result
	err error
}

// job is one queued generation request.
type job struct {
	req       Request
	ctx       context.Context
	submitted time.Time
	done      chan jobOutcome

	// class is the request's parsed SLO class; it orders queue insertion
	// (interactive ahead of batch) and selects shedding victims under
	// brownout.
	class overload.Class
	// brownout records that admission clamped the request's output length
	// (the cap-batch-tokens rung); surfaced as finish_reason "brownout".
	brownout bool

	// Set at admission by the lane goroutine. A requeued job's modeled
	// timeline does not restart (see serve.Plan.Victims): admitV is the
	// lane clock at its FIRST admission and firstV the clock at its first
	// DELIVERED token, while admitWall and batchAt follow the latest.
	admitWall time.Time
	admitV    float64
	firstV    float64
	batchAt   int
	// requeues counts watchdog cancellations and KV preemptions that sent
	// the job back to the queue.
	requeues int
	// lease is the job's KV-memory claim (nil when the gateway runs
	// without a governor). Reserved at lane admission, grown per decode
	// step under optimistic mode, and released exactly once at any
	// terminal outcome (lease methods are nil-safe and idempotent).
	lease *govern.Lease
	// lastMark is the trace-tiling cursor: the end of the job's previous
	// tiling span (queue/stalled). It starts at submission and is advanced
	// at admission and on requeue, so consecutive tiling spans share
	// boundaries and their durations sum to the job's gateway residence.
	lastMark time.Time
	// emitted is the token-delivery high-water mark: the count of token
	// indices already handed to the sink (and observed by the ITL
	// histograms). It survives requeues, so recomputed tokens are not
	// re-delivered (stream.go).
	emitted int
	// lastToken is when the job's most recent token was emitted.
	lastToken time.Time
	// cached counts prompt tokens adopted from the prefix cache at the
	// most recent admission (0 on a miss); saved is the prefill
	// model-seconds that adoption avoided, fixed at prefill pricing.
	cached int
	saved  float64
}

// attempt is the lane's per-execution-attempt state, hung off the
// scheduler core's sequence; a requeue discards it with the sequence
// while the job (and its emitted high-water mark) lives on.
type attempt struct {
	j *job
	// degraded records that at least one of the sequence's iterations
	// was priced by the fallback cost model.
	degraded bool
	// mark continues the job's trace-tiling cursor through execution:
	// every prefill/decode span covers [mark, now) and advances it.
	mark time.Time
}

// seq is one in-flight sequence of the lane's batch.
type seq = serve.Seq[attempt]

// lane is a batching stream for one (platform, model, config) key.
type lane struct {
	key      string
	cost     serve.CostModel
	fallback serve.CostModel // degraded-mode stand-in; nil when none exists

	// queue, active and quarantinedUntil are guarded by the gateway
	// mutex; the scheduler goroutine owns everything else.
	queue            []*job
	active           bool
	quarantinedUntil time.Time

	// Scheduler and supervisor state, owned by the single runLane
	// goroutine. joined is this iteration's admissions (a reused buffer).
	batch    serve.Batch[attempt]
	joined   []*seq
	br       breaker
	wd       watchdog
	crashes  []time.Time
	restarts int

	vclock float64
}

// enqueueLocked inserts j into the lane queue in class-priority order:
// ahead of any strictly lower class (batch yields to interactive) but
// behind equal-class work, preserving arrival order within a class.
// Watchdog/preemption requeues sit at the front with compute already
// paid for; the scan stops at them so a new arrival never jumps a
// requeued job regardless of class. Callers hold g.mu.
func (l *lane) enqueueLocked(j *job) {
	i := len(l.queue)
	for i > 0 && l.queue[i-1].class > j.class && l.queue[i-1].requeues == 0 {
		i--
	}
	l.queue = append(l.queue, nil)
	copy(l.queue[i+1:], l.queue[i:])
	l.queue[i] = j
}

// requeueLocked sends jobs whose execution attempt was cut short (a KV
// preemption, a watchdog cancellation) back to the head of the queue to
// recompute from prefill — behind jobs requeued before them, so the one
// that has waited longest is readmitted first, as the simulator's trace
// driver does. Callers hold g.mu.
func (l *lane) requeueLocked(js ...*job) {
	i := 0
	for i < len(l.queue) && l.queue[i].requeues > 0 {
		i++
	}
	l.queue = slices.Insert(l.queue, i, js...)
}

// crashWindow is the sliding window in which Config.CrashLimit recovered
// panics quarantine a lane.
const crashWindow = 30 * time.Second

// runLane supervises the lane scheduler: it reruns laneSession until the
// lane parks cleanly, restarting after recovered panics with exponential
// backoff and quarantining the lane once crashes exceed the limit inside
// the crash window. It holds a worker-pool slot while executing.
func (g *Gateway) runLane(l *lane) {
	defer g.wg.Done()
	g.slots <- struct{}{}
	g.m.lanes.Inc()
	defer func() {
		g.m.lanes.Dec()
		<-g.slots
	}()

	for {
		if g.laneSession(l) {
			return // parked cleanly: queue and batch empty
		}
		// The session panicked and was recovered. Restart or quarantine.
		now := time.Now()
		l.crashes = append(l.crashes, now)
		cutoff := now.Add(-crashWindow)
		kept := l.crashes[:0]
		for _, c := range l.crashes {
			if c.After(cutoff) {
				kept = append(kept, c)
			}
		}
		l.crashes = kept
		if len(l.crashes) >= g.cfg.CrashLimit {
			g.quarantineLane(l, now)
			return
		}
		g.m.restarts.Inc()
		backoff := g.cfg.RestartBackoff << l.restarts
		if backoff <= 0 || backoff > g.cfg.RestartBackoffMax {
			backoff = g.cfg.RestartBackoffMax
		}
		l.restarts++
		g.log.Warn("gateway: lane restarting after panic",
			"lane", l.key, "backoff", backoff, "recent_crashes", len(l.crashes))
		time.Sleep(backoff)
	}
}

// laneSession drains the lane until both its queue and batch are empty,
// then parks (returns true). A panic is recovered: the in-flight batch
// fails with a typed PanicError and the session reports a crash (returns
// false) so the supervisor can restart it. Queued jobs survive a crash.
func (g *Gateway) laneSession(l *lane) (parked bool) {
	defer func() {
		if r := recover(); r != nil {
			g.m.panics.Inc()
			g.failInflight(l, &PanicError{Lane: l.key, Value: r})
		}
	}()

	for {
		// Fault-injection site for worker crashes: a panic raised here is
		// indistinguishable from a scheduler bug to the supervisor.
		if err := g.inj.Apply(siteLane, l.key); err != nil {
			g.failInflight(l, err)
			continue
		}
		// Propagate standing mem-pressure rules into the lane's effective
		// pool before admitting; deleting the rule recovers here too.
		if g.gov != nil {
			g.gov.SetPressure(l.key, g.inj.Pressure(siteGovern, l.key))
		}

		// Admission: take waiting jobs into the slots the core reports free,
		// discarding any whose context died while queued. Admit reserves
		// each job's KV blocks first; a job the pool cannot hold right now
		// stays queued (memBlocked) until blocks free up or pressure lifts.
		g.mu.Lock()
		l.queue = g.dropCanceledLocked(l.queue)
		l.joined = l.joined[:0]
		memBlocked := false
		for len(l.queue) > 0 && l.batch.Slots() > 0 {
			j := l.queue[0]
			s := &seq{Job: attempt{j: j}, In: j.req.InputLen, Out: j.req.OutputLen,
				Mem: g.claim(j)}
			if l.batch.Admit(s) != nil {
				memBlocked = true
				break
			}
			s.Cached = j.cached
			l.joined = append(l.joined, s)
			l.queue = l.queue[1:]
		}
		if l.batch.Len() == 0 && len(l.queue) == 0 {
			// Parking hands the lane to whichever goroutine runs it next:
			// retire the pricing worker while the lane is still ours.
			l.wd.retire()
			l.active = false
			l.restarts = 0
			g.mu.Unlock()
			return true
		}
		g.waiting -= len(l.joined)
		g.noteSaturationLocked(time.Now())
		g.mu.Unlock()

		if l.batch.Len() == 0 && memBlocked {
			// Everything is queued behind an exhausted (or pressure-shrunk)
			// pool with nothing running to free blocks. Back off briefly
			// instead of spinning; recovery comes from the pressure query
			// at the top of the loop or from client cancellations.
			time.Sleep(2 * time.Millisecond)
			continue
		}

		now := time.Now()
		for _, s := range l.joined {
			j := s.Job.j
			g.m.queueDepth.Dec()
			j.admitWall = now
			if j.requeues == 0 { // first admission
				j.admitV = l.vclock
			}
			j.batchAt = l.batch.Len()
			s.Job.mark = now
			if tr := j.req.Trace; tr != nil {
				attrs := map[string]string{"lane": l.key}
				if j.requeues > 0 {
					attrs["requeues"] = strconv.Itoa(j.requeues)
				}
				tr.Add(trace.SpanData{Name: trace.PhaseQueue,
					Start: j.lastMark, End: now, Attrs: attrs})
				s.Job.mark = time.Now()
				tr.Add(trace.SpanData{Name: trace.PhaseBatch,
					Start: now, End: s.Job.mark,
					Attrs: map[string]string{"batch": strconv.Itoa(j.batchAt)}})
			}
			j.lastMark = now
			g.m.queueWait.Observe(now.Sub(j.submitted).Seconds())
			g.m.inflight.Inc()
		}

		iterCost, err := g.iterate(l)
		if err != nil {
			if errors.Is(err, ErrWatchdogTimeout) {
				// The batch overran its deadline: cancel and requeue it
				// rather than losing or failing every request outright.
				g.requeueInflight(l, err)
				continue
			}
			// A broken cost model fails everything currently in the lane.
			g.failInflight(l, err)
			continue
		}
		if iterCost > 0 {
			g.m.iters.Inc()
			if g.cfg.Timescale > 0 {
				time.Sleep(time.Duration(iterCost * g.cfg.Timescale * float64(time.Second)))
			}
		}
	}
}

// dropCanceledLocked filters dead and deadline-unmeetable jobs out of a
// queue slice, maintaining the waiting count. A job whose context
// carries a deadline the limiter's modeled TTFT says can no longer be
// met is failed here with a typed error rather than burning prefill
// compute on a response the client will discard. Callers hold g.mu.
func (g *Gateway) dropCanceledLocked(queue []*job) []*job {
	now := time.Now()
	kept := queue[:0]
	for _, j := range queue {
		if j.ctx.Err() != nil {
			j.lease.Release()
			g.waiting--
			g.m.queueDepth.Dec()
			g.m.canceled.Inc()
			continue
		}
		if g.ctl != nil {
			if dl, ok := j.ctx.Deadline(); ok {
				if est := g.ctl.ExpectedTTFT(j.class); est > 0 && now.Add(est).After(dl) {
					g.waiting--
					g.m.queueDepth.Dec()
					g.m.deadlineEvicted.Inc()
					j.req.Trace.Event("overload", now, map[string]string{
						"action": "deadline-evict", "class": j.class.String(),
						"expected_ttft": est.String()})
					g.failQueuedJob(j, fmt.Errorf(
						"%w: modeled TTFT %v overruns the request deadline",
						ErrDeadlineUnmeetable, est.Round(time.Millisecond)))
					continue
				}
			}
		}
		kept = append(kept, j)
	}
	return kept
}

// iterate runs one iteration of the lane's batch: evict sequences whose
// client went away, let the core plan (requeueing the victims it
// preempted), price the planned shapes — a decode step for the running
// batch, a batched prefill or one prefill chunk for the joining
// sequences — advance the virtual clock by the sum, commit, and deliver
// what the commit produced. Joiners are in the batch from
// admission on, so an error or panic mid-iteration fails (or requeues)
// them with the rest. It returns the iteration's modeled cost.
func (g *Gateway) iterate(l *lane) (float64, error) {
	b := &l.batch
	for _, s := range b.All() {
		if j := s.Job.j; j.ctx.Err() != nil {
			b.Remove(s)
			j.lease.Release()
			g.m.canceled.Inc()
			g.m.inflight.Dec()
		}
	}
	p := b.Next()
	for _, v := range p.Victims {
		g.preemptSeq(l, v)
	}
	if p.Empty() {
		return 0, nil
	}
	inflight, nd, np := b.Len(), len(p.Decode), len(p.Prefill)

	var iter, decCost, preCost float64
	var dec, pre priceInfo
	if nd > 0 {
		var err error
		decCost, dec, err = g.pricedCall(l, pricedShape{batch: nd, length: p.DecodeCtx})
		if err != nil {
			return 0, err
		}
		iter += decCost
		g.m.batchSize.Observe(float64(nd))
	}
	if np > 0 {
		var err error
		preCost, pre, err = g.pricedCall(l, pricedShape{prefill: true, batch: np, length: p.PrefillLen})
		if err != nil {
			return 0, err
		}
		iter += preCost
	}
	l.vclock += iter
	b.Commit(p)
	now := time.Now()

	decCnt := iterCounters(p.Decode, dec, false, nd, p.DecodeCtx)
	for _, s := range p.Decode {
		s.Job.degraded = s.Job.degraded || dec.degraded
		if s.Job.j.req.Trace != nil {
			g.iterSpans(s, trace.SpanData{Name: trace.PhaseDecode, Counters: decCnt,
				Fixed: trace.FixedAttrs{}.With(trace.AttrToken, s.Produced()).
					With(trace.AttrBatch, nd).With(trace.AttrCtx, s.Ctx())},
				now, decCost, dec)
		}
		g.emitToken(l, s, nd, dec.degraded, now)
		if s.Done() {
			g.completeSeq(l, s)
		}
	}

	preCnt := iterCounters(p.Prefill, pre, true, np, p.PrefillLen)
	for _, s := range p.Prefill {
		s.Job.degraded = s.Job.degraded || pre.degraded
		if s.Job.j.req.Trace != nil {
			g.iterSpans(s, trace.SpanData{Name: trace.PhasePrefill, Counters: preCnt,
				Fixed: trace.FixedAttrs{}.With(trace.AttrBatch, np).
					With(trace.AttrInputLen, p.PrefillLen).With(trace.AttrDone, s.Prefilled())},
				now, preCost, pre)
		}
		if s.Prefilling() {
			continue
		}
		// The prompt is in: the first token exists now. The cache saving
		// is estimated on the model that priced this very iteration — the
		// primary may be the reason the lane is degraded.
		g.noteCacheHit(s.Job.j, pre.model, np, now)
		g.donatePrefix(s.Job.j)
		g.emitToken(l, s, inflight, s.Job.degraded, now)
		if s.Done() {
			g.completeSeq(l, s)
		}
	}
	return iter, nil
}

// completeSeq delivers a finished sequence's result and records metrics.
func (g *Gateway) completeSeq(l *lane, s *seq) {
	j := s.Job.j
	e2e := l.vclock - j.admitV
	ttft := j.firstV - j.admitV
	var tpot float64
	if steps := j.req.OutputLen - 1; steps > 0 {
		tpot = (l.vclock - j.firstV) / float64(steps)
	}
	res := Result{
		Lane:             j.req.Lane,
		InputLen:         j.req.InputLen,
		OutputLen:        j.req.OutputLen,
		CachedTokens:     j.cached,
		QueueSeconds:     j.admitWall.Sub(j.submitted).Seconds(),
		TTFTSeconds:      ttft,
		TPOTSeconds:      tpot,
		E2ESeconds:       e2e,
		WallSeconds:      time.Since(j.submitted).Seconds(),
		BatchAtAdmission: j.batchAt,
		Degraded:         s.Job.degraded,
		TraceID:          j.req.Trace.ID(),
	}
	if e2e > 0 {
		res.TokensPerSecond = float64(j.req.OutputLen) / e2e
	}
	res.PrefillSavedSeconds = j.saved
	if j.brownout {
		res.FinishReason = "brownout"
	}
	g.m.ttft.Observe(ttft)
	if tpot > 0 {
		g.m.tpot.Observe(tpot)
	}
	g.m.e2e.Observe(e2e)
	g.m.wall.Observe(res.WallSeconds)
	g.m.completed.Inc()
	if s.Job.degraded {
		g.m.degraded.Inc()
	}
	g.m.inflight.Dec()
	j.lease.Release()
	j.done <- jobOutcome{res: res}
}

// failJob reports an execution error for a job that was already admitted.
func (g *Gateway) failJob(j *job, err error) {
	g.m.failed.Inc()
	g.m.inflight.Dec()
	j.lease.Release()
	j.done <- jobOutcome{err: err}
}

// iterSpans records one sequence's participation in a priced iteration:
// an overlapping pricing span (the wall time spent inside the cost model
// or engine) and the tiling span — phase carries its name, attributes and
// counters — covering the sequence's wall time since its previous tiling
// span. The sequence's tiling mark advances to end, so consecutive spans
// stay contiguous and their durations sum to the request's gateway
// residence. This runs per token per traced sequence: the attributes it
// adds are typed (trace.FixedAttrs), never a map.
func (g *Gateway) iterSpans(s *seq, phase trace.SpanData, end time.Time, cost float64, info priceInfo) {
	tr := s.Job.j.req.Trace
	if tr == nil {
		return
	}
	site := trace.SiteDecode
	if info.site == sitePrefill {
		site = trace.SitePrefill
	}
	pricing := trace.SpanData{Name: trace.PhasePricing, Start: info.start, End: info.end,
		ModelSeconds: cost, Fixed: trace.FixedAttrs{}.With(trace.AttrSite, site)}
	if info.degraded {
		pricing.Fixed = pricing.Fixed.With(trace.AttrDegraded, 1)
		phase.Fixed = phase.Fixed.With(trace.AttrDegraded, 1)
	}
	tr.Add(pricing)
	phase.Start, phase.End, phase.ModelSeconds = s.Job.mark, end, cost
	tr.Add(phase)
	s.Job.mark = end
}

// iterCounters derives the counter analogs for one priced iteration, once,
// when at least one participating sequence is being traced. A call the
// memo answered carries its quote; any other reads the memo of the model
// that priced it, which holds the shape now, so it never re-simulates.
func iterCounters(parts []*seq, info priceInfo, prefill bool, batch, length int) *trace.Counters {
	for _, s := range parts {
		if s.Job.j.req.Trace != nil {
			q, ok := info.quote, info.cached
			if !ok {
				q, ok = info.model.Cached(prefill, batch, length)
			}
			if !ok {
				return nil
			}
			return counterAnalogs(q)
		}
	}
	return nil
}
