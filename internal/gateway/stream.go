package gateway

// stream.go is the gateway's per-token delivery path. The lane scheduler
// produces tokens at iteration granularity — the whole admitted batch gets
// its first token when a prefill iteration completes, then one token per
// decode iteration — and emitToken fans each one out to the request's
// optional TokenSink, records the first_token trace span, and feeds the
// wall-clock TTFT and inter-token-latency histograms. The paper's point
// (§II-C) is that CPU decode is memory-bound per token, so user-perceived
// latency is governed by exactly these two signals rather than E2E cost;
// streaming makes them observable per request instead of only in
// aggregate.
//
// Emission is exactly-once per token index even though the scheduler may
// recompute work: a watchdog requeue or KV preemption sends a job back to
// the queue and replays its prefill and early decode steps, so the
// per-attempt count (the core's Seq.Produced) is checked against the job's
// high-water mark (job.emitted) and already-delivered indices are skipped.

import (
	"strconv"
	"time"

	"repro/internal/trace"
)

// TokenEvent is one generated token as observed by the lane scheduler.
// The gateway schedules priced iterations rather than sampling real text,
// so the event identifies the token by position; transports that need
// text (the OpenAI-shaped endpoints) synthesize it deterministically.
type TokenEvent struct {
	// Index is the zero-based position of the token in the output.
	Index int
	// Wall is the real time the scheduler produced the token.
	Wall time.Time
	// VTime is the lane's virtual clock (modeled seconds) at production.
	VTime float64
	// Batch is the number of sequences sharing the producing iteration.
	Batch int
	// Degraded marks a token priced by the lane's fallback cost model.
	Degraded bool
	// Final marks the request's last token.
	Final bool
}

// TokenSink receives a request's tokens as they are produced. It is
// called from the lane's scheduler goroutine, so implementations must not
// block: buffer and hand off, never wait on the consumer. Delivery stops
// at the request's terminal outcome; tokens recomputed after a watchdog
// requeue or KV preemption are not re-delivered.
type TokenSink func(TokenEvent)

// emitToken delivers the token s's latest commit produced (unless a
// pre-requeue attempt already delivered it) and records first-token/ITL
// observability. batch is the sequence count of the producing iteration.
func (g *Gateway) emitToken(l *lane, s *seq, batch int, degraded bool, now time.Time) {
	j := s.Job.j
	idx := s.Produced() - 1
	if idx < j.emitted {
		return // recomputed after requeue/preemption: already delivered
	}
	j.emitted = idx + 1
	if idx == 0 {
		j.firstV = l.vclock
		g.m.firstToken.Observe(now.Sub(j.submitted).Seconds())
		g.ctl.Observe(j.class, now.Sub(j.submitted), now)
		if tr := j.req.Trace; tr != nil {
			tr.Add(trace.SpanData{Name: trace.PhaseFirstToken,
				Start: j.submitted, End: now,
				Attrs: map[string]string{"batch": strconv.Itoa(batch)}})
		}
	} else {
		g.m.itl.Observe(now.Sub(j.lastToken).Seconds())
	}
	j.lastToken = now
	if j.req.Sink == nil {
		return
	}
	g.m.streamTokens.Inc()
	j.req.Sink(TokenEvent{
		Index:    idx,
		Wall:     now,
		VTime:    l.vclock,
		Batch:    batch,
		Degraded: degraded,
		Final:    idx == j.req.OutputLen-1,
	})
}

// abandonQueued removes a job whose context died while it was still
// waiting in its lane's queue, releasing its KV blocks and client quota
// immediately. Without this, a cancelled-but-queued request held its
// reservation until the lane's next admission scan — which never comes
// while the lane is wedged inside a long priced call, exactly when
// reclaiming memory matters most. Returns false when the job was not
// found queued (it is executing or already finished; the scheduler's
// eviction and completion paths own cleanup there).
func (g *Gateway) abandonQueued(j *job) bool {
	g.mu.Lock()
	l := g.lanes[j.req.Lane]
	removed := false
	if l != nil {
		for i, q := range l.queue {
			if q == j {
				l.queue = append(l.queue[:i], l.queue[i+1:]...)
				g.waiting--
				removed = true
				break
			}
		}
	}
	g.mu.Unlock()
	if !removed {
		return false
	}
	j.lease.Release()
	g.m.queueDepth.Dec()
	g.m.canceled.Inc()
	return true
}
