package gateway

// overload.go wires the overload controller (internal/overload) into
// the admission path: the pressure signal that drives the brownout
// ladder, class-ordered queue eviction, sustained-saturation readiness,
// and the sample behind the overload section of State. The controller
// itself is evaluated lazily — every admission, scheduler pass and
// status query feeds it a fresh pressure sample — so the ladder climbs
// under live load and steps back down when probes or queries observe
// the pressure gone, without a dedicated goroutine.

import (
	"fmt"
	"time"

	"repro/internal/overload"
)

// siteOverload is the injection site the overload controller queries
// for standing load-spike rules (see internal/faults).
const siteOverload = "overload"

// overloadEvalLocked samples admission pressure and advances the
// brownout ladder, returning the current level and whether a prefix-
// cache flush action fired (to run after the lock is released). The
// pressure signal is the worst of: queue fill fraction, KV watermark
// shedding, and any standing load-spike fault. Callers hold g.mu.
func (g *Gateway) overloadEvalLocked(now time.Time) (level int, flush bool) {
	if g.ctl == nil {
		return 0, false
	}
	p := 0.0
	if g.cfg.MaxQueue > 0 {
		p = float64(g.waiting) / float64(g.cfg.MaxQueue)
	}
	if g.gov.Shedding() {
		p = 1
	}
	if s := g.inj.Spike(siteOverload, ""); s > p {
		p = s
	}
	level, step := g.ctl.Evaluate(p, now)
	if step != 0 {
		g.log.Warn("gateway: brownout level changed",
			"level", level, "step", step, "pressure", p,
			"actions", overload.Actions(level))
	}
	// Entering LevelEvictCache (or climbing past it) flushes the prefix
	// cache once per upward step: recomputation is cheaper than holding
	// reclaimable KV while the pool is the bottleneck.
	flush = step > 0 && level >= overload.LevelEvictCache
	return level, flush
}

// runOverloadActions performs brownout side effects that must not run
// under g.mu (the governor takes its own locks).
func (g *Gateway) runOverloadActions(flush bool) {
	if !flush || g.gov == nil {
		return
	}
	if n := g.gov.FlushCache(); n > 0 {
		g.log.Warn("gateway: brownout flushed prefix cache", "blocks", n)
	}
}

// evictLowerClassLocked makes room in a full queue for an arriving
// request of class cls by failing the newest queued job of a strictly
// lower class (batch first), returning whether a victim was evicted.
// Lane queues are class-ordered, so each lane's candidate is its tail;
// watchdog/preemption requeues sit at the queue front and are never
// victims — their partial compute is already paid for. Callers hold
// g.mu.
func (g *Gateway) evictLowerClassLocked(cls overload.Class, now time.Time) bool {
	var victim *job
	var vl *lane
	for _, l := range g.lanes {
		n := len(l.queue)
		if n == 0 {
			continue
		}
		q := l.queue[n-1]
		if q.class <= cls || q.requeues > 0 {
			continue
		}
		if victim == nil || q.class > victim.class ||
			(q.class == victim.class && q.submitted.After(victim.submitted)) {
			victim, vl = q, l
		}
	}
	if victim == nil {
		return false
	}
	vl.queue = vl.queue[:len(vl.queue)-1]
	g.waiting--
	g.m.queueDepth.Dec()
	g.m.classShed.Inc()
	g.ctl.NoteShed(victim.class)
	victim.req.Trace.Event("overload", now, map[string]string{
		"action": "class-evict", "class": victim.class.String(),
		"for": cls.String()})
	g.failQueuedJob(victim, fmt.Errorf("%w: %s-class victim evicted for %s-class admission",
		ErrClassShed, victim.class, cls))
	return true
}

// noteSaturationLocked updates the sustained-saturation tracker with
// hysteresis: the anchor is set when the queue reaches capacity and
// cleared only once it drains below half. Callers hold g.mu.
func (g *Gateway) noteSaturationLocked(now time.Time) {
	switch {
	case g.waiting >= g.cfg.MaxQueue:
		if g.satSince.IsZero() {
			g.satSince = now
		}
	case g.waiting <= g.cfg.MaxQueue/2:
		g.satSince = time.Time{}
	}
}

// Saturated reports sustained queue saturation: the admission queue has
// been at capacity for at least SaturationWindow without draining below
// half. A saturated gateway returning 429s is not ready — /readyz and
// the cluster router's shedding signal both consult this, so traffic is
// steered away instead of piling onto a wedged queue.
func (g *Gateway) Saturated() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.noteSaturationLocked(time.Now())
	return !g.satSince.IsZero() && time.Since(g.satSince) >= g.cfg.SaturationWindow
}

// BrownoutLevel samples pressure, advances the brownout ladder, and
// returns its level (0 when overload control is off or service is
// nominal). The cluster router polls it to steer around browned-out
// replicas and to suppress hedging.
func (g *Gateway) BrownoutLevel() int {
	if g.ctl == nil {
		return 0
	}
	g.mu.Lock()
	level, flush := g.overloadEvalLocked(time.Now())
	g.mu.Unlock()
	g.runOverloadActions(flush)
	return level
}
