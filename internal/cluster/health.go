package cluster

import (
	"time"
)

const (
	// ejectThreshold ejects a replica after this many consecutive
	// replica-level dispatch errors.
	ejectThreshold = 3
	// minSamples is the EWMA observation floor before latency-outlier
	// ejection may trigger.
	minSamples = 8
)

// healthLoop is the router's active checker: every ProbeInterval it
// reconciles each replica's state against the fault injector's standing
// replica conditions and the passive ejection timers. Passive signals
// (consecutive errors, latency EWMA) are folded in at dispatch time by
// observeOutcome; this loop handles everything time-driven — forced
// outages appearing and clearing, flap phase changes, cooloff expiry
// into half-open.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			r.probeAll()
		}
	}
}

func (r *Router) probeAll() {
	r.m.probes.Inc()
	now := time.Now()
	for _, rep := range r.replicas {
		r.probeReplica(rep, now)
	}
	r.refreshHealthyGauge()
}

// probeReplica reconciles one replica against the injector's standing
// conditions and the cooloff clock.
func (r *Router) probeReplica(rep *replica, now time.Time) {
	var forcedDown bool
	var slow time.Duration
	if r.inj != nil {
		forcedDown, slow = r.inj.Outage(FaultSite, rep.id)
	}
	rep.slowNs.Store(int64(slow))

	rep.mu.Lock()
	defer rep.mu.Unlock()
	switch {
	case forcedDown && rep.state != down && rep.state != draining:
		// Outage begins: mark down and cancel in-flight dispatches. The
		// channel close is the broadcast; runOnReplica rewrites errors to
		// ErrReplicaDown so failover can take over.
		rep.state = down
		if !isClosed(rep.downCh) {
			close(rep.downCh)
		}
		r.log.Warn("cluster: replica down", "replica", rep.id, "cause", "injected outage")

	case !forcedDown && rep.state == down:
		// Outage cleared: re-enter through half-open, not straight to
		// healthy — one trial request confirms the replica actually
		// serves before it takes policy traffic again.
		rep.state = halfOpen
		rep.trial = false
		rep.consec = 0
		rep.downCh = make(chan struct{})
		r.log.Info("cluster: replica outage cleared, probing", "replica", rep.id)

	case rep.state == ejected && now.After(rep.ejectedUntil):
		rep.state = halfOpen
		rep.trial = false
		r.log.Info("cluster: replica cooloff elapsed, probing", "replica", rep.id)
	}
}

// observeOutcome feeds one dispatch result into the replica's passive
// health: successes reset the error streak and update the latency EWMA
// (readmitting a half-open replica); replica-level failures grow the
// streak and eject at the threshold. Client-caused errors (bad request,
// context canceled) and load rejections (queue full, shedding) are not
// charged — they say nothing about replica health. Every outcome frees
// a half-open replica's trial slot; an uncharged one leaves it half-open
// for the next trial.
func (r *Router) observeOutcome(rep *replica, err error, elapsed time.Duration) {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	rep.trial = false
	if err == nil {
		rep.served.Add(1)
		rep.consec = 0
		ms := float64(elapsed.Milliseconds())
		if rep.samples == 0 {
			rep.ewmaMs = ms
		} else {
			const alpha = 0.2
			rep.ewmaMs = alpha*ms + (1-alpha)*rep.ewmaMs
		}
		rep.samples++
		if rep.state == halfOpen {
			rep.state = healthy
			r.m.readmissions.Inc()
			r.log.Info("cluster: replica readmitted", "replica", rep.id)
		}
		return
	}
	if !countsAgainstHealth(err) {
		return
	}
	rep.failed.Add(1)
	rep.consec++
	if rep.state == halfOpen {
		// Failed trial: back to ejected for another cooloff.
		rep.state = ejected
		rep.ejectedUntil = time.Now().Add(r.cfg.EjectCooloff)
		r.m.ejections.Inc()
		r.log.Warn("cluster: replica failed half-open trial", "replica", rep.id, "error", err)
		return
	}
	if rep.state == healthy && rep.consec >= ejectThreshold {
		rep.state = ejected
		rep.ejectedUntil = time.Now().Add(r.cfg.EjectCooloff)
		r.m.ejections.Inc()
		r.log.Warn("cluster: replica ejected", "replica", rep.id,
			"consecutive_errors", rep.consec, "error", err)
	}
}

// ejectLatencyOutliers compares success-latency EWMAs across healthy
// replicas and ejects any whose EWMA exceeds SlowFactor times the best,
// once both sides have minSamples observations. Called opportunistically
// from the dispatch path (not the timer) so it only runs under traffic,
// where the EWMAs are fresh.
func (r *Router) ejectLatencyOutliers() {
	type obs struct {
		rep  *replica
		ewma float64
	}
	var pool []obs
	best := 0.0
	for _, rep := range r.replicas {
		rep.mu.Lock()
		if rep.state == healthy && rep.samples >= minSamples && rep.ewmaMs > 0 {
			pool = append(pool, obs{rep, rep.ewmaMs})
			if best == 0 || rep.ewmaMs < best {
				best = rep.ewmaMs
			}
		}
		rep.mu.Unlock()
	}
	if len(pool) < 2 || best == 0 {
		return // an outlier needs a baseline to be an outlier from
	}
	for _, o := range pool {
		if o.ewma <= best*r.cfg.SlowFactor {
			continue
		}
		o.rep.mu.Lock()
		if o.rep.state == healthy {
			o.rep.state = ejected
			o.rep.ejectedUntil = time.Now().Add(r.cfg.EjectCooloff)
			// Decay the EWMA so a readmitted replica is judged on fresh
			// samples, not the stale slow ones that ejected it.
			o.rep.samples = 0
			r.m.ejections.Inc()
			r.log.Warn("cluster: replica ejected as latency outlier",
				"replica", o.rep.id, "ewma_ms", o.ewma, "best_ms", best)
		}
		o.rep.mu.Unlock()
	}
	r.refreshHealthyGauge()
}

// routable returns the candidates a policy may pick from, excluding any
// replica in tried. Half-open replicas are offered only while they have
// no trial in flight, and the trial slot is claimed here (released by
// observeOutcome on whatever outcome follows).
func (r *Router) routable(tried map[string]bool) []Candidate {
	var out []Candidate
	for i, rep := range r.replicas {
		if tried[rep.id] {
			continue
		}
		rep.mu.Lock()
		ok := false
		switch rep.state {
		case healthy:
			ok = true
		case halfOpen:
			if !rep.trial {
				rep.trial = true
				ok = true
			}
		}
		gw := rep.gw
		ewma := rep.ewmaMs
		rep.mu.Unlock()
		if !ok {
			continue
		}
		out = append(out, Candidate{
			Index:         i,
			ID:            rep.id,
			Weight:        rep.weight,
			QueueDepth:    gw.QueueDepth(),
			KVUtilization: gw.Governor().Utilization(),
			Shedding:      gw.MemoryPressure(),
			BrownoutLevel: gw.BrownoutLevel(),
			EWMAMillis:    ewma,
			SlowDelay:     time.Duration(rep.slowNs.Load()),
		})
	}
	return out
}

// releaseTrial undoes a half-open trial claim when the claimed replica
// was not actually dispatched to (another candidate won the pick).
func (r *Router) releaseTrial(cands []Candidate, picked Candidate) {
	for _, c := range cands {
		if c.Index == picked.Index {
			continue
		}
		rep := r.replicas[c.Index]
		rep.mu.Lock()
		if rep.state == halfOpen {
			rep.trial = false
		}
		rep.mu.Unlock()
	}
}

func (r *Router) refreshHealthyGauge() {
	n := 0
	for _, rep := range r.replicas {
		if st := rep.stateNow(); st == healthy || st == halfOpen {
			n++
		}
	}
	r.m.healthyReplicas.Set(int64(n))
}
