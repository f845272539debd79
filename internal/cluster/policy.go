package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
)

// Candidate is a routable replica as seen by a routing policy: health
// filtering already happened, so policies rank rather than exclude.
type Candidate struct {
	// Index is the replica's position in the router's replica slice.
	Index int
	// ID is the replica identifier ("r0"...).
	ID string
	// Weight is the configured relative capacity (≥ 1).
	Weight int
	// QueueDepth is the replica's current admission-queue depth.
	QueueDepth int
	// KVUtilization is the max lane KV-pool utilization in [0, 1].
	KVUtilization float64
	// Shedding reports the replica above its KV high watermark.
	Shedding bool
	// BrownoutLevel is the replica's degradation-ladder rung (0 nominal;
	// see internal/overload). Policies steer traffic toward nominal
	// replicas so one overloaded box degrades alone.
	BrownoutLevel int
	// EWMAMillis is the replica's success-latency EWMA (0 = no samples).
	EWMAMillis float64
	// SlowDelay is the standing replica-slow injection delay, if any.
	SlowDelay time.Duration
}

// Policy picks one replica among the routable candidates for a request.
// Policies must be safe for concurrent use; candidates is never empty.
type Policy interface {
	Name() string
	Pick(req *gateway.Request, candidates []Candidate) Candidate
}

// ParsePolicy maps a -route flag value to a policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "", "round-robin", "rr":
		return RoundRobin(), nil
	case "least-loaded", "ll":
		return LeastLoaded(), nil
	case "weighted", "slo", "slo-weighted":
		return Weighted(), nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q (want round-robin, least-loaded or weighted)", name)
	}
}

type rrPolicy struct{ next atomic.Uint64 }

// RoundRobin cycles through routable replicas in order; unhealthy
// replicas are not candidates, so rotation naturally skips them.
// Simple, fair under homogeneous replicas, oblivious to load skew.
func RoundRobin() Policy { return &rrPolicy{} }

func (p *rrPolicy) Name() string { return "round-robin" }

func (p *rrPolicy) Pick(req *gateway.Request, candidates []Candidate) Candidate {
	n := p.next.Add(1) - 1
	return candidates[int(n%uint64(len(candidates)))]
}

// llPolicy routes to the replica with the lowest load score; tie counts
// the ties it has broken.
type llPolicy struct{ tie atomic.Uint64 }

// kvLoadWeight is what a full KV pool weighs in the least-loaded score:
// eight queued requests, since admission past the high watermark risks
// preemption storms rather than mere queueing delay.
const kvLoadWeight = 8

// LeastLoaded routes to the replica with the smallest
// queueDepth + kvLoadWeight·KVUtilization score, breaking ties
// round-robin. Shedding replicas are max-penalized instead of excluded so
// a fully shedding cluster still routes (and returns honest 429s) rather
// than failing closed.
func LeastLoaded() Policy { return &llPolicy{} }

func (p *llPolicy) Name() string { return "least-loaded" }

func (p *llPolicy) score(c Candidate) float64 {
	s := float64(c.QueueDepth) + kvLoadWeight*c.KVUtilization
	if c.Shedding {
		s += 1000
	}
	// Each brownout rung weighs like a growing queue backlog, so traffic
	// drains toward nominal replicas without excluding a degraded one
	// outright (a fully browned-out cluster still routes).
	s += float64(c.BrownoutLevel) * 50
	if c.SlowDelay > 0 {
		s += c.SlowDelay.Seconds() * 100
	}
	return s
}

func (p *llPolicy) Pick(req *gateway.Request, candidates []Candidate) Candidate {
	best, bestScore, ties := candidates[0], p.score(candidates[0]), 1
	for _, c := range candidates[1:] {
		switch s := p.score(c); {
		case s < bestScore:
			best, bestScore, ties = c, s, 1
		case s == bestScore:
			ties++
		}
	}
	if ties > 1 {
		// Rotate among the tied minimum so idle replicas share warm-up
		// traffic instead of piling onto the lowest index.
		k := int((p.tie.Add(1) - 1) % uint64(ties))
		for _, c := range candidates {
			if p.score(c) == bestScore {
				if k == 0 {
					return c
				}
				k--
			}
		}
	}
	return best
}

// wPolicy is smooth weighted round-robin with an SLO twist.
type wPolicy struct {
	mu      sync.Mutex
	current map[int]int
}

// Weighted implements SLO-class aware smooth weighted round-robin:
// replicas are picked proportionally to their configured weights
// (heterogeneous platform capacity), and interactive-class requests are
// additionally steered away from shedding or slow-injected replicas —
// batch traffic tolerates them, latency-sensitive traffic should not.
func Weighted() Policy {
	return &wPolicy{current: map[int]int{}}
}

func (p *wPolicy) Name() string { return "weighted" }

func (p *wPolicy) Pick(req *gateway.Request, candidates []Candidate) Candidate {
	interactive := req != nil && (req.Class == "" || req.Class == "interactive")
	if interactive {
		// Prefer the subset not shedding, not browned out and not
		// slow-injected; fall back to everything when the preference would
		// empty the pool.
		var clean []Candidate
		for _, c := range candidates {
			if !c.Shedding && c.SlowDelay == 0 && c.BrownoutLevel == 0 {
				clean = append(clean, c)
			}
		}
		if len(clean) > 0 {
			candidates = clean
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, c := range candidates {
		p.current[c.Index] += c.Weight
		total += c.Weight
	}
	best := candidates[0]
	for _, c := range candidates[1:] {
		if p.current[c.Index] > p.current[best.Index] {
			best = c
		}
	}
	p.current[best.Index] -= total
	return best
}
