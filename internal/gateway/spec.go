package gateway

// spec.go wires speculative decoding (internal/specdec, engine
// speculative.go) into the live serving path. A lane whose cost model
// implements serve.SpecCostModel gains a draft engine: each decode
// iteration becomes one speculation cycle — k draft steps plus one fused
// multi-row verification pass over the running batch — and every sequence
// commits its accepted run plus the verification bonus token (the
// scheduler core's Commit takes a token count per sequence). The cycle
// is priced through the same watchdog/injection/breaker weave as a plain
// decode step (pricedCall), so chaos faults, watchdog requeues, KV
// preemption and degraded mode keep working; committed tokens flow
// through the exactly-once emission path (stream.go), so SSE streaming
// and requeue deduplication are untouched.
//
// The gateway schedules priced iterations over synthetic index-only
// tokens, so acceptance is sampled rather than computed from logits: each
// sequence's accepted run is the leading Bernoulli(α) successes of its
// proposal, with α the configured acceptance rate and the sampler seeded
// per lane for reproducibility. The adaptive controller
// (specdec.Adaptive) tracks realized acceptance and shrinks k — to 1
// when α is poor — exactly as a logit-verifying scheduler would. Greedy
// equivalence of real speculative decoding is the engine layer's
// property (bit-identity tests in internal/engine); this layer models
// its scheduling, pricing and governance.

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/specdec"
	"repro/internal/trace"
)

// SpecConfig tunes gateway-wide speculative decoding.
type SpecConfig struct {
	// Lookahead is the maximum draft proposal length k per cycle; the
	// per-lane adaptive controller works downward from it. Default 4.
	Lookahead int
	// Acceptance is the modeled per-token probability α that the target
	// accepts a draft token. Default 0.8.
	Acceptance float64
	// Seed seeds the per-lane acceptance samplers (combined with the
	// lane key, so distinct lanes draw independent streams). 0 means 1.
	Seed int64
}

func (c *SpecConfig) withDefaults() SpecConfig {
	s := *c
	if s.Lookahead <= 0 {
		s.Lookahead = 4
	}
	if s.Acceptance <= 0 {
		s.Acceptance = 0.8
	}
	if s.Acceptance > 1 {
		s.Acceptance = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// laneSpec is a lane's speculative state, owned by the lane goroutine
// except adapt (internally locked) which metrics snapshots may read.
type laneSpec struct {
	cm    serve.SpecCostModel
	rng   *rand.Rand
	adapt *specdec.Adaptive
	alpha float64
	maxK  int

	// The cycle being run, per decoding sequence (reused buffers): draft
	// tokens proposed, those verification accepted, and the tokens the
	// core commits — the accepted run plus the bonus token.
	k                          int
	proposed, accepted, counts []int
}

// initLaneSpec attaches speculative state to a newly created lane when
// the gateway is configured for speculation and the lane's cost model can
// price draft steps and verification passes. Lanes whose model cannot
// simply decode plainly, as do chunked-prefill lanes: a cycle of k draft
// steps plus verification is exactly the long iteration chunking exists
// to bound.
func (g *Gateway) initLaneSpec(l *lane) {
	if g.cfg.Spec == nil || g.cfg.Policy == Chunked {
		return
	}
	scm, ok := l.cost.(serve.SpecCostModel)
	if !ok {
		return
	}
	sc := g.cfg.Spec.withDefaults()
	h := fnv.New64a()
	h.Write([]byte(l.key))
	l.spec = &laneSpec{
		cm:    scm,
		rng:   rand.New(rand.NewSource(sc.Seed ^ int64(h.Sum64()))),
		adapt: specdec.NewAdaptive(sc.Lookahead),
		alpha: sc.Acceptance,
		maxK:  sc.Lookahead,
	}
}

// specSuspended reports whether this iteration must decode plainly even
// though the lane is speculation-capable: the brownout ladder at or above
// the cap-batch rung sheds the draft's extra compute first, and an open
// breaker means pricing would come from the fallback model, which cannot
// price a draft. The read is non-advancing (Controller.Level), so
// checking it here never moves the ladder.
func (g *Gateway) specSuspended(l *lane, now time.Time) bool {
	if g.ctl.Level() >= overload.LevelCapBatch {
		return true
	}
	return !l.br.allowPrimary(now)
}

// priceDecode prices the running batch's step: one speculation cycle
// when the lane speculates and nothing suspends it, else one plain decode
// step. counts is the tokens each sequence commits — nil for one each.
func (g *Gateway) priceDecode(l *lane, seqs []*seq, maxCtx int) (cost float64, info priceInfo, counts []int, err error) {
	if l.spec != nil {
		if g.specSuspended(l, time.Now()) {
			g.m.specSuspended.Inc()
		} else if cost, info, counts, err = g.speculate(l, seqs, maxCtx); counts != nil || err != nil {
			return cost, info, counts, err
		}
	}
	cost, info, err = g.priceIteration(l, false, len(seqs), maxCtx)
	return cost, info, nil, err
}

// speculate plans and prices one speculation cycle for the decoding
// sequences. It returns nil counts — without pricing anything — when no
// sequence can usefully speculate this iteration (all disabled or on
// their final token), letting the caller price a plain decode step; and
// nil counts with the fallback's plain-step price when the cycle was
// priced degraded. The core has already grown every lease by one token
// (serve.Batch.Next); the extra proposal pages are claimed here and are
// the first thing dropped under KV pressure.
func (g *Gateway) speculate(l *lane, seqs []*seq, maxCtx int) (float64, priceInfo, []int, error) {
	sp := l.spec
	k := sp.adapt.K()
	if k > sp.maxK {
		k = sp.maxK
	}

	// Plan each sequence's proposal and sample its accepted run up front:
	// acceptance drives KV growth, and the sampler must advance exactly
	// once per participating sequence per cycle for reproducibility.
	sp.k = 0
	sp.proposed, sp.accepted, sp.counts = sp.proposed[:0], sp.accepted[:0], sp.counts[:0]
	for _, s := range seqs {
		j := s.Job.j
		prop := k
		if lim := j.req.SpecLookahead; lim > 0 && lim < prop {
			prop = lim
		}
		if rem := s.Out - s.Produced() - 1; prop > rem {
			prop = rem
		}
		if j.req.SpecDisabled {
			prop = 0
		}
		acc := 0
		for acc < prop && sp.rng.Float64() < sp.alpha {
			acc++
		}
		// KV governance: the lease must also cover the accepted rows
		// beyond the one token already granted. Draft state is the first
		// casualty of memory pressure — a sequence whose extra pages don't
		// fit falls back to a plain single-token commit (its sampled run is
		// discarded with the pages) instead of anyone being preempted.
		if acc > 0 && j.lease.Grow(acc) != nil {
			acc = 0
		}
		sp.proposed = append(sp.proposed, prop)
		sp.accepted = append(sp.accepted, acc)
		sp.counts = append(sp.counts, acc+1)
		sp.k = max(sp.k, prop)
	}
	if sp.k == 0 {
		return 0, priceInfo{}, nil, nil
	}

	// Price the cycle — k draft steps plus one fused verification pass
	// over k+1 rows — through the resilience weave. A fallback model
	// cannot price a draft, so degraded pricing charges a plain decode
	// step and the cycle commits one token per sequence.
	// The closures read locals only: a call the watchdog abandons keeps
	// running after the lane has moved on to its next cycle.
	batch, cycleK, cm := len(seqs), sp.k, sp.cm
	var fallback func() (float64, error)
	if l.fallback != nil {
		fallback = func() (float64, error) { return l.fallback.DecodeStepCost(batch, maxCtx) }
	}
	cost, info, err := g.pricedCall(l, siteDecode, func() (float64, error) {
		d, derr := cm.DraftStepCost(batch, maxCtx)
		if derr != nil {
			return 0, derr
		}
		v, verr := cm.VerifyCost(batch, maxCtx, cycleK+1)
		if verr != nil {
			return 0, verr
		}
		return float64(cycleK)*d + v, nil
	}, fallback)
	if err != nil {
		return 0, info, nil, err
	}
	if info.degraded {
		g.m.specSuspended.Inc()
		return cost, info, nil, nil
	}
	return cost, info, sp.counts, nil
}

// noteSpeculated attributes a committed cycle to the i-th decoding
// sequence: job-level counters (they survive requeues) and the
// speculative span.
func (g *Gateway) noteSpeculated(l *lane, s *seq, i int, now time.Time, cost float64, info priceInfo) {
	sp, j := l.spec, s.Job.j
	j.specProposed += sp.proposed[i]
	j.specAccepted += sp.accepted[i]
	j.specPasses++
	if j.req.Trace == nil {
		return
	}
	g.iterSpans(s, trace.SpanData{Name: trace.PhaseSpeculative,
		Attrs: map[string]string{
			"k":         strconv.Itoa(sp.k),
			"proposed":  strconv.Itoa(sp.proposed[i]),
			"accepted":  strconv.Itoa(sp.accepted[i]),
			"committed": strconv.Itoa(sp.counts[i]),
			"batch":     strconv.Itoa(len(sp.counts)),
			"ctx":       strconv.Itoa(s.Ctx()),
		}}, now, cost, info)
}

// noteCycle records a committed cycle in the lane's metrics and feeds the
// realized acceptance to the adaptive lookahead controller.
func (g *Gateway) noteCycle(l *lane) {
	sp := l.spec
	prop, acc := 0, 0
	for i := range sp.proposed {
		prop += sp.proposed[i]
		acc += sp.accepted[i]
	}
	g.m.specCycles.Inc()
	g.m.specProposed.Add(uint64(prop))
	g.m.specAccepted.Add(uint64(acc))
	sp.adapt.Observe(prop, acc)
}
