package gateway

// sched_test.go checks the lane as a driver of the scheduler core
// (serve.Batch): white-box and single-threaded — a lane's queue is filled
// by hand and its session run on the test goroutine, with no watchdog
// goroutine and Timescale 0 — so that what the lane serves can be compared
// with what the simulator predicts token for token, and the behaviour of a
// requeued request can be pinned exactly.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/govern"
	"repro/internal/kvpool"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/prefixcache"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// shapeCost prices by batch AND length with non-dyadic constants, so a
// lane that prices another shape than the simulator — or sums an
// iteration's costs in another order — lands on different bits.
type shapeCost struct{}

func (shapeCost) PrefillCost(batch, inputLen int) (float64, error) {
	b, n := float64(batch), float64(inputLen)
	return 1.3e-4*n*(1+0.3*(b-1)) + 7e-8*n*n*b, nil
}

func (shapeCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	b, n := float64(batch), float64(ctxLen)
	return 1.9e-2*(1+0.3*(b-1)) + 1.1e-5*n*b, nil
}
func (shapeCost) Cached(bool, int, int) (serve.Quote, bool) { return serve.Quote{}, false }

// replayed is what one request of a replay produced.
type replayed struct {
	events []TokenEvent
	res    Result
	err    error
}

// replayLane queues reqs on one lane of g, in order, and runs the lane's
// scheduler session to completion on the calling goroutine.
func replayLane(t *testing.T, g *Gateway, key string, reqs []Request) []replayed {
	t.Helper()
	out := make([]replayed, len(reqs))
	jobs := make([]*job, len(reqs))
	g.mu.Lock()
	l, err := g.newLaneLocked(key)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	for i, req := range reqs {
		i := i
		req.Lane = key
		req.Sink = func(ev TokenEvent) { out[i].events = append(out[i].events, ev) }
		lease, err := g.gov.Admit(key, req.Client, req.InputLen, req.OutputLen)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		jobs[i] = &job{req: req, ctx: context.Background(), class: overload.Standard,
			submitted: now, lastMark: now, lease: lease, done: make(chan jobOutcome, 1)}
		l.enqueueLocked(jobs[i])
		g.waiting++
		g.m.queueDepth.Inc()
	}
	l.active = true
	g.mu.Unlock()
	if !g.laneSession(l) {
		t.Fatal("lane session crashed")
	}
	for i, j := range jobs {
		select {
		case o := <-j.done:
			out[i].res, out[i].err = o.res, o.err
		default:
			t.Fatalf("request %d has no outcome after the lane parked", i)
		}
	}
	return out
}

// kvBudget is the byte budget of `blocks` 16-token blocks of the tiny OPT
// shape — what memGovernor gives a lane and what the simulator's pool gets.
func kvBudget(blocks int) int64 {
	m := model.Tiny(model.OPT)
	return m.KVBytesPerTokenPerLayer(tensor.BF16) * int64(m.Layers) * 16 * int64(blocks)
}

// TestLaneMatchesSimulator is the sim-vs-live differential: the same
// trace (every arrival at 0), cost model, batch limit, chunk size and KV
// pool through the simulator and through a live lane must put every
// request's first and last token at exactly the same virtual time — float
// equality, no tolerance. There are no exceptions to name: with the
// scheduling decisions in one core, the two drivers differ only in what
// they do around them.
func TestLaneMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	trace := make([]workload.Request, 14)
	for i := range trace {
		trace[i] = workload.Request{ID: i, InputLen: 20 + rng.Intn(180), OutputLen: 4 + rng.Intn(36)}
	}
	const maxBatch, chunk, blocks = 4, 32, 30

	for _, policy := range []Policy{Continuous, Chunked} {
		for _, mem := range []string{"ungoverned", "conservative", "optimistic"} {
			t.Run(fmt.Sprintf("%s/%s", policy, mem), func(t *testing.T) {
				sim := serve.Server{Cost: shapeCost{}, Policy: serve.Continuous, MaxBatch: maxBatch}
				cfg := Config{MaxQueue: 64, MaxBatch: maxBatch, Policy: policy, PrefillChunk: chunk,
					WatchdogBudget: -1, MaxRequeues: 1 << 20, Registry: metrics.NewRegistry()}
				if policy == Chunked {
					sim.Policy, sim.PrefillChunk = serve.Chunked, chunk
				}
				if mem != "ungoverned" {
					pool, err := kvpool.New(model.Tiny(model.OPT), tensor.BF16, 16, kvBudget(blocks))
					if err != nil {
						t.Fatal(err)
					}
					sim.Pool, sim.Optimistic = pool, mem == "optimistic"
					cfg.Governor = memGovernor(t, cfg.Registry, blocks, func(c *govern.Config) {
						c.Conservative = mem == "conservative"
					})
				}
				want, err := sim.Run(trace)
				if err != nil {
					t.Fatal(err)
				}

				g := New(cfg, fixedResolver(shapeCost{}))
				reqs := make([]Request, len(trace))
				for i, r := range trace {
					reqs[i] = Request{InputLen: r.InputLen, OutputLen: r.OutputLen}
				}
				got := replayLane(t, g, "lane", reqs)

				for i, w := range want {
					r := got[i]
					if r.err != nil {
						t.Fatalf("request %d failed on the lane: %v", i, r.err)
					}
					assertTokenStream(t, r.events, w.Request.OutputLen)
					first, last := r.events[0].VTime, r.events[len(r.events)-1].VTime
					if first != w.TTFT || last != w.Finish {
						t.Errorf("request %d: lane first/last token at %v / %v, simulator TTFT/Finish %v / %v",
							i, first, last, w.TTFT, w.Finish)
					}
				}
				preempted := preemptedTotal(cfg.Registry)
				if preempted != sim.Preemptions {
					t.Errorf("lane preempted %d sequences, simulator %d", preempted, sim.Preemptions)
				}
				if mem == "optimistic" && preempted == 0 {
					t.Error("the optimistic pool is too large: nothing was preempted")
				}
			})
		}
	}
}

// preemptedTotal reads the gateway's preemption counter.
func preemptedTotal(reg *metrics.Registry) int {
	return int(reg.Counter("gateway_preempted_total", "").Value())
}

// TestRequeuedRequestKeepsItsTimeline: a KV preemption sends a request
// back through the queue, but the client already holds its first token
// and has been waiting since its first admission — so TTFT stays the
// first attempt's and E2E spans both attempts, as in the simulator.
func TestRequeuedRequestKeepsItsTimeline(t *testing.T) {
	reg := metrics.NewRegistry()
	// 64-token prompts prefill into exactly 4 blocks, so each sequence's
	// first decode token needs a 5th; 13 blocks admit three prefills but
	// leave one spare, forcing the youngest out and back through the queue.
	g := New(Config{MaxQueue: 8, MaxBatch: 4, WatchdogBudget: -1, MaxRequeues: 100,
		Registry: reg, Governor: memGovernor(t, reg, 13, nil)}, fixedResolver(shapeCost{}))
	got := replayLane(t, g, "lane", []Request{
		{InputLen: 64, OutputLen: 12}, {InputLen: 64, OutputLen: 12}, {InputLen: 64, OutputLen: 12}})
	if n := preemptedTotal(reg); n != 1 {
		t.Fatalf("%v preemptions, the pool was sized for exactly one", n)
	}
	firstPrefill, _ := shapeCost{}.PrefillCost(3, 64)
	secondPrefill, _ := shapeCost{}.PrefillCost(1, 64)
	for i, r := range got {
		if r.err != nil {
			t.Fatal(r.err)
		}
		assertTokenStream(t, r.events, 12)
		// All three were first admitted at virtual time 0 and got their
		// first token from the joint prefill.
		if r.res.TTFTSeconds != firstPrefill {
			t.Errorf("request %d: TTFT %v, the first attempt's prefill cost %v", i, r.res.TTFTSeconds, firstPrefill)
		}
		if last := r.events[11].VTime; r.res.E2ESeconds != last {
			t.Errorf("request %d: E2E %v, but its last token came at %v after a first admission at 0",
				i, r.res.E2ESeconds, last)
		}
	}
	// The victim is the youngest; its E2E covers the discarded first
	// attempt (at least its prefill) and the whole second one.
	victim := got[2].res
	if min := firstPrefill + secondPrefill + 11*1.9e-2; victim.E2ESeconds < min {
		t.Errorf("preempted request's E2E %v drops an attempt (both cost at least %v)", victim.E2ESeconds, min)
	}
}

// countingFailCost is a primary cost model that fails every call and
// remembers what it was asked.
type countingFailCost struct {
	mu         sync.Mutex
	calls      int
	maxPrefill int
}

func (c *countingFailCost) PrefillCost(batch, in int) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	c.maxPrefill = max(c.maxPrefill, in)
	return 0, fmt.Errorf("primary is down")
}

func (c *countingFailCost) DecodeStepCost(batch, ctx int) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	return 0, fmt.Errorf("primary is down")
}
func (*countingFailCost) Cached(bool, int, int) (serve.Quote, bool) { return serve.Quote{}, false }

// TestChunkedCacheHitSavingUsesPricingModel: cache-hit attribution prices
// the saved prefill on the model that priced the iteration. A chunked
// lane never asks for a whole prompt, so with the primary down any
// prefill longer than a chunk — or any call past the breaker's threshold
// — is the attribution calling the broken model bare, outside the
// injector / watchdog / breaker weave.
func TestChunkedCacheHitSavingUsesPricingModel(t *testing.T) {
	reg := metrics.NewRegistry()
	primary := &countingFailCost{}
	gov := memGovernor(t, reg, 64, func(c *govern.Config) { c.EnableCache = true })
	g := New(Config{MaxQueue: 8, MaxBatch: 4, Policy: Chunked, PrefillChunk: 16,
		WatchdogBudget: -1, BreakerThreshold: 3, BreakerOpenPeriod: time.Hour,
		Registry: reg, Governor: gov,
		Fallback: fixedResolver(fakeCost{pre: 0.040, dec: 0.006})},
		fixedResolver(primary))
	defer g.Shutdown(context.Background())

	prefix := []prefixcache.Segment{{ID: "system", Tokens: 64}, {ID: "tail", Tokens: 32, Private: true}}
	req := Request{Lane: "lane", InputLen: 96, OutputLen: 4, Prefix: prefix}
	if _, err := g.Generate(context.Background(), req); err != nil {
		t.Fatalf("donor request: %v", err)
	}
	res, err := g.Generate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.CachedTokens == 0 {
		t.Fatalf("want a degraded cache hit, got degraded=%v cached=%d", res.Degraded, res.CachedTokens)
	}
	if res.PrefillSavedSeconds <= 0 {
		t.Errorf("saving %v: the fallback priced the prefill and can price what the hit saved", res.PrefillSavedSeconds)
	}
	primary.mu.Lock()
	defer primary.mu.Unlock()
	if primary.maxPrefill > 16 || primary.calls > 3 {
		t.Errorf("primary called %d times, longest prefill %d tokens: a chunked lane prices ≤ 16 and the breaker opens after 3 failures",
			primary.calls, primary.maxPrefill)
	}
}
