package main

import (
	"context"
	"log/slog"
	"os"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/counters"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/overload"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// servingLane is the lane both serving workloads use: the analytic SPR
// model of OPT-13B. Its iterations are priced from a memoised cost table,
// so the engine and kernels are never called and what is timed is the
// serving stack itself.
const (
	servingPlatform = "spr"
	servingModel    = "OPT-13B"
	servingLane     = servingPlatform + "|" + servingModel + "|0||"
)

// shared is what cmd/llmperfd builds once per process and hands to every
// gateway: registry, tracer (sample rate 1), fault injector, logger.
type shared struct {
	reg    *metrics.Registry
	tracer *trace.Tracer
	inj    *faults.Injector
	log    *slog.Logger
}

func newShared() shared {
	reg := metrics.NewRegistry()
	return shared{
		reg:    reg,
		tracer: trace.New(trace.Config{SampleRate: 1, Registry: reg}),
		inj:    faults.New(1),
		log:    slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
}

// newGovernor is llmperfd's default KV governor: optimistic admission,
// prefix cache on, watermarks 0.95/0.75. budgetBytes overrides every
// lane's KV budget when positive (llmperfd -kv-budget-mb).
func newGovernor(sh shared, budgetBytes int64) *govern.Governor {
	return govern.New(govern.Config{
		Specs:         api.PoolSpecResolver(govern.DefaultBlockSize, budgetBytes),
		HighWatermark: 0.95,
		LowWatermark:  0.75,
		EnableCache:   true,
		Registry:      sh.reg,
	})
}

// newGateway is llmperfd's default gateway: queue 256, max-batch 8,
// continuous batching, 4 workers, Timescale 0, overload control on.
func newGateway(sh shared, id string, gov *govern.Governor, resolve gateway.Resolver) *gateway.Gateway {
	return gateway.New(gateway.Config{
		MaxQueue:     256,
		MaxBatch:     8,
		Policy:       gateway.Continuous,
		PrefillChunk: 64,
		Workers:      4,
		Injector:     sh.inj,
		Governor:     gov,
		Overload: &overload.Config{
			InteractiveTTFT: 500 * time.Millisecond,
			StandardTTFT:    2 * time.Second,
			BatchTTFT:       10 * time.Second,
			StepUp:          250 * time.Millisecond,
			StepDown:        time.Second,
			BatchTokenCap:   16,
		},
		Fallback: api.FallbackResolver(),
		Registry: sh.reg,
		Tracer:   sh.tracer,
		Logger:   sh.log.With("replica", id),
	}, resolve)
}

// kvBlocksBytes is the KV budget that gives the serving lane exactly n
// pool blocks.
func kvBlocksBytes(n int) (int64, error) {
	m, err := model.ByName(servingModel)
	if err != nil {
		return 0, err
	}
	return int64(n) * m.KVBytesPerTokenPerLayer(tensor.BF16) * int64(m.Layers) * govern.DefaultBlockSize, nil
}

// shutdown drains a backend within a few seconds.
func shutdown(b api.Backend) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return b.Shutdown(ctx)
}

// costSpans wraps the cost models a resolver returns so that each call
// into serve.CostModel is counted and, when tracing, becomes a span
// tagged with the replica that made it.
type costSpans struct {
	rec    *recorder
	parent string // the gateway-level span the calls are made under
	mu     sync.Mutex
	n      int64
}

// layers reports the cost-model layer: calls and self time per request.
// Both are ≈0 once the lane's memo is warm; a rise means memo misses.
func (c *costSpans) layers(m metricSet, self selfTotals, requests int) {
	c.mu.Lock()
	calls := c.n
	c.mu.Unlock()
	m.set("serve.cost_calls_per_req", ratio(float64(calls), float64(requests)))
	m.set("serve.cost_self_us_per_req", self.perReqUs(spanCost))
}

func (c *costSpans) resolver(base gateway.Resolver, replica string) gateway.Resolver {
	return func(lane string) (serve.CostModel, error) {
		cm, err := base(lane)
		if err != nil {
			return nil, err
		}
		return &tracedCost{CostModel: cm, spans: c, replica: replica}, nil
	}
}

// tracedCost forwards to the real cost model. It keeps the optional
// CounterModel face, which the gateway type-asserts for.
type tracedCost struct {
	serve.CostModel
	spans   *costSpans
	replica string
}

func (t *tracedCost) note(start time.Time) {
	end := time.Now()
	if !t.spans.rec.active() {
		return
	}
	t.spans.mu.Lock()
	t.spans.n++
	t.spans.mu.Unlock()
	t.spans.rec.add(spanCost, t.spans.parent, t.replica, laneLevelReq, start, end)
}

func (t *tracedCost) PrefillCost(batch, inputLen int) (float64, error) {
	defer t.note(time.Now())
	return t.CostModel.PrefillCost(batch, inputLen)
}

func (t *tracedCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	defer t.note(time.Now())
	return t.CostModel.DecodeStepCost(batch, ctxLen)
}

func (t *tracedCost) PhaseCounters(prefill bool, batch, length int) (counters.Report, bool) {
	cm, ok := t.CostModel.(serve.CounterModel)
	if !ok {
		return counters.Report{}, false
	}
	defer t.note(time.Now())
	return cm.PhaseCounters(prefill, batch, length)
}

// sinkStats is what a traced run reads off the token events passing
// through a request's sink: batch sizes and the gaps between the
// scheduler's production times.
type sinkStats struct {
	rec      *recorder
	mu       sync.Mutex
	batchSum int64
	tokens   int64
	gapsUs   []float64
}

// observe returns a sink that records ev and forwards it to next.
func (s *sinkStats) observe(next gateway.TokenSink) gateway.TokenSink {
	var last time.Time
	return func(ev gateway.TokenEvent) {
		if s.rec.active() {
			s.mu.Lock()
			s.batchSum += int64(ev.Batch)
			s.tokens++
			if ev.Index > 0 {
				s.gapsUs = append(s.gapsUs, ev.Wall.Sub(last).Seconds()*1e6)
			}
			s.mu.Unlock()
		}
		last = ev.Wall
		next(ev)
	}
}

func (s *sinkStats) layers(m metricSet) {
	m.set("gateway.batch_mean", ratio(float64(s.batchSum), float64(s.tokens)))
	m.set("gateway.sink_gap_us_p50", median(s.gapsUs))
}

// gatewayCounters reports the gateway's own registry counters; iterations
// is the scheduler-iteration count of the traced window.
func gatewayCounters(m metricSet, sh shared, iterations float64, requests int) {
	m.set("gateway.iters_per_req", ratio(iterations, float64(requests)))
	m.set("gateway.requeued", counterValue(sh.reg, "gateway_requeued_total"))
	m.set("gateway.rejected", counterValue(sh.reg, "gateway_rejected_total"))
}

// iterations reads the scheduler-iteration counter.
func iterations(sh shared) float64 { return counterValue(sh.reg, "gateway_iterations_total") }

// counterValue reads a counter the program registered, by name.
func counterValue(reg *metrics.Registry, name string) float64 {
	return float64(reg.Counter(name, "").Value())
}

// governorTotals sums the cache and pool state of the run's governors.
type governorTotals struct {
	hits, misses, evictions uint64
	retained, preemptions   int
	utilization             float64 // highest lane utilization
}

func sumGovernors(govs []*govern.Governor) governorTotals {
	var t governorTotals
	for _, g := range govs {
		cs := g.CacheSnapshot()
		t.hits += cs.Hits
		t.misses += cs.Misses
		t.evictions += cs.Evictions
		t.retained += cs.RetainedBlocks
		for _, lane := range g.Snapshot().Lanes {
			t.preemptions += lane.Preemptions
			if lane.Utilization > t.utilization {
				t.utilization = lane.Utilization
			}
		}
	}
	return t
}

func (t governorTotals) layers(m metricSet, sh shared) {
	m.set("govern.cache_hit_rate", ratio(float64(t.hits), float64(t.hits+t.misses)))
	m.set("govern.cache_evictions", float64(t.evictions))
	m.set("govern.retained_blocks", float64(t.retained))
	m.set("govern.preemptions", float64(t.preemptions))
	m.set("govern.utilization_end", t.utilization)
	m.set("govern.shed", counterValue(sh.reg, "govern_shed_total"))
}
