package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/prefixcache"
)

const (
	clusterReplicas   = 2
	clusterSubmitters = 16
	// clusterKVBlocks pins each replica's KV pool. With the platform's
	// own budget (hundreds of thousands of blocks) the prefix tree never
	// fills and per-token cost grows all through a run; 2048 blocks reach
	// eviction steady state within the warm-up.
	clusterKVBlocks = 2048
	// clusterWarmRound is how many requests run between checks that both
	// replicas have started evicting.
	clusterWarmRound = 256
)

// clusterBench drives cluster-batch: 16 closed-loop submitters calling
// cluster.Router.Generate in-process over two default gateways. Every
// request carries a prefix no other request shares, so the prefix cache
// only ever inserts and evicts.
type clusterBench struct {
	seed   int64
	sched  []servingReq
	sh     shared
	govs   []*govern.Governor
	router *cluster.Router
	issued atomic.Int64 // requests sent since build: numbers requests, walks sched

	rec   *recorder
	costs *costSpans
	sink  sinkStats
	tr    clusterTrace
	iters float64 // scheduler iterations of the last window
}

// clusterTrace is what a traced cluster-batch run collects besides spans.
type clusterTrace struct {
	mu      sync.Mutex
	queueMs []float64
}

func newClusterBench(seed int64) *clusterBench {
	return &clusterBench{seed: seed, sched: clusterBatchSchedule(seed)}
}

// build constructs two replicas (each its own governor and gateway) and
// the router as cmd/llmperfd -replicas 2 does with its other defaults,
// and serves one request.
func (b *clusterBench) build(rec *recorder) error {
	b.sh = newShared()
	b.govs = nil
	b.issued.Store(0)
	b.rec, b.costs, b.tr = rec, nil, clusterTrace{}
	if rec != nil {
		b.costs = &costSpans{rec: rec, parent: spanGateway}
		b.sink = sinkStats{rec: rec, gapsUs: make([]float64, 0, 1<<20)}
	}
	budget, err := kvBlocksBytes(clusterKVBlocks)
	if err != nil {
		return err
	}
	router, err := cluster.New(cluster.Config{
		Replicas: clusterReplicas,
		Factory: func(id string) (*gateway.Gateway, error) {
			gov := newGovernor(b.sh, budget)
			b.govs = append(b.govs, gov)
			resolve := api.LaneResolver()
			if rec != nil {
				resolve = b.costs.resolver(resolve, id)
			}
			return newGateway(b.sh, id, gov, resolve), nil
		},
		Policy:        cluster.RoundRobin(),
		Registry:      b.sh.reg,
		Tracer:        b.sh.tracer,
		Logger:        b.sh.log,
		Injector:      b.sh.inj,
		ProbeInterval: 100 * time.Millisecond,
		MaxFailovers:  2,
		RetryBudget:   8,
		Seed:          1,
		// The one departure from llmperfd: latency-outlier ejection is
		// switched off. Under 16 closed-loop submitters it ping-pongs —
		// ejecting one replica doubles the other's load and latency, which
		// gets that one ejected next: 6–7 ejections in every 10 s at the
		// default factor 4, and ≈470 req/s against ≈600 without them.
		// Error-streak ejection stays on and cluster.ejections is a guard
		// rail.
		SlowFactor: math.MaxFloat64,
	})
	if err != nil {
		return err
	}
	b.router = router
	if _, err := b.request(nil); err != nil {
		b.close()
		return fmt.Errorf("first request: %w", err)
	}
	return nil
}

func (b *clusterBench) close() { _ = shutdown(b.router) }

// warm runs traffic until every replica has evicted from its prefix
// cache: from then on the tree's size, and with it the per-token cost,
// is steady.
func (b *clusterBench) warm() error {
	for round := 0; round < 200; round++ {
		steady := true
		for _, g := range b.govs {
			if g.CacheSnapshot().Evictions == 0 {
				steady = false
			}
		}
		if steady {
			return nil
		}
		win := b.drive(clusterWarmRound, func(issued int, _ time.Time) bool { return issued >= clusterWarmRound }, nil)
		if win.failed > 0 {
			return fmt.Errorf("warm-up: %d requests failed: %w", win.failed, win.firstErr)
		}
	}
	return fmt.Errorf("warm-up: replicas never reached cache eviction")
}

func (b *clusterBench) run(seconds float64, rec *recorder) *window {
	timeUp := func(_ int, start time.Time) bool { return time.Since(start).Seconds() >= seconds }
	return b.drive(sampleCapacity(seconds, 3000), timeUp, rec)
}

// drive runs the 16 closed-loop submitters until done returns true. done
// is asked before each request, with the number of requests issued so
// far: a measured window ends on time, a warm-up round on a count.
func (b *clusterBench) drive(capacity int, done func(issued int, start time.Time) bool, rec *recorder) *window {
	win := newWindow(capacity)
	subs := make([]*window, clusterSubmitters)
	for i := range subs {
		subs[i] = newWindow(cap(win.e2e)/4 + 64)
	}
	if rec != nil {
		b.tr.queueMs = make([]float64, 0, cap(win.e2e))
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	iters0 := iterations(b.sh)
	start := win.begin()
	for _, sub := range subs {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			for !done(int(next.Add(1))-1, start) {
				s, err := b.request(rec)
				if err != nil {
					w.fail(err)
					continue
				}
				w.ok(s)
			}
		}(sub)
	}
	wg.Wait()
	win.end()
	b.iters = iterations(b.sh) - iters0
	for _, sub := range subs {
		win.merge(sub)
	}
	return win
}

// sinkCheck is the counting sink: each token index must arrive exactly
// once, in order, and only the last may be Final.
type sinkCheck struct {
	out         int
	next        int
	bad         bool
	first, last time.Time
}

func (c *sinkCheck) sink(ev gateway.TokenEvent) {
	if ev.Index != c.next || ev.Final != (ev.Index == c.out-1) {
		c.bad = true
	}
	c.next++
	if ev.Index == 0 {
		c.first = time.Now()
	}
	if ev.Final {
		c.last = time.Now()
	}
}

// request routes the next scheduled request and checks its result. Like
// the API's middleware, it starts a trace on the shared tracer (sample
// rate 1) and finishes it once the result is in.
func (b *clusterBench) request(rec *recorder) (sample, error) {
	n := b.issued.Add(1) - 1
	sr := b.sched[n%int64(len(b.sched))]
	begin := time.Now()
	check := &sinkCheck{out: sr.Out}
	tr := b.sh.tracer.Start(strconv.FormatInt(n, 10))
	req := gateway.Request{
		Lane: servingLane, InputLen: sr.In, OutputLen: sr.Out,
		Client: sr.Client, Class: sr.Class, Trace: tr, Sink: check.sink,
		Prefix: []prefixcache.Segment{
			{ID: fmt.Sprintf("u%d-%d", b.seed, n), Tokens: sr.PrefixTokens},
			{ID: "tail", Tokens: sr.In - sr.PrefixTokens, Private: true},
		},
	}
	if rec != nil {
		req.Sink = b.sink.observe(req.Sink)
	}
	t0 := time.Now()
	res, err := b.router.Generate(context.Background(), req)
	t1 := time.Now()
	tr.Finish()
	switch {
	case err != nil:
		return sample{}, fmt.Errorf("request %d: %w", n, err)
	case res.OutputLen != sr.Out:
		return sample{}, fmt.Errorf("request %d: OutputLen %d, want %d", n, res.OutputLen, sr.Out)
	case check.bad || check.next != sr.Out:
		return sample{}, fmt.Errorf("request %d: sink saw %d tokens (out of order or wrong Final: %v), want %d", n, check.next, check.bad, sr.Out)
	}
	if rec != nil {
		rec.add(spanRequest, "", "", n, begin, time.Now())
		rec.add(spanRoute, spanRequest, "", n, t0, t1)
		rec.add(spanGateway, spanRoute, res.Replica, n,
			t1.Add(-time.Duration(res.WallSeconds*float64(time.Second))), t1)
		b.tr.mu.Lock()
		b.tr.queueMs = append(b.tr.queueMs, res.QueueSeconds*1e3)
		b.tr.mu.Unlock()
	}
	return sample{
		ttftMs: check.first.Sub(t0).Seconds() * 1e3,
		tpotMs: check.last.Sub(check.first).Seconds() * 1e3 / float64(sr.Out-1),
		e2eMs:  t1.Sub(t0).Seconds() * 1e3,
		tokens: sr.Out,
	}, nil
}

func (b *clusterBench) guards() guardRails {
	st := b.router.Snapshot()
	return guardRails{
		ejections:   float64(st.Ejections),
		failovers:   float64(st.Failovers),
		preemptions: float64(sumGovernors(b.govs).preemptions),
		shed:        counterValue(b.sh.reg, "govern_shed_total"),
		rejected:    counterValue(b.sh.reg, "gateway_rejected_total"),
	}
}

func (b *clusterBench) layers(m metricSet, base, traced *window, _ probeRates) {
	self := totalSelfTimes(b.rec.spans)
	m.set("bench.span_coverage_pct", self.coveragePct())
	m.set("cluster.route_self_us_per_req", self.perReqUs(spanRoute))
	m.set("gateway.self_us_per_req", self.perReqUs(spanGateway))
	m.set("gateway.queue_wait_ms_p50", median(b.tr.queueMs))
	m.set("gateway.queue_wait_ms_p99", percentile(b.tr.queueMs, 99))
	m.set("gateway.mallocs_per_tok", ratio(float64(base.mallocs), float64(base.tokens)))
	b.sink.layers(m)
	b.costs.layers(m, self, traced.succeeded())
	gatewayCounters(m, b.sh, b.iters, traced.succeeded())

	st := b.router.Snapshot()
	var served, most uint64
	for _, r := range st.Replicas {
		served += r.Served
		most = max(most, r.Served)
	}
	m.set("cluster.replica_share_max", ratio(float64(most), float64(served)))
	m.set("cluster.failovers", float64(st.Failovers))
	m.set("cluster.ejections", float64(st.Ejections))
	sumGovernors(b.govs).layers(m, b.sh)
}
