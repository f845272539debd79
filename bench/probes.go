package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/kernels"
	"repro/internal/kvpool"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/prefixcache"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Direct probes call one layer's public entry points in isolation, with
// fixed iteration counts, and report the median of probeBatches batches.
// They are the same on every workload; a workload's ledger names which of
// them it depends on.
const (
	probeBatches = 5
	probeK       = 256  // GEMV/GEMM probe shape: the bench model's d_model
	probeN       = 1024 // … and d_ff
	probeBlocks  = 2048 // retained blocks of the "2k" prefix-tree probes
	probeChain   = 8    // blocks per inserted chain (128 tokens, as cluster-batch)
)

// probeRates carries the probed kernel rates (FLOP/s) to the engine
// layer's share computation.
type probeRates struct{ gemmM1, gemmM4, gemmM32 float64 }

// perOp times `batches` batches of `iters` calls and returns the median
// seconds per call.
func perOp(iters int, fn func()) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		per[b] = time.Since(start).Seconds() / float64(iters)
	}
	return median(per)
}

type noopTask struct{}

func (noopTask) RunPart(int, int) {}

// runProbes fills every direct-probe metric. It returns an error when a
// probe's own correctness check fails (the simulator replay must repeat
// exactly).
func runProbes(m metricSet) (probeRates, error) {
	rates := probeKernels(m)
	if err := probePrefixCache(m); err != nil {
		return rates, err
	}
	if err := probeGovern(m); err != nil {
		return rates, err
	}
	if err := probeKVPool(m); err != nil {
		return rates, err
	}
	if err := probeObservability(m); err != nil {
		return rates, err
	}
	return rates, probeSimulator(m)
}

func probeKernels(m metricSet) probeRates {
	rng := rand.New(rand.NewSource(1))
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() - 0.5
		}
		return v
	}
	pb := kernels.PackBBF16(probeK, probeN, fill(probeK*probeN))
	a := fill(32 * probeK)
	c := make([]float32, 32*probeN)
	flops := func(rows int) float64 { return 2 * float64(rows) * probeK * probeN }

	gemv := perOp(500, func() { kernels.GemvPacked(a[:probeK], pb, c[:probeN]) })
	m.set("kernels.gemv_packed_us", gemv*1e6)
	// Computed from the shapes: 2·k·n operations; the packed weights plus
	// one activation row in and one out.
	m.set("kernels.gemv_gflops", flops(1)/gemv/1e9)
	m.set("kernels.gemv_gbs", float64(pb.Bytes()+4*probeK+4*probeN)/gemv/1e9)

	pool := kernels.NewPool(0)
	defer pool.Close()
	var job kernels.PackedJob
	pooled := func(rows, iters int) float64 {
		return perOp(iters, func() { kernels.GemmPackedPooled(pool, &job, rows, a[:rows*probeK], pb, c[:rows*probeN]) })
	}
	m1, m4, m32 := pooled(1, 500), pooled(4, 200), pooled(32, 40)
	m.set("kernels.gemm_packed_m1_us", m1*1e6)
	m.set("kernels.gemm_packed_m4_us", m4*1e6)
	m.set("kernels.gemm_packed_m32_us", m32*1e6)
	m.set("kernels.pool_dispatch_us", perOp(20000, func() { pool.Run(noopTask{}, pool.Workers()) })*1e6)
	return probeRates{gemmM1: flops(1) / m1, gemmM4: flops(4) / m4, gemmM32: flops(32) / m32}
}

// chainKeys returns the block keys of one unique 128-token prefix.
func chainKeys(id string, blockSize int) []uint64 {
	return prefixcache.BlockKeys([]prefixcache.Segment{{ID: id, Tokens: probeChain * blockSize}}, blockSize)
}

func probePrefixCache(m metricSet) error {
	budget, err := kvBlocksBytes(2 * probeBlocks)
	if err != nil {
		return err
	}
	cfg, err := model.ByName(servingModel)
	if err != nil {
		return err
	}
	pool, err := kvpool.New(cfg, tensor.BF16, govern.DefaultBlockSize, budget)
	if err != nil {
		return err
	}
	bs := pool.BlockSize()
	tree := prefixcache.New(pool)
	// insert donates one fresh chain the way a finished prefill does.
	insert := func(id string) (time.Duration, error) {
		seq := pool.NewSequence()
		if err := seq.Append(probeChain * bs); err != nil {
			return 0, err
		}
		keys := chainKeys(id, bs)
		start := time.Now()
		tree.Insert(keys, seq.Blocks())
		d := time.Since(start)
		return d, seq.Free()
	}
	var resident [][]uint64
	for i := 0; i < probeBlocks/probeChain; i++ {
		id := fmt.Sprintf("resident-%d", i)
		if _, err := insert(id); err != nil {
			return err
		}
		resident = append(resident, chainKeys(id, bs))
	}
	if got := tree.RetainedBlocks(); got != probeBlocks {
		return fmt.Errorf("prefixcache probe: %d retained blocks, want %d", got, probeBlocks)
	}

	i := 0
	m.set("prefixcache.lookup_hit_ns", perOp(20000, func() {
		tree.Lookup(resident[i%len(resident)]).Release()
		i++
	})*1e9)
	miss := chainKeys("never-inserted", bs)
	m.set("prefixcache.lookup_miss_ns", perOp(20000, func() { tree.Lookup(miss).Release() })*1e9)
	m.set("prefixcache.stats_ns_2k", perOp(200, func() { tree.Stats() })*1e9)

	// Insert one chain, evict one chain: the tree stays at 2048 blocks,
	// which is cluster-batch's steady state.
	const rounds = 200
	ins, evs := make([]float64, probeBatches), make([]float64, probeBatches)
	for b := range ins {
		var insNs, evNs time.Duration
		for r := 0; r < rounds; r++ {
			d, err := insert(fmt.Sprintf("probe-%d-%d", b, r))
			if err != nil {
				return err
			}
			insNs += d
			start := time.Now()
			tree.EvictLRU(probeChain)
			evNs += time.Since(start)
		}
		ins[b] = float64(insNs.Nanoseconds()) / (rounds * probeChain)
		evs[b] = float64(evNs.Nanoseconds()) / (rounds * probeChain)
	}
	m.set("prefixcache.insert_ns", median(ins))
	m.set("prefixcache.evict_ns_2k", median(evs))
	return nil
}

func probeGovern(m metricSet) error {
	budget, err := kvBlocksBytes(2 * probeBlocks)
	if err != nil {
		return err
	}
	gov := govern.New(govern.Config{
		Specs:       api.PoolSpecResolver(govern.DefaultBlockSize, budget),
		EnableCache: true,
	})
	const in, out = 192, 32
	segs := func(id string) []prefixcache.Segment {
		return []prefixcache.Segment{
			{ID: id, Tokens: probeChain * govern.DefaultBlockSize},
			{ID: "tail", Tokens: in - probeChain*govern.DefaultBlockSize, Private: true},
		}
	}
	// One request's lease: reserve its prompt, optionally donate it, grow
	// by `out` tokens, release. Returns the reserve and the grow times.
	request := func(id string, donate bool) (reserve, grow time.Duration, err error) {
		lease, err := gov.Admit(servingLane, "probe", in, out)
		if err != nil {
			return 0, 0, err
		}
		defer lease.Release()
		s := segs(id)
		start := time.Now()
		_, err = lease.ReserveWithPrefix(s, in, in, 0)
		reserve = time.Since(start)
		if err != nil {
			return 0, 0, err
		}
		if donate {
			lease.DonatePrefix(s)
		}
		start = time.Now()
		for i := 0; i < out; i++ {
			if err := lease.Grow(1); err != nil {
				return 0, 0, err
			}
		}
		return reserve, time.Since(start), nil
	}
	measure := func(tag string) (reserveUs, growNs float64, err error) {
		const rounds = 50
		rs, gs := make([]float64, probeBatches), make([]float64, probeBatches)
		for b := range rs {
			var r, g time.Duration
			for i := 0; i < rounds; i++ {
				dr, dg, err := request(fmt.Sprintf("%s-%d-%d", tag, b, i), false)
				if err != nil {
					return 0, 0, err
				}
				r += dr
				g += dg
			}
			rs[b] = float64(r.Nanoseconds()) / 1e3 / rounds
			gs[b] = float64(g.Nanoseconds()) / (rounds * out)
		}
		return median(rs), median(gs), nil
	}

	_, growEmpty, err := measure("empty")
	if err != nil {
		return err
	}
	for i := 0; i < probeBlocks/probeChain; i++ {
		if _, _, err := request(fmt.Sprintf("fill-%d", i), true); err != nil {
			return err
		}
	}
	if got := gov.CacheSnapshot().RetainedBlocks; got != probeBlocks {
		return fmt.Errorf("govern probe: %d retained blocks, want %d", got, probeBlocks)
	}
	reserve2k, grow2k, err := measure("full")
	if err != nil {
		return err
	}
	m.set("govern.reserve_us", reserve2k)
	m.set("govern.grow_ns_empty", growEmpty)
	m.set("govern.grow_ns_2k", grow2k)
	return nil
}

func probeKVPool(m metricSet) error {
	budget, err := kvBlocksBytes(probeBlocks)
	if err != nil {
		return err
	}
	cfg, err := model.ByName(servingModel)
	if err != nil {
		return err
	}
	pool, err := kvpool.New(cfg, tensor.BF16, govern.DefaultBlockSize, budget)
	if err != nil {
		return err
	}
	var probeErr error
	seq := pool.NewSequence()
	appended := 0
	m.set("kvpool.append_ns", perOp(20000, func() {
		// Start over before the pool runs dry; the Free is part of a
		// sequence's life and amortises to a fraction of an append.
		if appended == probeBlocks*pool.BlockSize()/2 {
			probeErr = seq.Free()
			seq, appended = pool.NewSequence(), 0
		}
		if err := seq.Append(1); err != nil {
			probeErr = err
		}
		appended++
	})*1e9)
	if err := seq.Free(); err != nil {
		return err
	}
	parent := pool.NewSequence()
	if err := parent.Append(16 * pool.BlockSize()); err != nil {
		return err
	}
	m.set("kvpool.fork_ns", perOp(20000, func() {
		child, err := parent.Fork()
		if err == nil {
			err = child.Free()
		}
		if err != nil {
			probeErr = err
		}
	})*1e9)
	return probeErr
}

func probeObservability(m metricSet) error {
	reg := metrics.NewRegistry()
	ctr := reg.Counter("probe_total", "probe")
	m.set("metrics.counter_inc_ns", perOp(200000, ctr.Inc)*1e9)
	hist := reg.Histogram("probe_seconds", "probe", metrics.LatencyBuckets())
	m.set("metrics.histogram_observe_ns", perOp(200000, func() { hist.Observe(0.0123) })*1e9)
	// Two goroutines observing at once: wall time per observation of one.
	const contended = 100000
	m.set("metrics.histogram_observe_ns_2g", perOp(1, func() {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < contended; i++ {
					hist.Observe(0.0123)
				}
			}()
		}
		wg.Wait()
	})/contended*1e9)

	// Exposition of a registry as a serving run leaves it: one default
	// gateway and governor that have served a request.
	sh := newShared()
	gw := newGateway(sh, "r0", newGovernor(sh, 0), api.LaneResolver())
	_, err := gw.Generate(context.Background(), gateway.Request{Lane: servingLane, InputLen: 128, OutputLen: 8})
	if err != nil {
		return fmt.Errorf("metrics probe: %w", err)
	}
	m.set("metrics.expose_ms", perOp(50, func() { _ = sh.reg.WritePrometheus(io.Discard) })*1e3)
	if err := shutdown(gw); err != nil {
		return err
	}

	// One trace per batch, as long as a cluster-batch request's (a queue,
	// batch and first-token span, then a pricing and a phase span per
	// token).
	tracer := trace.New(trace.Config{SampleRate: 1, Registry: reg})
	attrs := map[string]string{"batch": "8"}
	now := time.Now()
	const spansPerTrace = 70
	adds, fins := make([]float64, probeBatches), make([]float64, probeBatches)
	for b := range adds {
		const traces = 200
		var addNs, finNs time.Duration
		for t := 0; t < traces; t++ {
			tr := tracer.Start("probe")
			start := time.Now()
			for i := 0; i < spansPerTrace; i++ {
				tr.Add(trace.SpanData{Name: trace.PhaseDecode, Start: now, End: now, Attrs: attrs})
			}
			mid := time.Now()
			tr.Finish()
			addNs += mid.Sub(start)
			finNs += time.Since(mid)
		}
		adds[b] = float64(addNs.Nanoseconds()) / (traces * spansPerTrace)
		fins[b] = float64(finNs.Nanoseconds()) / traces
	}
	m.set("trace.span_add_ns", median(adds))
	m.set("trace.finish_ns", median(fins))
	return nil
}

func probeSimulator(m metricSet) error {
	cfg, err := model.ByName(servingModel)
	if err != nil {
		return err
	}
	setup := core.SPRQuadFlat(0)
	var costErr error
	m.set("serve.cost_cold_us", perOp(1, func() {
		if _, err := serve.NewCPUCost(setup, cfg).PrefillCost(1, 512); err != nil {
			costErr = err
		}
	})*1e6)
	cm := serve.NewCPUCost(setup, cfg)
	m.set("serve.cost_hot_ns", perOp(100000, func() {
		if _, err := cm.DecodeStepCost(8, 300); err != nil {
			costErr = err
		}
	})*1e9)
	run := perfmodel.CPURun{Model: cfg, Setup: setup, Batch: 8, InputLen: 256, OutputLen: 2, Weights: tensor.BF16}
	m.set("perfmodel.simulate_us", perOp(20, func() {
		if _, err := run.Simulate(); err != nil {
			costErr = err
		}
	})*1e6)
	if costErr != nil {
		return costErr
	}

	// Replay a seeded 2000-request chat trace through the simulator's
	// continuous scheduler. The first pass fills the cost memo and fixes
	// the summary every later pass must reproduce exactly.
	const replayRequests = 2000
	reqs := workload.NewGenerator(7).ChatTrace().Trace(replayRequests)
	srv := &serve.Server{Cost: cm, Policy: serve.Continuous, MaxBatch: 8}
	replay := func() (serve.Summary, error) {
		cs, err := srv.Run(reqs)
		return serve.Summarize(cs), err
	}
	want, err := replay()
	if err != nil {
		return fmt.Errorf("simulator replay: %w", err)
	}
	var replayErr error
	perReplay := perOp(1, func() {
		got, err := replay()
		if err == nil && got != want {
			err = fmt.Errorf("simulator replay is not repeatable: %+v then %+v", want, got)
		}
		if err != nil {
			replayErr = err
		}
	})
	m.set("serve.sim_replay_kreq_s", replayRequests/perReplay/1e3)
	return replayErr
}
