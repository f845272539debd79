package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// benchModel is the engine workloads' model: small enough that a request
// takes milliseconds, large enough that kernels — not loop overhead —
// dominate (model.Tiny, d=64, is not).
var benchModel = model.Config{Name: "bench-OPT", Family: model.OPT,
	Layers: 4, DModel: 256, Heads: 8, KVHeads: 8, DFF: 1024, Vocab: 2048, MaxSeq: 512}

// engineSpec is one engine workload's request shape. A "call" is one
// engine.Generate of `batch` requests.
type engineSpec struct{ batch, promptLen, maxNew int }

var engineSpecs = map[string]engineSpec{
	"engine-decode": {batch: 1, promptLen: 16, maxNew: 64},
	"engine-batch":  {batch: 4, promptLen: 32, maxNew: 8},
}

const (
	enginePromptSlots = 64 // distinct prompt batches a run cycles through
	engineRefRequests = 8  // leading requests checked against the serial-tier reference
)

// engineBench drives one engine workload.
type engineBench struct {
	spec    engineSpec
	prompts [][][]int
	// want[slot] is the output every call on that slot must produce: the
	// serial tile-bf16 tier's for the slots of the first engineRefRequests
	// requests, the slot's first observed output for the rest (greedy
	// decoding is deterministic).
	want [][][]int

	weights *engine.Weights
	pool    *kernels.Pool
	eng     *engine.Engine
	// newWeightsS and newS are the last build's NewWeights and
	// pool + engine.New (weight packing) times.
	newWeightsS, newS float64

	rec *recorder
	tr  engineTrace
}

// engineTrace is what a traced engine run collects besides spans.
type engineTrace struct {
	prefillMs    []float64
	stepMs       []float64
	stepPos      []float64
	promptTokens int
	decodeAllocs uint64
	kvBytes      int64
}

func newEngineBench(name string, seed int64) *engineBench {
	spec := engineSpecs[name]
	return &engineBench{
		spec:    spec,
		prompts: enginePrompts(seed, enginePromptSlots, spec.batch, spec.promptLen, benchModel.Vocab),
		want:    make([][][]int, enginePromptSlots),
	}
}

// build constructs the system under test from nothing: weights, worker
// pool, and the engine (which packs the weights) — the tier and pool
// api.LaneResolver gives serving lanes.
func (b *engineBench) build(rec *recorder) error {
	b.rec = rec
	t0 := time.Now()
	w, err := engine.NewWeights(benchModel, 42, tensor.BF16)
	if err != nil {
		return err
	}
	t1 := time.Now()
	pool := kernels.NewPool(0)
	eng, err := engine.New(w, engine.Options{Kernel: engine.KernelTileBF16Parallel, Pool: pool})
	if err != nil {
		pool.Close()
		return err
	}
	b.weights, b.pool, b.eng = w, pool, eng
	b.newWeightsS, b.newS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return nil
}

func (b *engineBench) close() {
	b.pool.Close()
	b.weights, b.pool, b.eng = nil, nil, nil
}

// warm computes the reference outputs on the serial tile-bf16 tier (same
// weights, no pool) and runs the engine under test once.
func (b *engineBench) warm() error {
	ref, err := engine.New(b.weights, engine.Options{Kernel: engine.KernelTileBF16})
	if err != nil {
		return err
	}
	for slot := 0; slot*b.spec.batch < engineRefRequests; slot++ {
		out, _, err := ref.Generate(b.prompts[slot], b.spec.maxNew)
		if err != nil {
			return fmt.Errorf("reference generate: %w", err)
		}
		b.want[slot] = out
	}
	if _, _, err := b.eng.Generate(b.prompts[0], b.spec.maxNew); err != nil {
		return fmt.Errorf("warm-up generate: %w", err)
	}
	return nil
}

// run issues calls back to back for `seconds`. Each call is spec.batch
// requests; a call whose tokens differ from want fails all of them.
func (b *engineBench) run(seconds float64, rec *recorder) *window {
	win := newWindow(sampleCapacity(seconds, 400) * b.spec.batch)
	sum := fnv.New64a()
	start := win.begin()
	for call := 0; time.Since(start).Seconds() < seconds; call++ {
		slot := call % len(b.prompts)
		t0 := time.Now()
		var out [][]int
		s := sample{tokens: b.spec.maxNew}
		var err error
		if rec == nil {
			var st engine.Stats
			out, st, err = b.eng.Generate(b.prompts[slot], b.spec.maxNew)
			s.ttftMs, s.tpotMs = st.TTFT()*1e3, st.TPOT()*1e3
		} else {
			out, s.ttftMs, s.tpotMs, err = b.tracedGenerate(rec, int64(call), b.prompts[slot])
		}
		s.e2eMs = time.Since(t0).Seconds() * 1e3
		if err == nil {
			err = b.check(slot, out)
		}
		for r := 0; r < b.spec.batch; r++ {
			if err != nil {
				win.fail(err)
				continue
			}
			win.ok(s)
		}
		for _, seq := range out {
			for _, id := range seq {
				sum.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16)})
			}
		}
	}
	win.end()
	win.checksum = sum.Sum64()
	return win
}

// check compares one call's tokens with the slot's expected output.
func (b *engineBench) check(slot int, out [][]int) error {
	if b.want[slot] == nil {
		b.want[slot] = out
		return nil
	}
	if len(out) != len(b.want[slot]) {
		return fmt.Errorf("slot %d: %d sequences, want %d", slot, len(out), len(b.want[slot]))
	}
	for s := range out {
		if len(out[s]) != len(b.want[slot][s]) {
			return fmt.Errorf("slot %d seq %d: %d tokens, want %d", slot, s, len(out[s]), len(b.want[slot][s]))
		}
		for i := range out[s] {
			if out[s][i] != b.want[slot][s][i] {
				return fmt.Errorf("slot %d seq %d token %d: got %d, want %d", slot, s, i, out[s][i], b.want[slot][s][i])
			}
		}
	}
	return nil
}

// tracedGenerate is engine.Generate spelled out, so that the prefill and
// every decode step get a span. run checks its tokens against the same
// expectation as Generate's.
func (b *engineBench) tracedGenerate(rec *recorder, req int64, prompts [][]int) (out [][]int, ttftMs, tpotMs float64, err error) {
	t0 := time.Now()
	s := b.eng.NewSession(len(prompts), len(prompts[0])+b.spec.maxNew)
	p0 := time.Now()
	toks, err := b.eng.Prefill(s, prompts)
	p1 := time.Now()
	if err != nil {
		return nil, 0, 0, err
	}
	rec.add(spanPrefill, spanRequest, "", req, p0, p1)
	b.tr.prefillMs = append(b.tr.prefillMs, p1.Sub(p0).Seconds()*1e3)
	b.tr.promptTokens += len(prompts) * len(prompts[0])

	out = make([][]int, len(prompts))
	for i := range out {
		out[i] = append(make([]int, 0, b.spec.maxNew), toks[i])
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for step := 1; step < b.spec.maxNew; step++ {
		pos := s.Pos()
		d0 := time.Now()
		toks, err = b.eng.DecodeStep(s, toks)
		d1 := time.Now()
		if err != nil {
			return nil, 0, 0, err
		}
		rec.add(spanDecode, spanRequest, "", req, d0, d1)
		b.tr.stepMs = append(b.tr.stepMs, d1.Sub(d0).Seconds()*1e3)
		b.tr.stepPos = append(b.tr.stepPos, float64(pos))
		for i := range out {
			out[i] = append(out[i], toks[i])
		}
	}
	t1 := time.Now()
	runtime.ReadMemStats(&ms)
	// The spans' own appends are amortised into preallocated buffers, so
	// what remains is the engine's.
	b.tr.decodeAllocs += ms.Mallocs - mallocs
	b.tr.kvBytes = s.KVBytes()
	rec.add(spanRequest, "", "", req, t0, t1)
	ttftMs = p1.Sub(t0).Seconds() * 1e3
	if b.spec.maxNew > 1 {
		tpotMs = t1.Sub(p1).Seconds() * 1e3 / float64(b.spec.maxNew-1)
	}
	return out, ttftMs, tpotMs, nil
}

// linearFLOPs returns the floating-point operations of the linear layers
// for `tokens` positions through every block plus `heads` logits rows.
// Computed from the shapes, not counted.
func linearFLOPs(cfg model.Config, tokens, heads int) float64 {
	d, dff := float64(cfg.DModel), float64(cfg.DFF)
	block := 4*d*d + 2*d*dff
	return 2 * (float64(tokens)*float64(cfg.Layers)*block + float64(heads)*d*float64(cfg.Vocab))
}

// layers reports the engine layer's metrics from a traced window. The two
// share figures price the linears of a step at the probed kernel rate and
// divide by the measured step: how much of a kernel gain can reach
// tpot/ttft.
func (b *engineBench) layers(m metricSet, _, _ *window, pr probeRates) {
	tr := &b.tr
	m.set("bench.span_coverage_pct", totalSelfTimes(b.rec.spans).coveragePct())
	var prefillS float64
	for _, ms := range tr.prefillMs {
		prefillS += ms / 1e3
	}
	prefillP50 := median(tr.prefillMs)
	stepP50 := median(tr.stepMs)
	m.set("engine.prefill_ms_p50", prefillP50)
	m.set("engine.prefill_tok_s", ratio(float64(tr.promptTokens), prefillS))
	m.set("engine.decode_step_ms_p50", stepP50)
	m.set("engine.decode_step_ms_p99", percentile(append([]float64(nil), tr.stepMs...), 99))
	m.set("engine.decode_ctx_slope_us_per_tok", slope(tr.stepPos, tr.stepMs)*1e3)
	m.set("engine.allocs_per_step", ratio(float64(tr.decodeAllocs), float64(len(tr.stepMs))))
	m.set("engine.kv_mb", float64(tr.kvBytes)/(1<<20))
	m.set("engine.new_s", b.newS)
	m.set("engine.new_weights_s", b.newWeightsS)

	decodeRate := pr.gemmM1
	if b.spec.batch == 4 {
		decodeRate = pr.gemmM4
	}
	decodeLinS := ratio(linearFLOPs(benchModel, b.spec.batch, b.spec.batch), decodeRate)
	m.set("engine.gemv_share_decode", ratio(decodeLinS, stepP50/1e3))
	prefillLinS := ratio(linearFLOPs(benchModel, b.spec.batch*b.spec.promptLen, b.spec.batch), pr.gemmM32)
	m.set("engine.gemm_share_prefill", ratio(prefillLinS, prefillP50/1e3))
}

// guards: the engine workloads have no serving stack to misbehave.
func (b *engineBench) guards() guardRails { return guardRails{} }
