package serve

import (
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/workload"
)

// fixedCost is a deterministic synthetic cost model for scheduler tests:
// prefill costs base·inputLen·softening(batch), decode steps cost
// base·softening(batch) — batching amortizes cost sub-linearly, as on the
// real platforms.
type fixedCost struct {
	prefillPerToken float64
	decodeStep      float64
}

func soften(batch int) float64 {
	// cost(batch)/batch decreases: batch b costs b^0.5 of the unit cost.
	f := 1.0
	for i := 1; i < batch; i++ {
		f += 0.3
	}
	return f
}

func (c fixedCost) PrefillCost(batch, inputLen int) (float64, error) {
	return c.prefillPerToken * float64(inputLen) * soften(batch) / float64(batch) * float64(batch) / float64(batch), nil
}

func (c fixedCost) DecodeStepCost(batch, ctxLen int) (float64, error) {
	return c.decodeStep * soften(batch), nil
}
func (fixedCost) Cached(bool, int, int) (Quote, bool) { return Quote{}, false }

func testTrace(n int, rate float64, seed int64) []workload.Request {
	g := workload.NewGenerator(seed)
	g.ArrivalRate = rate
	return g.Trace(n)
}

func run(t *testing.T, p Policy, trace []workload.Request, maxBatch int) ([]Completion, Summary) {
	t.Helper()
	s := Server{Cost: fixedCost{prefillPerToken: 0.001, decodeStep: 0.05},
		Policy: p, MaxBatch: maxBatch, BatchWait: 0.5, PrefillChunk: 64}
	cs, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	return cs, Summarize(cs)
}

func TestAllPoliciesServeEverything(t *testing.T) {
	trace := testTrace(40, 5, 1)
	for _, p := range []Policy{FCFS, Static, Continuous, Chunked} {
		cs, _ := run(t, p, trace, 8)
		if len(cs) != len(trace) {
			t.Fatalf("%s: served %d of %d", p, len(cs), len(trace))
		}
		for _, c := range cs {
			if c.QueueWait < -1e-9 || c.TTFT < c.QueueWait || c.E2E < c.TTFT-1e-9 {
				t.Fatalf("%s: inconsistent completion %+v", p, c)
			}
			if c.Finish < c.Request.ArrivalSeconds {
				t.Fatalf("%s: finished before arrival", p)
			}
		}
	}
}

// TestBatchingImprovesThroughput: under load, static batching must beat
// FCFS on sustained tokens/s, and continuous batching must at least match
// static.
func TestBatchingImprovesThroughput(t *testing.T) {
	trace := testTrace(60, 20, 2) // heavy load
	_, fcfs := run(t, FCFS, trace, 8)
	_, static := run(t, Static, trace, 8)
	_, cont := run(t, Continuous, trace, 8)
	if static.TokensPerSecond <= fcfs.TokensPerSecond {
		t.Errorf("static (%.1f tok/s) must beat FCFS (%.1f)",
			static.TokensPerSecond, fcfs.TokensPerSecond)
	}
	if cont.TokensPerSecond < static.TokensPerSecond*0.95 {
		t.Errorf("continuous (%.1f tok/s) must be ≥ static (%.1f)",
			cont.TokensPerSecond, static.TokensPerSecond)
	}
}

// TestContinuousCutsTailLatency: with heterogeneous output lengths,
// iteration-level scheduling releases short requests early, cutting mean
// E2E versus padded static batches (Orca's core claim).
func TestContinuousCutsTailLatency(t *testing.T) {
	g := workload.NewGenerator(3)
	g.ArrivalRate = 20
	g.LenJitter = 0.9 // strongly heterogeneous
	trace := g.Trace(60)
	_, static := run(t, Static, trace, 8)
	_, cont := run(t, Continuous, trace, 8)
	if cont.MeanE2E >= static.MeanE2E {
		t.Errorf("continuous mean E2E %.2fs must beat static %.2fs",
			cont.MeanE2E, static.MeanE2E)
	}
}

// TestLightLoadFCFSFine: with sparse arrivals, all policies are close —
// there is nothing to batch.
func TestLightLoadFCFSFine(t *testing.T) {
	trace := testTrace(10, 0.1, 4) // one request every ~10s
	_, fcfs := run(t, FCFS, trace, 8)
	_, cont := run(t, Continuous, trace, 8)
	if ratio := fcfs.MeanE2E / cont.MeanE2E; ratio < 0.9 || ratio > 1.2 {
		t.Errorf("light-load policies should be close: fcfs %.2f vs cont %.2f",
			fcfs.MeanE2E, cont.MeanE2E)
	}
}

// TestFCFSIsContinuousAtBatchOne: FCFS is the shared iteration driver at
// a batch of one, whatever MaxBatch says — bit for bit, under a cost model
// that depends on the context length (decode step s is priced at context
// InputLen + s − 1 by every policy). Static at a batch of one pads nothing
// and must agree too.
func TestFCFSIsContinuousAtBatchOne(t *testing.T) {
	trace := goldenTrace(7)
	runWith := func(p Policy, maxBatch int) []Completion {
		s := Server{Cost: shapeCost{}, Policy: p, MaxBatch: maxBatch}
		cs, err := s.Run(trace)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	want := runWith(Continuous, 1)
	for name, got := range map[string][]Completion{
		"fcfs": runWith(FCFS, 8), "static/1": runWith(Static, 1)} {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s request %d: %+v, continuous at MaxBatch 1 gives %+v", name, i, got[i], want[i])
			}
		}
	}
}

func TestStaticBatchWaitBounds(t *testing.T) {
	// Two requests arriving 0.1s apart with BatchWait 0.5 must share a
	// batch; with BatchWait 0 they must not.
	trace := []workload.Request{
		{ID: 0, InputLen: 16, OutputLen: 4, ArrivalSeconds: 0},
		{ID: 1, InputLen: 16, OutputLen: 4, ArrivalSeconds: 0.1},
	}
	s := Server{Cost: fixedCost{0.001, 0.05}, Policy: Static, MaxBatch: 4, BatchWait: 0.5}
	cs, err := s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Finish != cs[1].Finish {
		t.Error("requests within the wait window must share a batch")
	}
	s.BatchWait = 0
	cs, err = s.Run(trace)
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].Finish == cs[1].Finish {
		t.Error("requests outside the wait window must not share a batch")
	}
}

func TestContinuousRespectsMaxBatch(t *testing.T) {
	// 20 simultaneous arrivals, MaxBatch 4: TTFTs must form waves.
	trace := make([]workload.Request, 20)
	for i := range trace {
		trace[i] = workload.Request{ID: i, InputLen: 16, OutputLen: 8}
	}
	cs, _ := run(t, Continuous, trace, 4)
	first, last := cs[0].TTFT, cs[len(cs)-1].TTFT
	if last <= first {
		t.Error("later admissions must see higher TTFT")
	}
}

func TestRunValidation(t *testing.T) {
	s := Server{Policy: FCFS}
	if _, err := s.Run(nil); err == nil {
		t.Error("nil cost model must fail")
	}
	s.Cost = fixedCost{0.001, 0.05}
	bad := []workload.Request{
		{ID: 0, InputLen: 1, OutputLen: 1, ArrivalSeconds: 5},
		{ID: 1, InputLen: 1, OutputLen: 1, ArrivalSeconds: 1},
	}
	if _, err := s.Run(bad); err == nil {
		t.Error("unsorted trace must fail")
	}
	s.Policy = Policy(99)
	if _, err := s.Run(nil); err == nil {
		t.Error("unknown policy must fail")
	}
	// A pool is only modeled by the iteration-level policies, and
	// optimistic admission is a way of using one.
	s = Server{Cost: fixedCost{0.001, 0.05}, Policy: Static, Pool: poolForSeqs(t, 2, 32, 16)}
	if _, err := s.Run(nil); err == nil {
		t.Error("static policy with a pool must fail")
	}
	s = Server{Cost: fixedCost{0.001, 0.05}, Policy: Continuous, Optimistic: true}
	if _, err := s.Run(nil); err == nil {
		t.Error("optimistic admission without a pool must fail")
	}
	// MaxBatch < 1 clamps rather than failing.
	s = Server{Cost: fixedCost{0.001, 0.05}, Policy: FCFS, MaxBatch: 0}
	if _, err := s.Run(testTrace(3, 1, 5)); err != nil {
		t.Error(err)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	sm := Summarize(nil)
	if sm.Count != 0 || sm.TokensPerSecond != 0 {
		t.Error("empty summary must be zero")
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || Static.String() != "static" ||
		Continuous.String() != "continuous" || Chunked.String() != "chunked" {
		t.Error("policy names wrong")
	}
}

// TestConservationProperty: every policy serves each request exactly once
// with non-negative waits, for arbitrary traces.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, nRaw, batchRaw uint8) bool {
		n := int(nRaw%30) + 1
		maxBatch := int(batchRaw%8) + 1
		trace := testTrace(n, 10, seed)
		for _, p := range []Policy{FCFS, Static, Continuous} {
			s := Server{Cost: fixedCost{0.001, 0.02}, Policy: p,
				MaxBatch: maxBatch, BatchWait: 0.2}
			cs, err := s.Run(trace)
			if err != nil || len(cs) != n {
				return false
			}
			seen := map[int]bool{}
			for _, c := range cs {
				if seen[c.Request.ID] || c.QueueWait < -1e-9 || c.E2E < 0 {
					return false
				}
				seen[c.Request.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRealCostModels: the CPU and GPU adapters must price sensible
// iterations and integrate with the scheduler.
func TestRealCostModels(t *testing.T) {
	cpu := NewCPUCost(memsim.Config{CPU: hw.SPRMax9468, Cores: 48,
		Mem: memsim.Flat, Cluster: memsim.Quad}, model.Llama13B)
	pre, err := cpu.PrefillCost(4, 128)
	if err != nil || pre <= 0 {
		t.Fatalf("cpu prefill: %v %v", pre, err)
	}
	dec, err := cpu.DecodeStepCost(4, 128)
	if err != nil || dec <= 0 {
		t.Fatalf("cpu decode: %v %v", dec, err)
	}
	// Memoized second call must agree: 129 and 130 share the 160 bucket.
	decA, _ := cpu.DecodeStepCost(4, 129)
	decB, _ := cpu.DecodeStepCost(4, 130)
	if decA != decB {
		t.Error("context bucketing broken")
	}

	gpu := NewGPUCost(hw.H100, model.OPT66B) // offloaded path
	gdec, err := gpu.DecodeStepCost(1, 128)
	if err != nil || gdec <= dec {
		t.Fatalf("offloaded H100 decode (%.2fs) must exceed CPU (%.3fs): %v",
			gdec, dec, err)
	}

	s := Server{Cost: cpu, Policy: Continuous, MaxBatch: 8}
	cs, err := s.Run(testTrace(12, 5, 6))
	if err != nil || len(cs) != 12 {
		t.Fatalf("serving over real cost model failed: %v", err)
	}
}
