package repro

// Cross-module integration tests: these exercise whole flows through the
// public facade and check consistency *between* subsystems — the
// simulator against the offload executor, the hybrid partitioner against
// both of its endpoints, the serving simulator against the point model,
// and the functional engine against the analytic op inventory.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// TestHybridDominatesItsEndpoints: for any oversized model, the best
// hybrid split can never be slower than either pure strategy it
// interpolates (it contains both as degenerate splits, up to the GPU
// capacity bound).
func TestHybridDominatesItsEndpoints(t *testing.T) {
	for _, c := range []struct {
		g hw.GPU
		m model.Config
		b int
	}{
		{hw.A100, model.OPT30B, 1},
		{hw.A100, model.OPT66B, 4},
		{hw.H100, model.OPT66B, 1},
		{hw.H100, model.Llama70B, 16},
	} {
		run := hybrid.Run{GPU: c.g, Host: experiments.SPRSetup(), Model: c.m,
			Batch: c.b, InputLen: 128, OutputLen: 32, Weights: tensor.BF16}
		_, best, err := run.BestSplit()
		if err != nil {
			t.Fatalf("%s/%s: %v", c.g.Name, c.m.Name, err)
		}
		cpu, err := run.CPUOnly()
		if err != nil {
			t.Fatal(err)
		}
		// The all-CPU split and the dedicated CPU model differ slightly in
		// overhead accounting; allow 10 % slack against the CPU endpoint.
		if best.Latency.E2E > cpu.Latency.E2E*1.1 {
			t.Errorf("%s/%s b=%d: best split %.2fs worse than pure CPU %.2fs",
				c.g.Name, c.m.Name, c.b, best.Latency.E2E, cpu.Latency.E2E)
		}
	}
}

// TestFacadeAgreesWithSubsystems: core.SimulateGPU must route to the
// offload executor exactly when perfmodel says the model does not fit.
func TestFacadeAgreesWithSubsystems(t *testing.T) {
	for _, m := range model.Evaluated() {
		for _, g := range []core.GPU{core.A100(), core.H100()} {
			res, err := core.SimulateGPU(g, m, 1, 128, 32)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.Name, m.Name, err)
			}
			needsOffload := offload.Run{GPU: g, Host: hw.SPRMax9468, Model: m,
				Batch: 1, InputLen: 128, OutputLen: 32, Weights: tensor.BF16}.Plan().StreamedGB > 0
			if needsOffload != (res.TransferSeconds > 0) {
				t.Errorf("%s/%s: offload routing mismatch (needed=%v, transfer=%.2fs)",
					g.Name, m.Name, needsOffload, res.TransferSeconds)
			}
		}
	}
}

// TestServingConsistentWithPointModel: a single FCFS request must cost
// exactly what the point model prices for the same shape.
func TestServingConsistentWithPointModel(t *testing.T) {
	m := core.MustModel("OPT-13B")
	point, err := core.SimulateCPU(core.SPRQuadFlat(48), m, 1, 128, 32)
	if err != nil {
		t.Fatal(err)
	}
	cost := serve.NewCPUCost(experiments.SPRSetup(), m)
	srv := serve.Server{Cost: cost, Policy: serve.FCFS, MaxBatch: 1}
	cs, err := srv.Run([]workload.Request{{ID: 0, InputLen: 128, OutputLen: 32}})
	if err != nil {
		t.Fatal(err)
	}
	// The serving path prices decode steps at bucketed context lengths;
	// allow a few percent of quantization slack.
	if ratio := cs[0].E2E / point.Latency.E2E; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("serving E2E %.3fs vs point model %.3fs (ratio %.3f)",
			cs[0].E2E, point.Latency.E2E, ratio)
	}
	if cs[0].TTFT != point.Latency.TTFT {
		t.Errorf("serving TTFT %.4f != point TTFT %.4f", cs[0].TTFT, point.Latency.TTFT)
	}
}

// TestOffloadTraceMatchesSimulate: the decode timeline's makespan (plus
// the per-pass overhead) must equal the per-step time Simulate reports.
func TestOffloadTraceMatchesSimulate(t *testing.T) {
	run := offload.Run{GPU: hw.H100, Host: hw.SPRMax9468, Model: model.OPT66B,
		Batch: 1, InputLen: 128, OutputLen: 2, Weights: tensor.BF16}
	res, err := run.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	tl, err := run.Trace(model.Decode, 129)
	if err != nil {
		t.Fatal(err)
	}
	step := tl.Makespan + hw.H100.StepOverheadMS/1e3
	if ratio := step / res.DecodeSeconds; ratio < 0.98 || ratio > 1.02 {
		t.Errorf("trace step %.3fs vs simulated decode %.3fs", step, res.DecodeSeconds)
	}
}

// TestEngineMatchesOpInventoryShapes: the functional engine's KV cache
// growth must match the analytic KV sizing for its config.
func TestEngineMatchesOpInventoryShapes(t *testing.T) {
	e, err := core.TinyEngine("llama", engine.KernelBlocked)
	if err != nil {
		t.Fatal(err)
	}
	cfg := e.Config()
	const maxSeq = 48
	s := e.NewSession(2, maxSeq)
	// Each layer's one block is allocated by the first prefill.
	if _, err := e.Prefill(s, [][]int{core.Prompt(e, 8, 1), core.Prompt(e, 8, 2)}); err != nil {
		t.Fatal(err)
	}
	// Engine stores FP32; analytics sized at FP32 must match exactly.
	want := 2 * cfg.KVCacheBytes(maxSeq, 1, tensor.FP32)
	if s.KVBytes() != want {
		t.Errorf("engine KV bytes %d != analytic %d", s.KVBytes(), want)
	}
}

// TestQuickstartFlow: the exact sequence the quickstart example runs must
// work end to end through the facade.
func TestQuickstartFlow(t *testing.T) {
	eng, err := core.TinyEngine("opt", engine.KernelTileBF16Parallel)
	if err != nil {
		t.Fatal(err)
	}
	out, stats, err := eng.Generate([][]int{core.Prompt(eng, 12, 3)}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 6 || stats.TTFT() <= 0 {
		t.Error("quickstart generation broken")
	}
	for _, m := range []string{"OPT-30B", "LLaMA2-70B"} {
		cpu, err := core.SimulateCPU(core.SPRQuadFlat(48), core.MustModel(m), 1, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		gpu, err := core.SimulateGPU(core.A100(), core.MustModel(m), 1, 128, 32)
		if err != nil {
			t.Fatal(err)
		}
		if gpu.Latency.E2E <= cpu.Latency.E2E {
			t.Errorf("%s: offloading A100 must lose to the CPU at batch 1", m)
		}
	}
}
