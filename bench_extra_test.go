package repro

// Benchmarks for the extension subsystems: the serving simulator, the
// quantization kernels, and the functional engine's chunked prefill. These back the ablation discussions in
// DESIGN.md beyond the paper's own tables and figures.

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// runExtExp runs a registered experiment b.N times.
func runExtExp(b *testing.B, key string) []experiments.Table {
	b.Helper()
	e, err := experiments.ByKey(key)
	if err != nil {
		b.Fatal(err)
	}
	var tabs []experiments.Table
	for i := 0; i < b.N; i++ {
		tabs, err = e.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tabs
}

func parseCellExtra(b *testing.B, tab experiments.Table, row, col int) float64 {
	b.Helper()
	var v float64
	if _, err := fmtSscan(tab.Rows[row][col], &v); err != nil {
		b.Fatalf("%s[%d][%d]=%q", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

// --- serving simulator -------------------------------------------------------

func benchServe(b *testing.B, policy serve.Policy) {
	cost := serve.NewCPUCost(experiments.SPRSetup(), model.Llama13B)
	gen := workload.NewGenerator(17)
	gen.ArrivalRate = 4
	gen.LenJitter = 0.8
	trace := gen.Trace(48)
	var sm serve.Summary
	for i := 0; i < b.N; i++ {
		srv := serve.Server{Cost: cost, Policy: policy, MaxBatch: 8, BatchWait: 0.25}
		cs, err := srv.Run(trace)
		if err != nil {
			b.Fatal(err)
		}
		sm = serve.Summarize(cs)
	}
	b.ReportMetric(sm.TokensPerSecond, "served_tok/s")
	b.ReportMetric(sm.P95E2E, "p95_e2e_s")
}

func BenchmarkServeFCFS(b *testing.B)       { benchServe(b, serve.FCFS) }
func BenchmarkServeStatic(b *testing.B)     { benchServe(b, serve.Static) }
func BenchmarkServeContinuous(b *testing.B) { benchServe(b, serve.Continuous) }

// --- extension ablations -------------------------------------------------------

func benchAblation(b *testing.B, key string, row, col int, metric string) {
	tabs := runExtExp(b, key)
	v := parseCellExtra(b, tabs[0], row, col)
	b.ReportMetric(v, metric)
}

func BenchmarkOptPagedKV(b *testing.B) { benchAblation(b, "opt-paged", 4, 3, "paged_gain_x@256") }
func BenchmarkOptTensorParallel(b *testing.B) {
	benchAblation(b, "opt-tp", 2, 4, "tp2_vs_1socket_x_opt66b")
}
func BenchmarkOptSpeculative(b *testing.B) {
	benchAblation(b, "opt-spec", 4, 5, "spec_speedup_a08_k4")
}
func BenchmarkServePoliciesTable(b *testing.B) {
	benchAblation(b, "serve-policies", 8, 4, "continuous_tok_s@8rps")
}

// --- functional speculative decoding -------------------------------------------

func BenchmarkEngineSpeculative(b *testing.B) {
	cfg := model.Tiny(model.OPT)
	tw, err := engine.NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		b.Fatal(err)
	}
	target, _ := engine.New(tw, engine.Options{Kernel: engine.KernelBlocked})
	dcfg := cfg
	dcfg.Layers = 1
	dw, _ := engine.NewWeights(dcfg, 7, tensor.FP32)
	draft, _ := engine.New(dw, engine.Options{Kernel: engine.KernelBlocked})
	p := workload.NewGenerator(1).Prompt(12, cfg.Vocab)
	var st engine.SpecStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = engine.SpeculativeGenerate(target, draft, p, 16, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(st.AcceptanceRate()*100, "acceptance_pct")
	b.ReportMetric(float64(st.TargetPasses), "target_passes")
}

// --- paged vs dense engine sessions --------------------------------------------

func benchEngineSession(b *testing.B, paged bool) {
	w, err := engine.NewWeights(model.Tiny(model.LLaMA2), 42, tensor.BF16)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(w, engine.Options{Kernel: engine.KernelBlocked})
	if err != nil {
		b.Fatal(err)
	}
	p := workload.NewGenerator(1).Prompt(16, e.Config().Vocab)
	var kvBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s *engine.Session
		if paged {
			s = e.NewPagedSession(1, 32, 8)
		} else {
			s = e.NewSession(1, 32)
		}
		toks, err := e.Prefill(s, [][]int{p})
		if err != nil {
			b.Fatal(err)
		}
		for step := 1; step < 8; step++ {
			if toks, err = e.DecodeStep(s, toks); err != nil {
				b.Fatal(err)
			}
		}
		kvBytes = s.KVBytes()
	}
	b.ReportMetric(float64(kvBytes), "kv_bytes")
}

func BenchmarkEngineDenseSession(b *testing.B) { benchEngineSession(b, false) }
func BenchmarkEnginePagedSession(b *testing.B) { benchEngineSession(b, true) }

// --- attention over a longer context -----------------------------------------------

func BenchmarkEngineStandardAttention(b *testing.B) {
	w, err := engine.NewWeights(model.Tiny(model.LLaMA2), 42, tensor.BF16)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(w, engine.Options{Kernel: engine.KernelBlocked})
	if err != nil {
		b.Fatal(err)
	}
	p := workload.NewGenerator(1).Prompt(48, e.Config().Vocab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Generate([][]int{p}, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- chunked-prefill serving --------------------------------------------------------

func BenchmarkServeChunkedPrefill(b *testing.B) {
	cost := serve.NewCPUCost(experiments.SPRSetup(), model.Llama13B)
	gen := workload.NewGenerator(29)
	gen.ArrivalRate = 4
	trace := gen.Trace(24)
	var worst float64
	for i := 0; i < b.N; i++ {
		srv := serve.Server{Cost: cost, Policy: serve.Chunked, MaxBatch: 8, PrefillChunk: 64}
		if _, err := srv.Run(trace); err != nil {
			b.Fatal(err)
		}
		worst = srv.MaxIterationSeconds
	}
	b.ReportMetric(worst*1e3, "max_iteration_ms")
}

// --- perplexity evaluation -------------------------------------------------------

func BenchmarkEnginePerplexity(b *testing.B) {
	w, err := engine.NewWeights(model.Tiny(model.OPT), 42, tensor.BF16)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(w, engine.Options{Kernel: engine.KernelBlocked})
	if err != nil {
		b.Fatal(err)
	}
	seq := workload.NewGenerator(2).Prompt(32, e.Config().Vocab)
	var ppl float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Perplexity(seq)
		if err != nil {
			b.Fatal(err)
		}
		ppl = res.Perplexity
	}
	b.ReportMetric(ppl, "perplexity")
}

// --- chunked prefill ---------------------------------------------------------

func BenchmarkEngineChunkedPrefill(b *testing.B) {
	w, err := engine.NewWeights(model.Tiny(model.OPT), 42, tensor.BF16)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.New(w, engine.Options{Kernel: engine.KernelBlocked})
	if err != nil {
		b.Fatal(err)
	}
	p := workload.NewGenerator(1).Prompt(32, e.Config().Vocab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.GenerateWith([][]int{p},
			engine.GenerateOptions{MaxNew: 4, PrefillChunk: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
