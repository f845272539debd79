// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper's evaluation. Each benchmark regenerates its
// experiment through the same code path as `repro figures` and reports the
// figure's headline quantity as a custom benchmark metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation and prints the paper-comparable
// numbers. Functional-substrate benchmarks (real GEMM kernels and the
// pure-Go engine) sit alongside, grounding the simulator's compute model
// in measured Go kernels.
package repro

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/perfmodel"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// runExp runs a registered experiment b.N times and returns its tables.
func runExp(b *testing.B, key string) []experiments.Table {
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

func parseCell(b *testing.B, tab experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		b.Fatalf("%s[%d][%d]=%q", tab.ID, row, col, tab.Rows[row][col])
	}
	return v
}

// --- Tables I & II ---------------------------------------------------------

func BenchmarkTableICPUSetup(b *testing.B) {
	tabs := runExp(b, "table1")
	b.ReportMetric(float64(len(tabs[0].Rows)), "cpus")
}

func BenchmarkTableIIGPUSetup(b *testing.B) {
	tabs := runExp(b, "table2")
	b.ReportMetric(float64(len(tabs[0].Rows)), "gpus")
}

// --- Fig 1: GEMM throughput -------------------------------------------------

func BenchmarkFig1GEMMThroughput(b *testing.B) {
	tabs := runExp(b, "fig1")
	tab := tabs[0]
	last := len(tab.Rows) - 1
	b.ReportMetric(parseCell(b, tab, last, 2), "spr_amx_tflops@8192")
	b.ReportMetric(parseCell(b, tab, last, 2)/parseCell(b, tab, last, 1), "amx_vs_avx512_x")
}

// --- Fig 6/7: footprints ----------------------------------------------------

func BenchmarkFig6ModelFootprint(b *testing.B) {
	tabs := runExp(b, "fig6")
	for _, row := range tabs[0].Rows {
		if row[0] == "OPT-175B" {
			gb, _ := strconv.ParseFloat(row[2], 64)
			b.ReportMetric(gb, "opt175b_fp16_gb")
		}
	}
}

func BenchmarkFig7KVCacheFootprint(b *testing.B) {
	var bytes int64
	for i := 0; i < b.N; i++ {
		bytes = model.OPT66B.KVCacheBytes(4096, 32, tensor.BF16)
	}
	b.ReportMetric(float64(bytes)/(1<<30), "opt66b_kv_gib@4096x32")
	runExp(b, "fig7")
}

// --- Figs 8–10: ICL vs SPR ---------------------------------------------------

func BenchmarkFig8EndToEnd(b *testing.B) {
	tabs := runExp(b, "fig8")
	var speedups []float64
	thr := tabs[1]
	for r := range thr.Rows {
		for c := 1; c < len(thr.Rows[r]); c++ {
			speedups = append(speedups, parseCell(b, thr, r, c))
		}
	}
	g, _ := stats.GeoMean(speedups)
	b.ReportMetric(g, "spr_thpt_speedup_geomean")
	b.ReportMetric(stats.Max(speedups), "spr_thpt_speedup_max")
}

func BenchmarkFig9PhaseLatency(b *testing.B) {
	tabs := runExp(b, "fig9")
	var pre, dec []float64
	for r := range tabs[0].Rows {
		for c := 1; c < len(tabs[0].Rows[r]); c++ {
			pre = append(pre, parseCell(b, tabs[0], r, c))
			dec = append(dec, parseCell(b, tabs[1], r, c))
		}
	}
	b.ReportMetric((1-stats.Mean(pre))*100, "prefill_latency_reduction_pct")
	b.ReportMetric((1-stats.Mean(dec))*100, "decode_latency_reduction_pct")
}

func BenchmarkFig10PhaseThroughput(b *testing.B) {
	tabs := runExp(b, "fig10")
	var pre, dec []float64
	for r := range tabs[0].Rows {
		for c := 1; c < len(tabs[0].Rows[r]); c++ {
			pre = append(pre, parseCell(b, tabs[0], r, c))
			dec = append(dec, parseCell(b, tabs[1], r, c))
		}
	}
	gp, _ := stats.GeoMean(pre)
	gd, _ := stats.GeoMean(dec)
	b.ReportMetric(gp, "prefill_speedup_geomean")
	b.ReportMetric(gd, "decode_speedup_geomean")
}

// --- Figs 11/12: counters ----------------------------------------------------

func benchCounters(b *testing.B, key string) {
	tabs := runExp(b, key)
	tab := tabs[0]
	first := parseCell(b, tab, 0, 1)
	last := parseCell(b, tab, len(tab.Rows)-1, 1)
	b.ReportMetric(first/last, "mpki_drop_b1_to_b32_x")
	b.ReportMetric(parseCell(b, tab, len(tab.Rows)-1, 2), "core_util@b32")
}

func BenchmarkFig11CountersLlama13B(b *testing.B) { benchCounters(b, "fig11") }
func BenchmarkFig12CountersOPT66B(b *testing.B)   { benchCounters(b, "fig12") }

// --- Figs 13–16: server configuration ----------------------------------------

func BenchmarkFig13NUMAModes(b *testing.B) {
	tabs := runExp(b, "fig13")
	tab := tabs[0]
	for r, row := range tab.Rows {
		if row[0] == "quad_flat" {
			b.ReportMetric(parseCell(b, tab, r, 1), "quad_flat_norm_latency")
		}
		if row[0] == "snc_cache" {
			b.ReportMetric(parseCell(b, tab, r, 1), "snc_cache_norm_latency")
		}
	}
}

func BenchmarkFig14CoreSweep(b *testing.B) {
	tabs := runExp(b, "fig14")
	tab := tabs[0]
	for r, row := range tab.Rows {
		if row[0] == "48" {
			b.ReportMetric((1-parseCell(b, tab, r, 1))*100, "e2e_reduction_48_vs_12_pct")
			b.ReportMetric(parseCell(b, tab, r, len(row)-1), "thpt_48_vs_12_x")
		}
	}
}

func BenchmarkFig15NUMACounters(b *testing.B) {
	tabs := runExp(b, "fig15")
	tab := tabs[0]
	for r, row := range tab.Rows {
		if row[0] == "quad_flat" {
			b.ReportMetric(parseCell(b, tab, r, 3), "quad_remote_llc_M")
		}
		if row[0] == "snc_flat" {
			b.ReportMetric(parseCell(b, tab, r, 3), "snc_remote_llc_M")
		}
	}
}

func BenchmarkFig16CoreCounters(b *testing.B) {
	tabs := runExp(b, "fig16")
	tab := tabs[0]
	b.ReportMetric(parseCell(b, tab, len(tab.Rows)-1, 3), "upi_util@96cores")
}

// --- Figs 17–21: CPU vs GPU ----------------------------------------------------

func BenchmarkFig17CPUvsGPUBatch1(b *testing.B) {
	tabs := runExp(b, "fig17")
	lat := tabs[0]
	for r, row := range lat.Rows {
		switch row[0] {
		case "OPT-13B":
			b.ReportMetric((1-parseCell(b, lat, r, 3))*100, "h100_opt13b_latency_reduction_pct")
		case "OPT-30B":
			b.ReportMetric(parseCell(b, lat, r, 2), "a100_opt30b_norm_latency")
		case "OPT-66B":
			b.ReportMetric(parseCell(b, lat, r, 3), "h100_opt66b_norm_latency")
		}
	}
}

func BenchmarkFig18OffloadBreakdown(b *testing.B) {
	tabs := runExp(b, "fig18")
	tab := tabs[0]
	b.ReportMetric(parseCell(b, tab, 0, 1), "a100_pcie_pct@b1")
	b.ReportMetric(parseCell(b, tab, len(tab.Rows)-1, 1), "a100_pcie_pct@b32")
	b.ReportMetric(parseCell(b, tab, 0, 3), "h100_pcie_pct@b1")
	b.ReportMetric(parseCell(b, tab, len(tab.Rows)-1, 3), "h100_pcie_pct@b32")
}

func BenchmarkFig19CPUvsGPUBatch16(b *testing.B) {
	tabs := runExp(b, "fig19")
	lat := tabs[0]
	for r, row := range lat.Rows {
		if row[0] == "OPT-66B" {
			b.ReportMetric(parseCell(b, lat, r, 3), "h100_opt66b_norm_latency@b16")
		}
	}
}

func benchSeqSweep(b *testing.B, key string) {
	tabs := runExp(b, key)
	cpuWins := 0
	for _, row := range tabs[0].Rows {
		if row[len(row)-1] == "CPU" {
			cpuWins++
		}
	}
	b.ReportMetric(float64(cpuWins), "cpu_wins")
	b.ReportMetric(float64(len(tabs[0].Rows)), "points")
}

func BenchmarkFig20SeqLenBatch1(b *testing.B)  { benchSeqSweep(b, "fig20") }
func BenchmarkFig21SeqLenBatch16(b *testing.B) { benchSeqSweep(b, "fig21") }

// --- §VI optimizations ----------------------------------------------------------

func BenchmarkOptNUMAPlacement(b *testing.B) {
	tabs := runExp(b, "opt-numa")
	b.ReportMetric(parseCell(b, tabs[0], 1, 3), "placement_speedup_x")
}

func BenchmarkOptHybridExecution(b *testing.B) {
	tabs := runExp(b, "opt-hybrid")
	b.ReportMetric(parseCell(b, tabs[0], 0, 5), "hybrid_vs_offload_x")
}

func BenchmarkOptInt8(b *testing.B) {
	tabs := runExp(b, "opt-int8")
	b.ReportMetric(parseCell(b, tabs[0], 0, 5), "int8_speedup_x")
}

// --- Functional substrate: real measured kernels --------------------------------

func benchGemm(b *testing.B, n int, f func(n int, a, bm, c []float32)) {
	a := make([]float32, n*n)
	bm := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%13) * 0.1
		bm[i] = float32(i%7) * 0.1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(n, a, bm, c)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemmNaive128(b *testing.B) {
	benchGemm(b, 128, func(n int, a, bm, c []float32) { kernels.GemmNaive(n, n, n, a, bm, c) })
}

func BenchmarkGemmTileBF16x128(b *testing.B) {
	benchGemm(b, 128, func(n int, a, bm, c []float32) { kernels.GemmTileBF16(n, n, n, a, bm, c) })
}

func BenchmarkGemmInt8x128(b *testing.B) {
	n := 128
	a := make([]float32, n*n)
	for i := range a {
		a[i] = float32(i%13) * 0.1
	}
	aq, as := tensor.QuantizeInt8(a)
	bq, bs := tensor.QuantizeInt8(a)
	c := make([]float32, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.GemmInt8(n, n, n, aq, as, bq, bs, c)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOP/s")
}

// --- Functional substrate: the pure-Go engine ------------------------------------

func benchEngine(b *testing.B, fam model.Family, k engine.Kernel, batch int) {
	w, err := engine.NewWeights(model.Tiny(fam), 42, tensor.BF16)
	if err != nil {
		b.Fatal(err)
	}
	if k == engine.KernelInt8 {
		w.QuantizeAll()
	}
	e, err := engine.New(w, engine.Options{Kernel: k})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(1)
	prompts := make([][]int, batch)
	for i := range prompts {
		prompts[i] = gen.Prompt(16, e.Config().Vocab)
	}
	b.ResetTimer()
	var tokens int
	for i := 0; i < b.N; i++ {
		out, _, err := e.Generate(prompts, 8)
		if err != nil {
			b.Fatal(err)
		}
		tokens += len(out) * len(out[0])
	}
	b.ReportMetric(float64(tokens)/b.Elapsed().Seconds(), "tok/s")
}

func BenchmarkEngineOPTBlocked(b *testing.B)   { benchEngine(b, model.OPT, engine.KernelBlocked, 1) }
func BenchmarkEngineOPTTileBF16(b *testing.B)  { benchEngine(b, model.OPT, engine.KernelTileBF16, 1) }
func BenchmarkEngineLlamaBlocked(b *testing.B) { benchEngine(b, model.LLaMA2, engine.KernelBlocked, 1) }
func BenchmarkEngineLlamaBatch4(b *testing.B)  { benchEngine(b, model.LLaMA2, engine.KernelBlocked, 4) }
func BenchmarkEngineOPTInt8(b *testing.B)      { benchEngine(b, model.OPT, engine.KernelInt8, 1) }

// --- Simulator micro-benchmarks ---------------------------------------------------

func BenchmarkSimulateCPUPoint(b *testing.B) {
	run := perfmodel.CPURun{
		Model: model.OPT66B,
		Setup: experiments.SPRSetup(),
		Batch: 8, InputLen: 128, OutputLen: 32, Weights: tensor.BF16,
	}
	for i := 0; i < b.N; i++ {
		if _, err := run.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateOffloadPoint(b *testing.B) {
	run := offload.Run{
		GPU: hw.H100, Host: hw.SPRMax9468, Model: model.OPT66B,
		Batch: 8, InputLen: 128, OutputLen: 32, Weights: tensor.BF16,
	}
	for i := 0; i < b.N; i++ {
		if _, err := run.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
}
