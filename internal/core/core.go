// Package core is the public facade of the reproduction library. It ties
// the two substrates together behind one API:
//
//   - the platform performance simulator (perfmodel, memsim, offload,
//     hybrid), which prices LLM inference on the paper's four evaluation
//     platforms (package experiments turns it into every table and
//     figure), and
//   - the functional inference engine (engine, kernels, tensor), a real
//     pure-Go transformer that executes prefill/decode with a KV cache at
//     laptop scale.
//
// Typical use:
//
//	res, err := core.SimulateCPU(core.SPRQuadFlat(48), core.MustModel("OPT-30B"), 1, 128, 32)
//	fmt.Println(res)            // TTFT / TPOT / E2E / tokens-per-second
//
//	gpu, err := core.SimulateGPU(core.H100(), core.MustModel("OPT-66B"), 1, 128, 32)
//	fmt.Println(gpu.PCIeFraction())  // offloading engages automatically
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// Re-exported types, so most callers only import core.
type (
	// Model is a transformer architecture description.
	Model = model.Config
	// CPUSetup is a concrete CPU configuration (cores, memory and
	// clustering modes).
	CPUSetup = memsim.Config
	// Result is the metric set of one simulated point.
	Result = metrics.Result
	// GPU is a GPU platform description.
	GPU = hw.GPU
	// CPU is a CPU platform description.
	CPU = hw.CPU
)

// ModelByName resolves a preset by its paper name (e.g. "LLaMA2-13B").
func ModelByName(name string) (Model, error) { return model.ByName(name) }

// MustModel is ModelByName for known-good literals; it panics on typos.
func MustModel(name string) Model {
	m, err := model.ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// SPRQuadFlat returns the SPR Max CPU in its best configuration (Key
// Findings #2 and #3): quadrant clustering, flat HBM mode, `cores` active
// cores (48 = one full socket, the paper's choice; 0 defaults to 48).
func SPRQuadFlat(cores int) CPUSetup {
	if cores <= 0 {
		cores = 48
	}
	return CPUSetup{CPU: hw.SPRMax9468, Cores: cores, Mem: memsim.Flat, Cluster: memsim.Quad}
}

// ICLBaseline returns the IceLake baseline configuration (one 32-core
// socket, DDR4 only).
func ICLBaseline() CPUSetup {
	return CPUSetup{CPU: hw.ICL8352Y, Cores: 32, Mem: memsim.DDROnly, Cluster: memsim.Quad}
}

// A100 returns the A100-40GB preset (Table II).
func A100() GPU { return hw.A100 }

// H100 returns the H100-80GB preset (Table II).
func H100() GPU { return hw.H100 }

// SimulateCPU prices one CPU inference point with BF16 weights.
func SimulateCPU(setup CPUSetup, m Model, batch, inputLen, outputLen int) (Result, error) {
	return perfmodel.CPURun{
		Model: m, Setup: setup, Batch: batch,
		InputLen: inputLen, OutputLen: outputLen, Weights: tensor.BF16,
	}.Simulate()
}

// SimulateGPU prices one GPU inference point, automatically switching to
// FlexGen-style offloading when the model exceeds GPU memory (the paper's
// §V methodology). Offloaded runs populate Result.TransferSeconds with the
// PCIe data-loading time of Fig 18.
func SimulateGPU(g GPU, m Model, batch, inputLen, outputLen int) (Result, error) {
	resident := perfmodel.GPURun{GPU: g, Model: m, Batch: batch,
		InputLen: inputLen, OutputLen: outputLen, Weights: tensor.BF16}
	if resident.Fits() {
		return resident.Simulate()
	}
	return offload.Run{GPU: g, Host: hw.SPRMax9468, Model: m, Batch: batch,
		InputLen: inputLen, OutputLen: outputLen, Weights: tensor.BF16}.Simulate()
}

// TinyEngine builds a runnable miniature functional engine of the given
// family ("opt" or "llama"), with deterministic random BF16 weights.
func TinyEngine(family string, kernel engine.Kernel) (*engine.Engine, error) {
	return TinyEngineWith(family, engine.Options{Kernel: kernel})
}

// TinyEngineWith is TinyEngine with full Options control — callers can
// share a kernels.Pool across engines (gateway lanes) or attach hooks.
func TinyEngineWith(family string, opts engine.Options) (*engine.Engine, error) {
	var f model.Family
	switch family {
	case "opt":
		f = model.OPT
	case "llama":
		f = model.LLaMA2
	default:
		return nil, fmt.Errorf("core: unknown family %q (want opt or llama)", family)
	}
	w, err := engine.NewWeights(model.Tiny(f), 42, tensor.BF16)
	if err != nil {
		return nil, err
	}
	if opts.Kernel == engine.KernelInt8 {
		w.QuantizeAll()
	}
	return engine.New(w, opts)
}

// TinyDraftEngineWith builds the draft companion for a tiny-* lane: the
// same family and shapes as TinyEngineWith's target but a single
// transformer layer, so one draft decode step is a small fraction of a
// target step. The vocabulary and embedding width match the target, which
// speculative verification requires.
func TinyDraftEngineWith(family string, opts engine.Options) (*engine.Engine, error) {
	var f model.Family
	switch family {
	case "opt":
		f = model.OPT
	case "llama":
		f = model.LLaMA2
	default:
		return nil, fmt.Errorf("core: unknown family %q (want opt or llama)", family)
	}
	cfg := model.Tiny(f)
	cfg.Layers = 1
	w, err := engine.NewWeights(cfg, 43, tensor.BF16)
	if err != nil {
		return nil, err
	}
	if opts.Kernel == engine.KernelInt8 {
		w.QuantizeAll()
	}
	return engine.New(w, opts)
}

// Prompt samples a deterministic random prompt for an engine.
func Prompt(e *engine.Engine, n int, seed int64) []int {
	return workload.NewGenerator(seed).Prompt(n, e.Config().Vocab)
}
