package hybrid

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/tensor"
)

func run(g hw.GPU, m model.Config, batch int) Run {
	return Run{
		GPU:   g,
		Host:  memsim.Config{CPU: hw.SPRMax9468, Cores: 48, Mem: memsim.Flat, Cluster: memsim.Quad},
		Model: m, Batch: batch, InputLen: 128, OutputLen: 32,
		Weights: tensor.BF16,
	}
}

func TestMaxGPULayers(t *testing.T) {
	r := run(hw.A100, model.OPT30B, 1)
	g := r.MaxGPULayers()
	// A100 free ≈ 34 GB; OPT-30B layer ≈ 1.23 GB → ~27 layers.
	if g < 20 || g > 30 {
		t.Errorf("A100/OPT-30B max GPU layers = %d, want ~27", g)
	}
	if run(hw.H100, model.OPT13B, 1).MaxGPULayers() != model.OPT13B.Layers {
		t.Error("small model must fit entirely")
	}
}

// TestHybridBeatsOffloadSmallBatch is the §VI claim: for oversized models
// at small batch, partitioning layers between CPU and GPU beats streaming
// weights over PCIe.
func TestHybridBeatsOffloadSmallBatch(t *testing.T) {
	for _, c := range []struct {
		g hw.GPU
		m model.Config
	}{{hw.A100, model.OPT30B}, {hw.H100, model.OPT66B}} {
		r := run(c.g, c.m, 1)
		_, best, err := r.BestSplit()
		if err != nil {
			t.Fatal(err)
		}
		off := offload.Run{GPU: c.g, Host: hw.SPRMax9468, Model: c.m, Batch: 1,
			InputLen: 128, OutputLen: 32, Weights: tensor.BF16}
		offRes, err := off.Simulate()
		if err != nil {
			t.Fatal(err)
		}
		if best.Latency.E2E >= offRes.Latency.E2E {
			t.Errorf("%s/%s: hybrid (%.1fs) must beat offloading (%.1fs)",
				c.g.Name, c.m.Name, best.Latency.E2E, offRes.Latency.E2E)
		}
	}
}

// TestHybridBeatsCPUOnly: putting the resident fraction of layers on the
// GPU must also beat the pure-CPU run (the GPU layers run faster and the
// CPU streams fewer weights).
func TestHybridBeatsCPUOnly(t *testing.T) {
	r := run(hw.A100, model.OPT30B, 1)
	_, best, err := r.BestSplit()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := r.CPUOnly()
	if err != nil {
		t.Fatal(err)
	}
	if best.Latency.E2E >= cpu.Latency.E2E {
		t.Errorf("hybrid (%.2fs) must beat pure CPU (%.2fs)",
			best.Latency.E2E, cpu.Latency.E2E)
	}
}

// TestBestSplitUsesGPUCapacity: the optimal split for an oversized model
// should put a substantial number of layers on the GPU.
func TestBestSplitUsesGPUCapacity(t *testing.T) {
	r := run(hw.A100, model.OPT30B, 1)
	split, _, err := r.BestSplit()
	if err != nil {
		t.Fatal(err)
	}
	if split.GPULayers == 0 {
		t.Error("best split should use the GPU")
	}
	if split.GPULayers+split.CPULayers != model.OPT30B.Layers {
		t.Error("split must cover all layers")
	}
}

func TestSimulateSplitValidation(t *testing.T) {
	r := run(hw.A100, model.OPT30B, 1)
	if _, err := r.Simulate(Split{GPULayers: 1, CPULayers: 1}); err == nil {
		t.Error("non-covering split must fail")
	}
	if _, err := r.Simulate(Split{GPULayers: 48, CPULayers: 0}); err == nil {
		t.Error("over-capacity split must fail")
	}
	r.Batch = 0
	if _, err := r.Simulate(Split{GPULayers: 0, CPULayers: 48}); err == nil {
		t.Error("zero batch must fail")
	}
}

// TestPureCPUSplitMatchesOrderOfCPURun: the all-CPU split should be within
// 2× of the dedicated CPU model (they price the same work with slightly
// different overhead accounting).
func TestPureCPUSplitMatchesOrderOfCPURun(t *testing.T) {
	r := run(hw.A100, model.OPT13B, 1)
	res, err := r.Simulate(Split{GPULayers: 0, CPULayers: model.OPT13B.Layers})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := r.CPUOnly()
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Latency.E2E / cpu.Latency.E2E
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("all-CPU split %.2fs vs CPU model %.2fs (ratio %.2f)",
			res.Latency.E2E, cpu.Latency.E2E, ratio)
	}
}
