// Package hybrid implements the paper's second proposed optimization
// (§VI): CPU–GPU cooperative execution. Instead of streaming every layer's
// weights over PCIe (FlexGen-style offloading), the model's layers are
// partitioned: as many layers as fit stay GPU-resident and execute there,
// the remaining layers execute on the CPU next to their weights, and only
// per-token activations cross the PCIe link.
package hybrid

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// Run describes one hybrid execution point.
type Run struct {
	GPU                 hw.GPU
	Host                memsim.Config // CPU configuration for the CPU-side layers
	Model               model.Config
	Batch               int
	InputLen, OutputLen int
	Weights             tensor.DType
}

// Split describes a layer partition: layers [0, GPULayers) run on the GPU,
// the rest on the CPU.
type Split struct {
	GPULayers int
	CPULayers int
}

// MaxGPULayers returns how many decoder blocks fit in GPU memory next to
// the workspace (embeddings and head stay with the CPU side).
func (r Run) MaxGPULayers() int {
	free := (r.GPU.MemGB - r.GPU.WorkspaceGB) * 1e9
	layerBytes := float64((r.Model.AttnParams() + r.Model.FFNParams()) * int64(r.Weights.Size()))
	if layerBytes <= 0 {
		return 0
	}
	n := int(free / layerBytes)
	if n > r.Model.Layers {
		n = r.Model.Layers
	}
	if n < 0 {
		n = 0
	}
	return n
}

// scaleOps returns the ops of one pass with per-layer instances and bytes
// scaled to `layers` of the model's blocks. The LM head is charged to the
// CPU side (with the embeddings).
func scaleOps(m model.Config, ph model.Phase, batch, seq, ctx, layers int, dt tensor.DType, withHead bool) []model.Op {
	frac := float64(layers) / float64(m.Layers)
	var out []model.Op
	for _, o := range m.Ops(ph, batch, seq, ctx, dt) {
		if o.Name == "lm_head" {
			if withHead {
				out = append(out, o)
			}
			continue
		}
		o.Instances = int64(float64(o.Instances)*frac + 0.5)
		o.WeightBytes = int64(float64(o.WeightBytes) * frac)
		o.IOBytes = int64(float64(o.IOBytes) * frac)
		if o.Instances > 0 {
			out = append(out, o)
		}
	}
	return out
}

// pricePhase prices one forward pass under the split: GPU layers at GPU
// roofline, CPU layers at CPU roofline, plus one activation round-trip
// over PCIe per pass.
func (r Run) pricePhase(ph model.Phase, seq, ctx int, split Split, cpuBW float64, cpuScale float64) float64 {
	var t float64
	// GPU side.
	if split.GPULayers > 0 {
		gpuBW := r.GPU.BandwidthGBs * r.GPU.MemEff * 1e9
		for _, o := range scaleOps(r.Model, ph, r.Batch, seq, ctx, split.GPULayers, r.Weights, false) {
			compute := o.FLOPs() / r.GPU.Compute.EffectiveFLOPS(o.M, o.N, o.K)
			mem := float64(o.Bytes()) / gpuBW
			t += maxF(compute, mem)
		}
		t += r.GPU.StepOverheadMS / 1e3
	}
	// CPU side (including embeddings + head).
	if split.CPULayers > 0 || true {
		cpu := r.Host.CPU
		for _, o := range scaleOps(r.Model, ph, r.Batch, seq, ctx, split.CPULayers, r.Weights, true) {
			path := cpu.BestPath(o.M, o.N, o.K)
			compute := o.FLOPs() / (path.EffectiveFLOPS(o.M, o.N, o.K) * cpuScale)
			mem := float64(o.Bytes()) / (cpuBW * 1e9)
			t += maxF(compute, mem)
		}
		t += cpu.StepOverheadMS / 1e3
	}
	// Activation handoff: hidden states cross the link once each way.
	rows := float64(r.Batch)
	if ph == model.Prefill {
		rows *= float64(seq)
	}
	actBytes := rows * float64(r.Model.DModel) * 2 * 2
	t += actBytes / (r.GPU.PCIe.Achieved(r.Batch) * 1e9)
	return t
}

// Simulate prices the run with the given split.
func (r Run) Simulate(split Split) (metrics.Result, error) {
	if err := r.validate(split); err != nil {
		return metrics.Result{}, err
	}
	cpuFootprint := float64(r.Model.WeightBytes(r.Weights))*
		float64(split.CPULayers)/float64(r.Model.Layers)/1e9 +
		float64(r.Model.KVCacheBytes(r.InputLen+r.OutputLen, r.Batch, tensor.BF16))/1e9
	if cpuFootprint < 1 {
		cpuFootprint = 1
	}
	bw, err := r.Host.Bandwidth(cpuFootprint)
	if err != nil {
		return metrics.Result{}, err
	}
	scale := r.Host.ComputeScale()

	prefill := r.pricePhase(model.Prefill, r.InputLen, 0, split, bw.EffectiveGBs, scale)
	var decode float64
	for step := 1; step < r.OutputLen; step++ {
		decode += r.pricePhase(model.Decode, 1, r.InputLen+step, split, bw.EffectiveGBs, scale)
	}
	name := fmt.Sprintf("hybrid(%s+%s,%d/%d)", r.GPU.Name, r.Host.CPU.Name,
		split.GPULayers, split.CPULayers)
	res := metrics.New(name, r.Model.Name, r.Batch, r.InputLen, r.OutputLen, prefill, decode)
	res.ComputeSeconds = res.Latency.E2E
	return res, nil
}

// BestSplit searches layer partitions (bounded by GPU capacity) for the
// lowest E2E latency.
func (r Run) BestSplit() (Split, metrics.Result, error) {
	maxGPU := r.MaxGPULayers()
	var (
		best    Split
		bestRes metrics.Result
		found   bool
	)
	for g := 0; g <= maxGPU; g++ {
		split := Split{GPULayers: g, CPULayers: r.Model.Layers - g}
		res, err := r.Simulate(split)
		if err != nil {
			return Split{}, metrics.Result{}, err
		}
		if !found || res.Latency.E2E < bestRes.Latency.E2E {
			best, bestRes, found = split, res, true
		}
	}
	if !found {
		return Split{}, metrics.Result{}, fmt.Errorf("hybrid: no feasible split")
	}
	return best, bestRes, nil
}

// CPUOnly returns the equivalent pure-CPU result for comparison.
func (r Run) CPUOnly() (metrics.Result, error) {
	return perfmodel.CPURun{
		Model: r.Model, Setup: r.Host, Batch: r.Batch,
		InputLen: r.InputLen, OutputLen: r.OutputLen, Weights: r.Weights,
	}.Simulate()
}

func (r Run) validate(split Split) error {
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if r.Batch <= 0 || r.InputLen <= 0 || r.OutputLen <= 0 {
		return fmt.Errorf("hybrid: non-positive batch/input/output")
	}
	if split.GPULayers < 0 || split.CPULayers < 0 ||
		split.GPULayers+split.CPULayers != r.Model.Layers {
		return fmt.Errorf("hybrid: split %d+%d does not cover %d layers",
			split.GPULayers, split.CPULayers, r.Model.Layers)
	}
	if split.GPULayers > r.MaxGPULayers() {
		return fmt.Errorf("hybrid: %d GPU layers exceed capacity (max %d)",
			split.GPULayers, r.MaxGPULayers())
	}
	return nil
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
