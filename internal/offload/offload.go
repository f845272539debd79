// Package offload models FlexGen-style offloading-based LLM inference
// (§III, §V): model weights, activations and the KV cache live in host CPU
// memory and stream to the GPU over PCIe on demand. It implements the
// placement policy (which weights stay GPU-resident), the zig-zag block
// schedule's compute/transfer overlap, FlexGen's CPU delegation of
// attention over the host-resident KV cache, and the execution-time
// breakdown of Fig 18.
package offload

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/tensor"
)

// hostAttentionBWGBs is the effective memory bandwidth of FlexGen's
// CPU-delegated decode attention over the host's DDR: a non-AMX,
// torch-CPU attention kernel sustains a modest fraction of STREAM.
const hostAttentionBWGBs = 40.0

// residentPackFraction is how much of the GPU's free memory the placement
// policy fills with weights when it packs weights at all; the rest absorbs
// fragmentation and transient buffers.
const residentPackFraction = 0.95

// smallBatchThreshold separates FlexGen's two published operating points:
// latency-oriented small-batch configs pin all weights host-side
// (--percent 0 100), while throughput-oriented batched configs pack free
// GPU memory with weights.
const smallBatchThreshold = 4

// Run describes one offloaded GPU inference point. Host is the CPU server
// holding the offloaded tensors (and computing delegated attention).
type Run struct {
	GPU                 hw.GPU
	Host                hw.CPU
	Model               model.Config
	Batch               int
	InputLen, OutputLen int
	Weights             tensor.DType
	// Compress4Bit enables FlexGen's group-wise 4-bit weight compression:
	// weights stream over PCIe at a quarter of their BF16 size and
	// dequantize on the GPU (FlexGen reports negligible accuracy loss).
	// This is the lever that can flip large-model offloading back ahead
	// of the CPU — see EXPERIMENTS.md's Fig 21 discussion.
	Compress4Bit bool
}

// Plan is the derived placement: how many GB of weights stay GPU-resident
// versus stream over PCIe every forward pass.
type Plan struct {
	WeightsGB        float64
	ResidentGB       float64
	StreamedGB       float64
	ResidentFraction float64
	// StreamWireGB is the bytes that actually cross the link per pass —
	// StreamedGB, or a quarter of it under 4-bit compression.
	StreamWireGB float64
	// KVOnHost is always true in this policy: the KV cache stays in host
	// memory and attention over it runs on the host CPU (FlexGen's CPU
	// delegation).
	KVOnHost bool
}

// Plan computes the weight placement for the run.
func (r Run) Plan() Plan {
	weights := float64(r.Model.WeightBytes(r.Weights)) / 1e9
	storedWeights := weights
	if r.Compress4Bit {
		// Compression applies at rest too: both residency and streaming
		// operate on the 4-bit form (dequantized tile by tile on the GPU).
		storedWeights = weights / 4
	}
	p := Plan{WeightsGB: weights, KVOnHost: true}
	free := r.GPU.MemGB - r.GPU.WorkspaceGB - r.activationGB()
	if free < 0 {
		free = 0
	}
	var residentStored float64
	if storedWeights <= free {
		residentStored = storedWeights // fits entirely: no offloading needed
	} else if r.Batch >= smallBatchThreshold {
		residentStored = minF(storedWeights, residentPackFraction*free)
	}
	storedRatio := weights / storedWeights
	p.ResidentGB = residentStored * storedRatio // report in BF16-equivalent GB
	p.StreamedGB = weights - p.ResidentGB
	p.StreamWireGB = (storedWeights - residentStored)
	if weights > 0 {
		p.ResidentFraction = p.ResidentGB / weights
	}
	return p
}

// activationGB estimates peak activation memory on the GPU.
func (r Run) activationGB() float64 {
	rows := float64(r.Batch) * float64(r.InputLen)
	return rows * float64(r.Model.DFF) * 2 * 3 / 1e9
}

// stepCost summarizes one forward pass scheduled through the zig-zag
// pipeline.
type stepCost struct {
	seconds  float64
	transfer float64 // PCIe transfer demand
	compute  float64 // GPU compute + host-delegated attention
	stall    float64 // non-overlapped transfer time ("data loading")
}

// buildLayers converts an op list into the per-layer work items the
// pipeline schedules: each decoder block streams its share of the
// non-resident weights and runs its linear ops on the GPU, with attention
// delegated to the host CPU; per-pass activation/KV traffic spreads evenly
// across layers.
func (r Run) buildLayers(ops []model.Op, plan Plan, extraPCIeGB float64) []layerWork {
	link := r.GPU.PCIe.Achieved(r.Batch) * 1e9
	gpuBW := r.GPU.BandwidthGBs * r.GPU.MemEff * 1e9
	L := r.Model.Layers
	var gpuCompute, hostAttn float64
	for _, o := range ops {
		if o.Attention {
			// Delegated to the host CPU over the host-resident KV cache.
			hostAttn += float64(o.IOBytes) / (hostAttentionBWGBs * 1e9)
			continue
		}
		compute := o.FLOPs() / r.GPU.Compute.EffectiveFLOPS(o.M, o.N, o.K)
		mem := float64(o.WeightBytes+o.IOBytes) / gpuBW
		gpuCompute += maxF(compute, mem)
	}
	transferPerLayer := (plan.StreamWireGB + extraPCIeGB) * 1e9 / link / float64(L)
	layers := make([]layerWork, L)
	for i := range layers {
		layers[i] = layerWork{
			transfer: transferPerLayer,
			gpu:      gpuCompute / float64(L),
			cpu:      hostAttn / float64(L),
		}
	}
	return layers
}

// price schedules one pass through the zig-zag pipeline: layer ℓ+1's
// weights stream over PCIe while layer ℓ computes, and the reported
// data-loading stall is the compute side's idle time.
func (r Run) price(ops []model.Op, plan Plan, extraPCIeGB float64) stepCost {
	tl := runPipeline(r.buildLayers(ops, plan, extraPCIeGB), false)
	overhead := r.GPU.StepOverheadMS / 1e3
	return stepCost{
		seconds:  tl.Makespan + overhead,
		transfer: tl.LinkBusy,
		compute:  tl.GPUBusy + tl.CPUBusy + overhead,
		stall:    tl.Stall,
	}
}

// Trace schedules one forward pass and returns its full event timeline
// for inspection (ctx is the KV length for decode passes; ignored for
// prefill).
func (r Run) Trace(ph model.Phase, ctx int) (Timeline, error) {
	if err := r.validate(); err != nil {
		return Timeline{}, err
	}
	plan := r.Plan()
	var ops []model.Op
	extra := float64(r.Batch) * float64(r.Model.DModel) * 2 * 2 / 1e9
	if ph == model.Prefill {
		ops = r.Model.Ops(model.Prefill, r.Batch, r.InputLen, 0, r.Weights)
		extra = float64(r.Model.KVCacheBytes(r.InputLen, r.Batch, tensor.BF16)) / 1e9
	} else {
		if ctx <= 0 {
			ctx = r.InputLen
		}
		ops = r.Model.Ops(model.Decode, r.Batch, 1, ctx, r.Weights)
	}
	return runPipeline(r.buildLayers(ops, plan, extra), true), nil
}

// Simulate prices the offloaded run and returns metrics with the Fig 18
// compute/transfer breakdown populated.
func (r Run) Simulate() (metrics.Result, error) {
	if err := r.validate(); err != nil {
		return metrics.Result{}, err
	}
	plan := r.Plan()

	// Prefill: one pass over the prompt. Besides streamed weights, the
	// prompt's KV cache ships back to host memory.
	kvPromptGB := float64(r.Model.KVCacheBytes(r.InputLen, r.Batch, tensor.BF16)) / 1e9
	pre := r.price(r.Model.Ops(model.Prefill, r.Batch, r.InputLen, 0, r.Weights),
		plan, kvPromptGB)

	// Decode: one pass per output token; each step ships the new token's
	// activations both ways (small) on top of the streamed weights.
	actGB := float64(r.Batch) * float64(r.Model.DModel) * 2 * 2 / 1e9
	var dec stepCost
	for step := 1; step < r.OutputLen; step++ {
		s := r.price(r.Model.Ops(model.Decode, r.Batch, 1, r.InputLen+step, r.Weights),
			plan, actGB)
		dec.seconds += s.seconds
		dec.transfer += s.transfer
		dec.compute += s.compute
		dec.stall += s.stall
	}

	res := metrics.New(r.GPU.Name+"+offload", r.Model.Name, r.Batch,
		r.InputLen, r.OutputLen, pre.seconds, dec.seconds)
	res.TransferSeconds = pre.stall + dec.stall
	res.ComputeSeconds = res.Latency.E2E - res.TransferSeconds
	return res, nil
}

func (r Run) validate() error {
	if err := r.Model.Validate(); err != nil {
		return err
	}
	if r.Batch <= 0 || r.InputLen <= 0 || r.OutputLen <= 0 {
		return fmt.Errorf("offload: non-positive batch/input/output for %s", r.Model.Name)
	}
	hostGB := r.Host.TotalMemoryGB() * float64(r.Host.Sockets)
	needGB := float64(r.Model.WeightBytes(r.Weights)+
		r.Model.KVCacheBytes(r.InputLen+r.OutputLen, r.Batch, tensor.BF16)) / 1e9
	if needGB > hostGB {
		return fmt.Errorf("offload: %s needs %.0f GB host memory, %s has %.0f",
			r.Model.Name, needGB, r.Host.Name, hostGB)
	}
	return nil
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
