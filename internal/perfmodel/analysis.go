package perfmodel

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// OpAnalysis is the roofline breakdown of one operator under a CPU
// configuration: where it sits relative to the ridge point and which
// resource bounds it.
type OpAnalysis struct {
	Name       string
	FLOPs      float64
	Bytes      float64
	Intensity  float64 // FLOPs/byte
	ComputeSec float64
	MemorySec  float64
	Seconds    float64 // max of the two
	MemBound   bool
	Path       string // compute path used (amx-bf16 / avx512-bf16)

	// WeightSec and IOSec split MemorySec into the weight-streaming term
	// and the activation/KV IO term (MemorySec = WeightSec + IOSec).
	// Multi-row passes over one sequence — speculative verification —
	// stream the weights once while the IO term scales with the row
	// count, so pricing them correctly needs the split.
	WeightSec float64
	IOSec     float64
}

// Analyze prices each op of one forward pass and returns the per-op
// roofline breakdown, in op order. ph selects the phase; seq is the
// prompt length for prefill, ctx the KV length for decode.
func (r CPURun) Analyze(ph model.Phase, seq, ctx int) ([]OpAnalysis, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	bw, err := r.Setup.Bandwidth(r.FootprintGB())
	if err != nil {
		return nil, err
	}
	scale := r.Setup.ComputeScale()
	ops := r.Model.Ops(ph, r.Batch, seq, ctx, r.Weights)
	out := make([]OpAnalysis, 0, len(ops))
	for _, o := range ops {
		path := r.Setup.CPU.BestPath(o.M, o.N, o.K)
		compute := o.FLOPs() / (path.EffectiveFLOPS(o.M, o.N, o.K) * scale)
		io := float64(o.IOBytes)
		if !o.Attention {
			io *= activationSpillFraction
		}
		mem := float64(o.WeightBytes) + io
		memSec := mem / (bw.EffectiveGBs * 1e9)
		a := OpAnalysis{
			Name:       o.Name,
			FLOPs:      o.FLOPs(),
			Bytes:      mem,
			ComputeSec: compute,
			MemorySec:  memSec,
			Seconds:    maxF(compute, memSec),
			MemBound:   memSec > compute,
			Path:       path.Name,
			WeightSec:  float64(o.WeightBytes) / (bw.EffectiveGBs * 1e9),
			IOSec:      io / (bw.EffectiveGBs * 1e9),
		}
		if mem > 0 {
			a.Intensity = o.FLOPs() / mem
		}
		out = append(out, a)
	}
	return out, nil
}

// RenderAnalysis formats an op breakdown as a text table.
func RenderAnalysis(ops []OpAnalysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %8s %10s %10s %6s  %s\n",
		"op", "GFLOPs", "MB", "AI", "compute", "memory", "bound", "path")
	var total float64
	for _, o := range ops {
		bound := "comp"
		if o.MemBound {
			bound = "mem"
		}
		fmt.Fprintf(&b, "%-14s %10.2f %10.1f %8.1f %9.2fms %9.2fms %6s  %s\n",
			o.Name, o.FLOPs/1e9, o.Bytes/1e6, o.Intensity,
			o.ComputeSec*1e3, o.MemorySec*1e3, bound, o.Path)
		total += o.Seconds
	}
	fmt.Fprintf(&b, "total: %.2f ms\n", total*1e3)
	return b.String()
}
