package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/model"
	"repro/internal/tensor"
)

func runModelInfo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro modelinfo", flag.ContinueOnError)
	name := fs.String("model", "", "model preset (empty = all evaluated)")
	batch := fs.Int("batch", 1, "batch size for the workload columns")
	in := fs.Int("in", 128, "input length")
	out := fs.Int("out", 32, "output length")
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}
	models, err := parseModels(*name)
	if err != nil {
		return fail(stderr, "modelinfo", err)
	}

	fmt.Fprintf(stdout, "workload: batch=%d input=%d output=%d\n\n", *batch, *in, *out)
	fmt.Fprintf(stdout, "%-11s %7s %6s %6s %7s %6s | %9s %9s %9s | %12s %12s %14s\n",
		"model", "layers", "d", "heads", "dff", "kvdim",
		"params(B)", "BF16(GB)", "INT8(GB)",
		"prefillTF", "decodeGF/t", "KV@done(GiB)")
	for _, m := range models {
		kvDone := float64(m.KVCacheBytes(*in+*out, *batch, tensor.BF16)) / (1 << 30)
		fmt.Fprintf(stdout, "%-11s %7d %6d %6d %7d %6d | %9.2f %9.1f %9.1f | %12.2f %12.1f %14.2f\n",
			m.Name, m.Layers, m.DModel, m.Heads, m.DFF, m.KVDim(),
			float64(m.ParamCount())/1e9,
			float64(m.WeightBytes(tensor.BF16))/1e9,
			float64(m.WeightBytes(tensor.INT8))/1e9,
			m.PrefillFLOPs(*in, *batch)/1e12,
			m.DecodeStepFLOPs(*in, *batch)/1e9,
			kvDone)
	}
	fmt.Fprintln(stdout, "\nper-op work inventory (decode step, ctx=input):")
	if len(models) > 1 {
		return 0 // op dump only for a single model
	}
	for _, o := range models[0].Ops(model.Decode, *batch, 1, *in, tensor.BF16) {
		fmt.Fprintf(stdout, "  %-13s M=%-6d N=%-6d K=%-6d ×%-5d  %8.2f GFLOP  %8.1f MB  AI=%.2f\n",
			o.Name, o.M, o.N, o.K, o.Instances,
			o.FLOPs()/1e9, float64(o.Bytes())/1e6, o.ArithmeticIntensity())
	}
	return 0
}
