package main

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/autotune"
	"repro/internal/model"
)

func runAutotune(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro autotune", flag.ContinueOnError)
	modelName := fs.String("model", "LLaMA2-13B", "model preset")
	objective := fs.String("objective", "e2e", "e2e | throughput | ttft")
	batch := fs.Int("batch", 0, "pin the batch size (0 = search 1..32)")
	in := fs.Int("in", 128, "input length")
	out := fs.Int("out", 32, "output length")
	maxTTFT := fs.Float64("max-ttft", 0, "TTFT budget in seconds (0 = none)")
	maxTPOT := fs.Float64("max-tpot", 0, "TPOT budget in seconds (0 = none)")
	top := fs.Int("top", 8, "show the N best candidates")
	if code, done := parseFlags(fs, args, stderr); done {
		return code
	}

	m, err := model.ByName(*modelName)
	if err != nil {
		return fail(stderr, "autotune", err)
	}
	var obj autotune.Objective
	switch *objective {
	case "e2e":
		obj = autotune.MinE2ELatency
	case "throughput":
		obj = autotune.MaxThroughput
	case "ttft":
		obj = autotune.MinTTFT
	default:
		return fail(stderr, "autotune", fmt.Errorf("unknown objective %q", *objective))
	}

	cands, err := autotune.Tune(autotune.DefaultSpace(), autotune.Request{
		Model: m, InputLen: *in, OutputLen: *out,
		Objective:   obj,
		Constraints: autotune.Constraints{MaxTTFTSeconds: *maxTTFT, MaxTPOTSeconds: *maxTPOT},
		FixedBatch:  *batch,
	})
	if err != nil {
		return fail(stderr, "autotune", err)
	}

	fmt.Fprintf(stdout, "tuning %s for %s (in=%d out=%d), %d feasible configurations\n\n",
		m.Name, obj, *in, *out, len(cands))
	fmt.Fprintf(stdout, "%-22s %10s %10s %10s %12s\n",
		"configuration", "TTFT (ms)", "TPOT (ms)", "E2E (s)", "tokens/s")
	for i, c := range cands {
		if i >= *top {
			break
		}
		marker := " "
		if i == 0 {
			marker = "→"
		}
		fmt.Fprintf(stdout, "%s %-20s %10.0f %10.1f %10.2f %12.1f\n",
			marker, c.Name(),
			c.Result.Latency.TTFT*1e3, c.Result.Latency.TPOT*1e3,
			c.Result.Latency.E2E, c.Result.Throughput.E2E)
	}
	return 0
}
