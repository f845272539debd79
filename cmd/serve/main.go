// Command serve runs the inference-serving simulator: a Poisson request
// trace against a platform under a batching policy, reporting queueing
// delay, TTFT/E2E (mean and p95), and sustained tokens/s.
//
// The trace is replayed through the discrete-event simulator
// (deterministic, instant). Its iteration-level policies run the very
// scheduler core the live gateway's lanes run (serve.Batch), so this is
// the production scheduler under a virtual clock; llmperfd serves it.
//
// Usage:
//
//	serve -platform spr -model LLaMA2-13B -policy continuous -rate 2 -n 64
//	serve -platform h100 -model OPT-66B -policy static -batch 16
//	serve -platform spr -model OPT-13B -policy chunked -n 64
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memsim"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workload"
)

// prefillChunk is the chunked policy's chunk size: the gateway's default.
const prefillChunk = 64

func main() {
	platform := flag.String("platform", "spr", "spr | icl | a100 | h100")
	modelName := flag.String("model", "LLaMA2-13B", "model preset")
	policy := flag.String("policy", "continuous", "fcfs | static | continuous | chunked")
	maxBatch := flag.Int("batch", 8, "maximum batch size")
	wait := flag.Float64("wait", 0.25, "static batching fill timeout (s)")
	rate := flag.Float64("rate", 1, "request arrival rate (req/s)")
	n := flag.Int("n", 32, "number of requests")
	seed := flag.Int64("seed", 1, "trace seed")
	flag.Parse()

	m, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	var cost serve.CostModel
	switch *platform {
	case "spr":
		cost = serve.NewCPUCost(core.SPRQuadFlat(48), m)
	case "icl":
		cost = serve.NewCPUCost(memsim.Config{CPU: hw.ICL8352Y, Cores: 32,
			Mem: memsim.DDROnly, Cluster: memsim.Quad}, m)
	case "a100":
		cost = serve.NewGPUCost(hw.A100, m)
	case "h100":
		cost = serve.NewGPUCost(hw.H100, m)
	default:
		fatal(fmt.Errorf("unknown platform %q", *platform))
	}

	gen := workload.NewGenerator(*seed)
	gen.ArrivalRate = *rate
	trace := gen.Trace(*n)

	var pol serve.Policy
	switch *policy {
	case "fcfs":
		pol = serve.FCFS
	case "static":
		pol = serve.Static
	case "continuous":
		pol = serve.Continuous
	case "chunked":
		pol = serve.Chunked
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}
	srv := serve.Server{Cost: cost, Policy: pol, MaxBatch: *maxBatch, BatchWait: *wait,
		PrefillChunk: prefillChunk}
	cs, err := srv.Run(trace)
	if err != nil {
		fatal(err)
	}
	sm := serve.Summarize(cs)
	fmt.Printf("served %d requests on %s/%s, policy=%s, max batch %d, rate %.2f req/s\n",
		sm.Count, *platform, m.Name, pol, *maxBatch, *rate)
	fmt.Printf("  queue wait : mean %.2fs\n", sm.MeanQueueWait)
	fmt.Printf("  TTFT       : mean %.2fs   p95 %.2fs\n", sm.MeanTTFT, sm.P95TTFT)
	fmt.Printf("  E2E        : mean %.2fs   p95 %.2fs\n", sm.MeanE2E, sm.P95E2E)
	fmt.Printf("  throughput : %.1f tokens/s (makespan %.1fs)\n",
		sm.TokensPerSecond, sm.Makespan)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "serve:", err)
	os.Exit(1)
}
