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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/workload"
)

// prefillChunk is the chunked policy's chunk size: the gateway's default.
const prefillChunk = 64

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is one serve invocation: it parses args, writes the report to
// stdout and returns the exit code (0 after -h, 2 for a bad flag, 1 for a
// failed run, with the error on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platform := fs.String("platform", "spr", "platform registry key, in its paper configuration: "+strings.Join(hw.PlatformKeys(), " | "))
	modelName := fs.String("model", "LLaMA2-13B", "model preset")
	policy := fs.String("policy", "continuous", "fcfs | static | continuous | chunked")
	maxBatch := fs.Int("batch", 8, "maximum batch size")
	wait := fs.Float64("wait", 0.25, "static batching fill timeout (s)")
	rate := fs.Float64("rate", 1, "request arrival rate (req/s)")
	n := fs.Int("n", 32, "number of requests")
	seed := fs.Int64("seed", 1, "trace seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	m, err := model.ByName(*modelName)
	if err != nil {
		return fail(stderr, err)
	}
	t, err := core.Resolve(*platform, 0, "", "")
	if err != nil {
		return fail(stderr, err)
	}
	var cost serve.CostModel
	if t.Entry.Kind == hw.GPUPlatform {
		cost = serve.NewGPUCost(*t.Entry.GPU, m)
	} else {
		cost = serve.NewCPUCost(t.Setup, m)
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
		return fail(stderr, fmt.Errorf("unknown policy %q", *policy))
	}
	srv := serve.Server{Cost: cost, Policy: pol, MaxBatch: *maxBatch, BatchWait: *wait,
		PrefillChunk: prefillChunk}
	cs, err := srv.Run(trace)
	if err != nil {
		return fail(stderr, err)
	}
	sm := serve.Summarize(cs)
	fmt.Fprintf(stdout, "served %d requests on %s/%s, policy=%s, max batch %d, rate %.2f req/s\n",
		sm.Count, *platform, m.Name, pol, *maxBatch, *rate)
	fmt.Fprintf(stdout, "  queue wait : mean %.2fs\n", sm.MeanQueueWait)
	fmt.Fprintf(stdout, "  TTFT       : mean %.2fs   p95 %.2fs\n", sm.MeanTTFT, sm.P95TTFT)
	fmt.Fprintf(stdout, "  E2E        : mean %.2fs   p95 %.2fs\n", sm.MeanE2E, sm.P95E2E)
	fmt.Fprintf(stdout, "  throughput : %.1f tokens/s (makespan %.1fs)\n",
		sm.TokensPerSecond, sm.Makespan)
	return 0
}

// fail reports a failed run on stderr and returns its exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "serve:", err)
	return 1
}
