// Command llmperf simulates one LLM-inference point on a modeled platform
// and prints the paper's metrics (TTFT, TPOT, E2E latency, tokens/s) plus
// emulated hardware counters for CPU runs. With -url it instead acts as an
// HTTP load generator against a running llmperfd gateway, reporting
// client-side latency percentiles and per-status counts.
//
// In load-generator mode, -stream switches to SSE streaming requests and
// reports client-side TTFT and inter-token-latency percentiles, and -ramp
// calibrates the server's capacity then sweeps offered load through
// multiples of it with a mixed interactive/standard/batch class mix,
// reporting per-class SLO-conditioned goodput (the overload-control A/B
// harness behind `make overload-demo`).
//
// Usage:
//
//	llmperf -platform spr -model OPT-30B -batch 4
//	llmperf -platform h100 -model OPT-66B -in 512 -out 32
//	llmperf -platform spr -cores 96 -cluster snc -memmode cache -model LLaMA2-13B
//	llmperf -url http://localhost:8080 -n 128 -concurrency 16 -model OPT-13B
//	llmperf -url http://localhost:8080 -stream -platform tiny-opt -n 32
//	llmperf -url http://localhost:8080 -ramp -platform tiny-opt -ramp-steps 0.5,1,2
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is one llmperf invocation: it parses args, writes the report to
// stdout and returns the exit code (0 after -h, 2 for a bad flag, 1 for a
// failed run, with the error on stderr).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platform := fs.String("platform", "spr", "platform registry key: "+strings.Join(hw.PlatformKeys(), " | "))
	modelName := fs.String("model", "OPT-13B", "model preset (see README)")
	batch := fs.Int("batch", 1, "batch size")
	in := fs.Int("in", 128, "input (prompt) length")
	out := fs.Int("out", 32, "output (generation) length")
	cores := fs.Int("cores", 0, "active CPU cores (CPU platforms; 0 = one full socket, the paper's configuration)")
	memmode := fs.String("memmode", "", "HBM memory mode (CPU platforms; empty = flat, which is DDR-only on a CPU without HBM; an unknown name lists the valid ones)")
	cluster := fs.String("cluster", "", "clustering mode (CPU platforms; empty = quad; an unknown name lists the valid ones)")
	showOps := fs.Bool("ops", false, "print the per-operator roofline breakdown (CPU platforms)")
	traceOut := fs.String("trace", "", "write a Chrome trace JSON of one offloaded decode step to this file (GPU platforms)")
	url := fs.String("url", "", "load-generator mode: base URL of a running llmperfd (e.g. http://localhost:8080)")
	n := fs.Int("n", 64, "load generator: total requests")
	concurrency := fs.Int("concurrency", 8, "load generator: concurrent clients")
	stream := fs.Bool("stream", false, "load generator: use SSE streaming and report client-side TTFT/ITL percentiles")
	ramp := fs.Bool("ramp", false, "load generator: sweep offered load past saturation with a 3-class mix and report per-class goodput (overload-control drill)")
	rampSteps := fs.String("ramp-steps", "0.5,1,2", "ramp: comma-separated offered-load multipliers of calibrated capacity")
	rampStep := fs.Duration("ramp-step-duration", 6*time.Second, "ramp: duration of the calibration phase and each open-loop step")
	rampSLO := fs.Float64("ramp-slo-ttft-ms", 500, "ramp: interactive TTFT SLO (ms) that conditions interactive goodput")
	chatSessions := fs.Int("chat-sessions", 0, "load generator: replay a multi-turn chatbot trace with this many sessions and A/B the prefix cache (0 = off)")
	chatTurns := fs.Int("chat-turns", 4, "load generator: turns per chat session")
	systemTokens := fs.Int("system-tokens", 512, "load generator: shared system-prompt tokens per chat session")
	seed := fs.Int64("seed", 1, "load generator: workload seed for the chat trace")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *url != "" {
		if *concurrency < 1 {
			return fail(stderr, fmt.Errorf("concurrency must be positive"))
		}
		r := newRunner(*url, *platform, *modelName, *concurrency)
		switch {
		case *ramp:
			if err := loadRamp(stdout, r, *in, *out, *rampSteps, *rampStep, *rampSLO); err != nil {
				return fail(stderr, err)
			}
		case *chatSessions > 0:
			loadChat(stdout, r, *in, *out, *chatSessions, *chatTurns, *systemTokens, *seed)
		default:
			r.load(stdout, request{In: *in, Out: *out, Stream: *stream}, *n)
		}
		return 0
	}

	m, err := core.ModelByName(*modelName)
	if err != nil {
		return fail(stderr, err)
	}
	t, err := core.Resolve(*platform, *cores, *memmode, *cluster)
	if err != nil {
		return fail(stderr, err)
	}
	res, err := t.Simulate(m, *batch, *in, *out)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintln(stdout, res)
	if t.Entry.Kind == hw.CPUPlatform {
		c := res.Counters
		fmt.Fprintf(stdout, "counters: LLC MPKI=%.1f core-util=%.2f UPI-util=%.2f remote-LLC=%.3g\n",
			c.LLCMPKI, c.CoreUtilization, c.UPIUtilization, c.RemoteLLCAccess)
		if *showOps {
			cpu := perfmodel.CPURun{Model: m, Setup: t.Setup, Batch: *batch,
				InputLen: *in, OutputLen: *out, Weights: tensor.BF16}
			pre, err := cpu.Analyze(model.Prefill, *in, 0)
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintln(stdout, "\nprefill roofline:")
			fmt.Fprint(stdout, perfmodel.RenderAnalysis(pre))
			dec, err := cpu.Analyze(model.Decode, 1, *in)
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintln(stdout, "\ndecode-step roofline:")
			fmt.Fprint(stdout, perfmodel.RenderAnalysis(dec))
		}
		return 0
	}
	if res.TransferSeconds > 0 {
		fmt.Fprintf(stdout, "offloading: %.0f%% of time on PCIe data loading (Fig 18 metric)\n",
			res.PCIeFraction()*100)
	}
	if *traceOut != "" {
		if res.TransferSeconds == 0 {
			return fail(stderr, fmt.Errorf("-trace requires an offloaded run (model fits resident)"))
		}
		gpu := offload.Run{GPU: *t.Entry.GPU, Host: hw.SPRMax9468, Model: m,
			Batch: *batch, InputLen: *in, OutputLen: *out, Weights: tensor.BF16}
		tl, err := gpu.Trace(model.Decode, *in)
		if err != nil {
			return fail(stderr, err)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		if err := tl.WriteChromeTrace(f); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote Chrome trace of one decode step to %s (open in chrome://tracing)\n", *traceOut)
	}
	return 0
}

// fail reports a failed run on stderr and returns its exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "llmperf:", err)
	return 1
}
