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
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/offload"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
	"repro/internal/trace"
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
		switch {
		case *ramp:
			if err := loadRamp(stdout, *url, *platform, *modelName, *in, *out, *concurrency,
				*rampSteps, *rampStep, *rampSLO); err != nil {
				return fail(stderr, err)
			}
		case *chatSessions > 0:
			loadChat(stdout, *url, *platform, *modelName, *in, *out, *chatSessions, *chatTurns, *systemTokens, *concurrency, *seed)
		case *stream:
			loadStream(stdout, *url, *platform, *modelName, *in, *out, *n, *concurrency)
		default:
			loadGenerate(stdout, *url, *platform, *modelName, *in, *out, *n, *concurrency)
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

// loadGenerate drives n POST /v1/generate requests at the given base URL
// with the requested client concurrency, then reports client-side wall
// latency percentiles and a count per HTTP status.
func loadGenerate(stdout io.Writer, base, platform, modelName string, in, out, n, concurrency int) {
	body, _ := json.Marshal(map[string]any{ // strings and ints always marshal
		"platform": platform, "model": modelName, "in": in, "out": out})
	endpoint := base + "/v1/generate"
	client := &http.Client{Timeout: 5 * time.Minute}

	var (
		mu        sync.Mutex
		latencies []float64
		statuses  = map[int]int{}
		netErrs   int
		// phases accumulates per-phase server-side seconds parsed from each
		// 200 response's Server-Timing header, keyed by phase name.
		phases = map[string][]float64{}
		// replicas counts 200s per serving replica (X-Replica-ID), and
		// failovers/hedged tally the cluster's rescue work (X-Failovers,
		// X-Hedged) — all empty against a single-gateway llmperfd.
		replicas  = map[string]int{}
		failovers int
		hedged    int
		// spec accumulates speculation totals from X-Speculation headers;
		// silent when the server never advertises speculation.
		spec specStats
	)
	jobs := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				t0 := time.Now()
				resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
				lat := time.Since(t0).Seconds()
				mu.Lock()
				if err != nil {
					netErrs++
				} else {
					statuses[resp.StatusCode]++
					if resp.StatusCode == http.StatusOK {
						latencies = append(latencies, lat)
						// ParseServerTiming yields milliseconds (the header's
						// dur unit); the breakdown table reports seconds.
						for name, ms := range trace.ParseServerTiming(resp.Header.Get("Server-Timing")) {
							phases[name] = append(phases[name], ms/1e3)
						}
						if id := resp.Header.Get("X-Replica-ID"); id != "" {
							replicas[id]++
						}
						if f, err := strconv.Atoi(resp.Header.Get("X-Failovers")); err == nil {
							failovers += f
						}
						if resp.Header.Get("X-Hedged") == "true" {
							hedged++
						}
						spec.observe(resp.Header.Get("X-Speculation"))
					}
					resp.Body.Close()
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start).Seconds()

	fmt.Fprintf(stdout, "load: %d requests to %s (%s/%s in=%d out=%d), %d clients, %.2fs wall\n",
		n, endpoint, platform, modelName, in, out, concurrency, wall)
	var codes []int
	for c := range statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(stdout, "  HTTP %d    : %d\n", c, statuses[c])
	}
	if netErrs > 0 {
		fmt.Fprintf(stdout, "  transport  : %d errors\n", netErrs)
	}
	if len(latencies) > 0 {
		sort.Float64s(latencies)
		fmt.Fprintf(stdout, "  latency    : p50 %.3fs   p95 %.3fs   p99 %.3fs (client wall)\n",
			quantileSorted(latencies, 0.50), quantileSorted(latencies, 0.95), quantileSorted(latencies, 0.99))
		fmt.Fprintf(stdout, "  throughput : %.1f req/s completed\n", float64(len(latencies))/wall)
	}
	printReplicaDistribution(stdout, replicas, failovers, hedged)
	printPhaseBreakdown(stdout, phases)
	spec.print(stdout)
}

// specStats accumulates the server's speculative-decoding outcomes from
// X-Speculation headers ("on;proposed=N;accepted=N;passes=N" / "off").
type specStats struct {
	on, off                    int
	proposed, accepted, passes int
}

func (s *specStats) observe(header string) {
	if header == "" {
		return
	}
	fields := strings.Split(header, ";")
	if fields[0] != "on" {
		s.off++
		return
	}
	s.on++
	for _, f := range fields[1:] {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		v, err := strconv.Atoi(val)
		if err != nil {
			continue
		}
		switch name {
		case "proposed":
			s.proposed += v
		case "accepted":
			s.accepted += v
		case "passes":
			s.passes += v
		}
	}
}

// print renders the speculation section of the report: how much of the
// decode work the draft proposed, how much the target accepted, and the
// verification passes it cost. Silent when the server never sent
// X-Speculation (no draft model configured).
func (s *specStats) print(stdout io.Writer) {
	if s.on+s.off == 0 {
		return
	}
	fmt.Fprintln(stdout, "  speculation (X-Speculation):")
	fmt.Fprintf(stdout, "    requests     : %d speculative, %d plain\n", s.on, s.off)
	if s.passes == 0 {
		return
	}
	fmt.Fprintf(stdout, "    acceptance   : %.1f%% (%d of %d proposed)\n",
		100*float64(s.accepted)/float64(max(s.proposed, 1)), s.accepted, s.proposed)
	fmt.Fprintf(stdout, "    accepted run : %.2f tokens mean per verify pass\n",
		float64(s.accepted)/float64(s.passes))
	fmt.Fprintf(stdout, "    verify passes: %d (%.2f per speculative request)\n",
		s.passes, float64(s.passes)/float64(max(s.on, 1)))
}

// printReplicaDistribution renders how a clustered llmperfd spread the
// load and how much failover/hedging it took to serve it; silent when
// the server never sent X-Replica-ID (single-gateway mode).
func printReplicaDistribution(stdout io.Writer, replicas map[string]int, failovers, hedged int) {
	if len(replicas) == 0 {
		return
	}
	total := 0
	var ids []string
	for id, c := range replicas {
		ids = append(ids, id)
		total += c
	}
	sort.Strings(ids)
	fmt.Fprintln(stdout, "  replica distribution:")
	for _, id := range ids {
		fmt.Fprintf(stdout, "    %-10s %6d (%.0f%%)\n", id, replicas[id],
			100*float64(replicas[id])/float64(total))
	}
	if failovers > 0 || hedged > 0 {
		fmt.Fprintf(stdout, "  failovers  : %d rescued requests, %d hedge wins\n", failovers, hedged)
	}
}

// loadStream drives n streaming POST /v1/generate requests and reports
// the two latencies a streaming user actually perceives (§II-C): TTFT —
// request start to the first SSE token chunk — and ITL, the gap between
// consecutive chunks, both measured at the client.
func loadStream(stdout io.Writer, base, platform, modelName string, in, out, n, concurrency int) {
	body, _ := json.Marshal(map[string]any{ // strings, ints and bools always marshal
		"platform": platform, "model": modelName, "in": in, "out": out,
		"stream": true})
	endpoint := base + "/v1/generate"
	// No overall client timeout: a stream is alive as long as chunks flow.
	client := &http.Client{}

	var (
		mu       sync.Mutex
		ttfts    []float64
		itls     []float64
		e2es     []float64
		tokens   int
		statuses = map[int]int{}
		netErrs  int
		aborted  int // streams that ended without data: [DONE]
		// Cluster attribution from the terminal generate.result event
		// (streams commit their headers long before the serving replica
		// is known, so it travels in-band).
		replicas  = map[string]int{}
		failovers int
		hedged    int
		// spec accumulates speculation totals from the terminal event's
		// in-band "speculation" field (same format as X-Speculation).
		spec specStats
	)
	jobs := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				t0 := time.Now()
				resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					netErrs++
					mu.Unlock()
					continue
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					mu.Lock()
					statuses[resp.StatusCode]++
					mu.Unlock()
					continue
				}
				var reqTTFT float64
				var reqITLs []float64
				var reqReplica string
				var reqFailovers int
				var reqHedged bool
				var reqSpec string
				reqTokens, done := 0, false
				last := t0
				sc := bufio.NewScanner(resp.Body)
				sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
				for sc.Scan() {
					data, ok := strings.CutPrefix(sc.Text(), "data: ")
					if !ok {
						continue // blank separator lines
					}
					if data == "[DONE]" {
						done = true
						break
					}
					var ev struct {
						Object      string `json:"object"`
						Replica     string `json:"replica"`
						Failovers   int    `json:"failovers"`
						Hedged      bool   `json:"hedged"`
						Speculation string `json:"speculation"`
					}
					if json.Unmarshal([]byte(data), &ev) != nil || ev.Object != "generate.token" {
						if ev.Object == "generate.result" {
							reqReplica, reqFailovers, reqHedged = ev.Replica, ev.Failovers, ev.Hedged
							reqSpec = ev.Speculation
						}
						continue // terminal result event, or error envelope
					}
					now := time.Now()
					if reqTokens == 0 {
						reqTTFT = now.Sub(t0).Seconds()
					} else {
						reqITLs = append(reqITLs, now.Sub(last).Seconds())
					}
					last = now
					reqTokens++
				}
				resp.Body.Close()
				mu.Lock()
				statuses[resp.StatusCode]++
				if reqTokens > 0 {
					ttfts = append(ttfts, reqTTFT)
					itls = append(itls, reqITLs...)
					e2es = append(e2es, time.Since(t0).Seconds())
					tokens += reqTokens
				}
				if reqReplica != "" {
					replicas[reqReplica]++
					failovers += reqFailovers
					if reqHedged {
						hedged++
					}
				}
				spec.observe(reqSpec)
				if !done {
					aborted++
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- struct{}{}
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start).Seconds()

	fmt.Fprintf(stdout, "stream: %d requests to %s (%s/%s in=%d out=%d), %d clients, %.2fs wall\n",
		n, endpoint, platform, modelName, in, out, concurrency, wall)
	var codes []int
	for c := range statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(stdout, "  HTTP %d    : %d\n", c, statuses[c])
	}
	if netErrs > 0 {
		fmt.Fprintf(stdout, "  transport  : %d errors\n", netErrs)
	}
	if aborted > 0 {
		fmt.Fprintf(stdout, "  aborted    : %d streams ended without [DONE]\n", aborted)
	}
	if len(ttfts) > 0 {
		sort.Float64s(ttfts)
		fmt.Fprintf(stdout, "  TTFT       : p50 %.3fs   p95 %.3fs   p99 %.3fs (client wall)\n",
			quantileSorted(ttfts, 0.50), quantileSorted(ttfts, 0.95), quantileSorted(ttfts, 0.99))
	}
	if len(itls) > 0 {
		sort.Float64s(itls)
		fmt.Fprintf(stdout, "  ITL        : p50 %.1fms   p95 %.1fms   p99 %.1fms (inter-token)\n",
			quantileSorted(itls, 0.50)*1e3, quantileSorted(itls, 0.95)*1e3, quantileSorted(itls, 0.99)*1e3)
	}
	if len(e2es) > 0 {
		sort.Float64s(e2es)
		fmt.Fprintf(stdout, "  E2E        : p50 %.3fs   p95 %.3fs   p99 %.3fs\n",
			quantileSorted(e2es, 0.50), quantileSorted(e2es, 0.95), quantileSorted(e2es, 0.99))
		fmt.Fprintf(stdout, "  throughput : %.1f tok/s streamed, %.1f req/s completed\n",
			float64(tokens)/wall, float64(len(e2es))/wall)
	}
	printReplicaDistribution(stdout, replicas, failovers, hedged)
	spec.print(stdout)
}

// printPhaseBreakdown renders the server-side phase percentiles collected
// from Server-Timing headers: where each request's residence time went
// (queueing, batch formation, prefill, decode, ...), as the gateway saw it.
func printPhaseBreakdown(stdout io.Writer, phases map[string][]float64) {
	if len(phases) == 0 {
		return
	}
	var names []string
	seen := map[string]bool{}
	for _, name := range trace.PhaseOrder {
		if _, ok := phases[name]; ok {
			names = append(names, name)
			seen[name] = true
		}
	}
	var rest []string
	for name := range phases {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	names = append(names, rest...)

	fmt.Fprintln(stdout, "  server-side phase breakdown (Server-Timing):")
	fmt.Fprintf(stdout, "    %-12s %8s %10s %10s %10s\n", "phase", "n", "p50", "p95", "p99")
	for _, name := range names {
		xs := phases[name]
		sort.Float64s(xs)
		fmt.Fprintf(stdout, "    %-12s %8d %9.3fs %9.3fs %9.3fs\n", name, len(xs),
			quantileSorted(xs, 0.50), quantileSorted(xs, 0.95), quantileSorted(xs, 0.99))
	}
}

// quantileSorted returns the p-quantile of an ascending-sorted slice.
func quantileSorted(xs []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx]
}

// fail reports a failed run on stderr and returns its exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "llmperf:", err)
	return 1
}
