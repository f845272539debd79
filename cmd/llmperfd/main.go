// Command llmperfd serves the simulator over HTTP as a JSON API. All
// requests flow through the serving gateway: a bounded admission queue,
// a worker pool running continuous or chunked batching, per-request
// phase tracing at /v1/traces, and Prometheus metrics at /metrics.
// SIGINT/SIGTERM drains in-flight requests before exiting.
//
// Usage:
//
//	llmperfd -addr :8080 -queue 256 -max-batch 8 -policy continuous -workers 4
//	curl -X POST localhost:8080/v1/simulate -H 'Content-Type: application/json' \
//	    -d '{"platform":"spr","model":"OPT-30B","batch":4}'
//	curl -X POST localhost:8080/v1/generate -H 'Content-Type: application/json' \
//	    -d '{"platform":"spr","model":"OPT-13B"}'
//	curl 'localhost:8080/v1/traces?id=<trace_id>'
//	curl 'localhost:8080/metrics'
//
// Observability knobs (see docs/observability.md): -trace-sample sets the
// retention fraction for ok traces, -trace-out appends one JSON line per
// retained trace, -log-level picks the slog threshold on stderr, and
// -debug-addr exposes net/http/pprof on a private listener.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers on DefaultServeMux, served only by -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	queue := flag.Int("queue", 256, "admission queue bound (excess requests get 429)")
	maxBatch := flag.Int("max-batch", 8, "maximum tokens batched per scheduler iteration")
	policy := flag.String("policy", "continuous", "batching policy: continuous | chunked")
	chunk := flag.Int("chunk", 64, "prefill chunk size (chunked policy)")
	workers := flag.Int("workers", 4, "concurrent scheduler lanes")
	timescale := flag.Float64("timescale", 0, "wall seconds slept per modeled second (0 = as fast as possible)")
	drainWait := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "hard shutdown ceiling: force-exit nonzero if drain exceeds this")
	faultSeed := flag.Int64("fault-seed", 1, "deterministic seed for the fault injector")
	faultSpec := flag.String("fault-spec", "", "arm fault rules at boot, e.g. 'panic@lane:every=50;latency@cost.decode:p=0.05,delay=20ms' (see docs/resilience.md)")
	kvGovern := flag.Bool("kv-govern", true, "govern per-lane KV memory: budgeted admission, preemption, watermark shedding")
	kvMode := flag.String("kv-mode", "optimistic", "KV admission mode: optimistic (prompt-only, preempt on exhaustion) | conservative (reserve in+out)")
	kvBlock := flag.Int("kv-block", govern.DefaultBlockSize, "KV pool block size in tokens")
	kvBudgetMB := flag.Int("kv-budget-mb", 0, "override every lane's KV budget in MiB (0 = derive from the platform's memory minus weights)")
	kvQuota := flag.Int("kv-quota-tokens", 0, "per-client in-flight KV token quota, keyed by X-Client-ID (0 = unlimited)")
	kvCache := flag.Bool("kv-cache", true, "prefix-aware radix KV cache: requests sharing a prompt prefix skip its prefill (requires -kv-govern)")
	kvHigh := flag.Float64("kv-high", 0.95, "KV utilization high watermark: shed new work (503) at or above it")
	kvLow := flag.Float64("kv-low", 0.75, "KV utilization low watermark: stop shedding at or below it")
	draftModel := flag.String("draft-model", "", "draft model name enabling speculative decoding (e.g. OPT-1.3B; tiny-* lanes use a built-in 1-layer draft)")
	specK := flag.Int("spec-k", 4, "max draft proposal length per speculation cycle (requires -draft-model)")
	specAccept := flag.Float64("spec-accept", 0.8, "modeled per-token draft acceptance rate α (requires -draft-model)")
	overloadCtl := flag.Bool("overload", true, "overload control: SLO-class admission priorities, adaptive concurrency limiting, brownout degradation ladder")
	sloInteractive := flag.Duration("slo-interactive-ttft", 500*time.Millisecond, "interactive-class TTFT SLO target for the adaptive limiter")
	sloStandard := flag.Duration("slo-standard-ttft", 2*time.Second, "standard-class TTFT SLO target for the adaptive limiter")
	sloBatch := flag.Duration("slo-batch-ttft", 10*time.Second, "batch-class TTFT SLO target for the adaptive limiter")
	brownoutUp := flag.Duration("brownout-step-up", 250*time.Millisecond, "sustained pressure required before the brownout ladder climbs one rung")
	brownoutDown := flag.Duration("brownout-step-down", time.Second, "sustained calm required before the brownout ladder descends one rung")
	brownoutCap := flag.Int("brownout-batch-cap", 16, "max_tokens cap applied to batch-class requests at brownout level 2+ (finish_reason \"brownout\")")
	replicas := flag.Int("replicas", 1, "in-process gateway replicas behind the fault-tolerant router (>1 enables cluster mode)")
	route := flag.String("route", "round-robin", "cluster routing policy: round-robin | least-loaded | weighted")
	probeInterval := flag.Duration("probe-interval", 100*time.Millisecond, "cluster health-check period")
	failoverMax := flag.Int("failover-max", 2, "max re-dispatch attempts per request beyond the first (cluster mode)")
	retryBudget := flag.Int("retry-budget", 8, "per-client failover tokens per 10s window, -1 = unlimited (cluster mode)")
	hedgeAfter := flag.Duration("hedge-after", 0, "hedge short non-streamed requests on a second replica after this delay (0 = off)")
	traceSample := flag.Float64("trace-sample", 1, "fraction of ok traces retained for /v1/traces (errored and degraded requests are always kept)")
	traceOut := flag.String("trace-out", "", "append one JSON line per retained trace to this file")
	logLevel := flag.String("log-level", "info", "stderr log threshold: debug | info | warn | error")
	debugAddr := flag.String("debug-addr", "", "private listen address for net/http/pprof (empty = disabled)")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "llmperfd: -log-level: %v\n", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var pol gateway.Policy
	switch *policy {
	case "continuous":
		pol = gateway.Continuous
	case "chunked":
		pol = gateway.Chunked
	default:
		fmt.Fprintf(os.Stderr, "llmperfd: unknown policy %q (want continuous or chunked)\n", *policy)
		os.Exit(2)
	}

	inj := faults.New(*faultSeed)
	if *faultSpec != "" {
		rules, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmperfd: -fault-spec: %v\n", err)
			os.Exit(2)
		}
		if err := inj.Arm(rules...); err != nil {
			fmt.Fprintf(os.Stderr, "llmperfd: -fault-spec: %v\n", err)
			os.Exit(2)
		}
	}

	reg := metrics.NewRegistry()
	traceCfg := trace.Config{SampleRate: *traceSample, Registry: reg}
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmperfd: -trace-out: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		traceCfg.Output = f
	}

	var gov *govern.Governor
	if *kvGovern {
		switch *kvMode {
		case "optimistic", "conservative":
		default:
			fmt.Fprintf(os.Stderr, "llmperfd: unknown -kv-mode %q (want optimistic or conservative)\n", *kvMode)
			os.Exit(2)
		}
		gov = govern.New(govern.Config{
			Specs:         api.PoolSpecResolver(*kvBlock, int64(*kvBudgetMB)<<20),
			Conservative:  *kvMode == "conservative",
			HighWatermark: *kvHigh,
			LowWatermark:  *kvLow,
			QuotaTokens:   *kvQuota,
			EnableCache:   *kvCache,
			Registry:      reg,
		})
	}

	// Speculative decoding: -draft-model switches lanes to the speculation-
	// capable resolver and arms the gateway's cycle scheduler. The draft
	// name is validated at boot so a typo fails fast instead of breaking
	// every analytic lane at its first request (tiny-* lanes use a built-in
	// one-layer draft and ignore the name).
	laneResolver := api.LaneResolver()
	var specCfg *gateway.SpecConfig
	if *draftModel != "" {
		if _, err := core.ModelByName(*draftModel); err != nil {
			fmt.Fprintf(os.Stderr, "llmperfd: -draft-model: %v\n", err)
			os.Exit(2)
		}
		if *specK < 1 {
			fmt.Fprintf(os.Stderr, "llmperfd: -spec-k must be at least 1, got %d\n", *specK)
			os.Exit(2)
		}
		if *specAccept <= 0 || *specAccept > 1 {
			fmt.Fprintf(os.Stderr, "llmperfd: -spec-accept must be in (0, 1], got %g\n", *specAccept)
			os.Exit(2)
		}
		laneResolver = api.SpecLaneResolver(*draftModel)
		specCfg = &gateway.SpecConfig{
			Lookahead:  *specK,
			Acceptance: *specAccept,
			Seed:       *faultSeed,
		}
	}

	tracer := trace.New(traceCfg)
	// newGateway builds one gateway instance; cluster mode calls it once
	// per replica (each with its own lanes and KV governor, sharing the
	// registry, tracer, logger and fault injector), single mode once.
	newGateway := func(id string) *gateway.Gateway {
		g := gov
		if *kvGovern && *replicas > 1 {
			// Each replica governs its own KV pools; sharing one governor
			// would double-count admissions across independent lanes.
			g = govern.New(govern.Config{
				Specs:         api.PoolSpecResolver(*kvBlock, int64(*kvBudgetMB)<<20),
				Conservative:  *kvMode == "conservative",
				HighWatermark: *kvHigh,
				LowWatermark:  *kvLow,
				QuotaTokens:   *kvQuota,
				EnableCache:   *kvCache,
				Registry:      reg,
			})
		}
		var oc *overload.Config
		if *overloadCtl {
			oc = &overload.Config{
				InteractiveTTFT: *sloInteractive,
				StandardTTFT:    *sloStandard,
				BatchTTFT:       *sloBatch,
				StepUp:          *brownoutUp,
				StepDown:        *brownoutDown,
				BatchTokenCap:   *brownoutCap,
			}
		}
		return gateway.New(gateway.Config{
			MaxQueue:     *queue,
			MaxBatch:     *maxBatch,
			Policy:       pol,
			PrefillChunk: *chunk,
			Workers:      *workers,
			Timescale:    *timescale,
			Injector:     inj,
			Governor:     g,
			Overload:     oc,
			Spec:         specCfg,
			Fallback:     api.FallbackResolver(),
			Registry:     reg,
			Tracer:       tracer,
			Logger:       logger.With("replica", id),
		}, laneResolver)
	}

	var backend api.Backend
	if *replicas > 1 {
		routePolicy, err := cluster.ParsePolicy(*route)
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmperfd: -route: %v\n", err)
			os.Exit(2)
		}
		router, err := cluster.New(cluster.Config{
			Replicas:      *replicas,
			Factory:       func(id string) (*gateway.Gateway, error) { return newGateway(id), nil },
			Policy:        routePolicy,
			Registry:      reg,
			Tracer:        tracer,
			Logger:        logger,
			Injector:      inj,
			ProbeInterval: *probeInterval,
			MaxFailovers:  *failoverMax,
			RetryBudget:   *retryBudget,
			HedgeAfter:    *hedgeAfter,
			Seed:          *faultSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "llmperfd: cluster: %v\n", err)
			os.Exit(2)
		}
		backend = router
	} else {
		backend = newGateway("r0")
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.NewServer(backend).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	if *debugAddr != "" {
		// net/http/pprof registered itself on DefaultServeMux at import;
		// serve that mux on a separate private listener so profiling never
		// rides the public API address.
		go func() {
			dbg := &http.Server{Addr: *debugAddr, ReadHeaderTimeout: 5 * time.Second}
			logger.Info("llmperfd: pprof listening", "addr", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil {
				logger.Error("llmperfd: pprof listener failed", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	kvDesc := "off"
	if *kvGovern {
		kvDesc = *kvMode
		if *kvCache {
			kvDesc += "+cache"
		}
	}
	topo := "single"
	if *replicas > 1 {
		topo = fmt.Sprintf("%d replicas, %s routing", *replicas, *route)
	}
	overloadDesc := "off"
	if *overloadCtl {
		overloadDesc = "on"
	}
	specDesc := "off"
	if specCfg != nil {
		specDesc = fmt.Sprintf("%s,k=%d,accept=%g", *draftModel, *specK, *specAccept)
	}
	fmt.Printf("llmperfd listening on %s (queue=%d batch=%d policy=%s workers=%d trace-sample=%g kv=%s overload=%s spec=%s cluster=%s)\n",
		*addr, *queue, *maxBatch, pol, *workers, *traceSample, kvDesc, overloadDesc, specDesc, topo)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "llmperfd:", err)
		os.Exit(1)
	case sig := <-sigCh:
		fmt.Printf("llmperfd: %v, draining (up to %v)\n", sig, *drainWait)
	}

	// Hard ceiling: if graceful drain wedges (a stalled lane, a hung
	// connection), force the process down rather than hanging forever.
	forceExit := time.AfterFunc(*drainTimeout, func() {
		fmt.Fprintf(os.Stderr, "llmperfd: drain exceeded -drain-timeout %v, forcing exit\n", *drainTimeout)
		os.Exit(1)
	})
	defer forceExit.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := backend.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "llmperfd: gateway drain:", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "llmperfd: http shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("llmperfd: drained cleanly")
}
