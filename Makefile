# Build, test and reproduction targets.

GO ?= go

.PHONY: all build vet fmt-check test check bench-build kernels-portable chaos chaos-cluster chaos-overload bench \
        bench-decode bench-decode-short bench-spec bench-spec-short bench-serving bench-serving-short bench-pairs figures \
        scorecard results-md wire-golden examples trace-demo memdemo stream-demo cluster-demo \
        cache-demo overload-demo loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt prints the files it would rewrite; any output fails.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Full pre-merge gate: vet plus the test suite under the race detector,
# and the benchmark harness still building against the internal API.
check: bench-build fmt-check
	$(GO) vet ./...
	$(GO) test -race ./...

# bench/ is its own module, outside `./...`: vet it and run its short
# tests so that an internal-API change which breaks the harness fails
# the PR instead of the next benchmark run.
bench-build:
	$(GO) -C bench vet ./...
	$(GO) -C bench test -short -count=1 ./...

# The packed GEMM and the vector ops around it (attention score and
# weighted-V, ReLU, adds, bf16 rounding) have amd64 routines at three
# levels (AVX2, AVX-512, AMX tiles) and portable Go loops. Keep the ones a host never
# selects from rotting: run the kernels tests — the op differentials
# included — at every level (-simd is clamped to what the runner has, so
# on a narrower host the upper runs repeat the widest one it supports), and
# build + vet (asmdecl included) for an architecture that has no routines
# (every .s symbol needs its !amd64 stub).
kernels-portable:
	for level in generic avx2 avx512 amx; do \
		$(GO) test -count=1 ./internal/kernels/ -args -simd=$$level || exit 1; \
	done
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/kernels/

# Chaos drills: fault injection, lane supervision, degraded-mode serving
# and KV memory-pressure governance (TestChaosMemPressure) under
# concurrent load, always with the race detector. The second run repeats
# the watchdog and inline-pricing tests, so an ordering race between
# arming a fault rule and a memo hit priced on the lane shows up.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/gateway/ ./internal/faults/
	$(GO) test -race -count=10 -run 'TestWatchdog|TestInline|TestMemo' ./internal/gateway/

# Cluster chaos drills: replica-down under 64 concurrent mixed
# streamed/buffered clients (exactly one outcome per request, no token
# delivered twice across failover, recovery after disarm), the flap
# drill, and the exactly-once property tests — under the race detector.
chaos-cluster:
	$(GO) test -race -count=1 -run 'TestClusterChaos|TestWrapSink|TestFailoverRescues' ./internal/cluster/

# End-to-end tracing demo: boot llmperfd, drive it with the llmperf load
# generator, print the server-side phase-breakdown table (parsed from
# Server-Timing headers) and a retained trace, then shut down. Fails
# without the table or without a trace in /v1/traces?limit=1.
TRACE_DEMO_ADDR ?= 127.0.0.1:18080
trace-demo:
	$(GO) build -o /tmp/llmperfd-demo ./cmd/llmperfd
	$(GO) build -o /tmp/llmperf-demo ./cmd/llmperf
	/tmp/llmperfd-demo -addr $(TRACE_DEMO_ADDR) -timescale 0.02 & \
	pid=$$!; sleep 1; \
	/tmp/llmperf-demo -url http://$(TRACE_DEMO_ADDR) -n 32 -concurrency 8 \
	    -model OPT-13B -in 128 -out 8 > /tmp/trace-demo.out; st=$$?; \
	cat /tmp/trace-demo.out; \
	grep -q 'server-side phase breakdown' /tmp/trace-demo.out \
	    || { echo "trace-demo FAILED: no server-side phase breakdown table"; st=1; }; \
	echo; echo "=== one retained trace ==="; \
	body=$$(curl -s "http://$(TRACE_DEMO_ADDR)/v1/traces?limit=1"); echo "$$body"; \
	echo "$$body" | grep -q '"count":1' \
	    || { echo "trace-demo FAILED: /v1/traces?limit=1 returned no trace"; st=1; }; \
	kill $$pid; wait $$pid 2>/dev/null; exit $$st

# KV-governance demo: boot llmperfd with a deliberately tiny KV budget
# (the 1 MiB request floors to 64 blocks = 1024 tokens), then overload it
# so the phase table shows preemption-by-recompute ("preempted" rows),
# the status counts show watermark shedding (HTTP 503), and the final
# /v1/debug/state + /readyz probes show the pool fully free and serving
# recovered. Fails unless /readyz answers 200 after the wave.
MEMDEMO_ADDR ?= 127.0.0.1:18081
memdemo:
	$(GO) build -o /tmp/llmperfd-memdemo ./cmd/llmperfd
	$(GO) build -o /tmp/llmperf-memdemo ./cmd/llmperf
	/tmp/llmperfd-memdemo -addr $(MEMDEMO_ADDR) -timescale 0.02 -kv-budget-mb 1 & \
	pid=$$!; sleep 1; \
	/tmp/llmperf-memdemo -url http://$(MEMDEMO_ADDR) -n 96 -concurrency 24 \
	    -model OPT-13B -in 128 -out 16; st=$$?; \
	echo; echo "=== KV governance after the wave ==="; \
	curl -s "http://$(MEMDEMO_ADDR)/v1/debug/state"; echo; \
	code=$$(curl -s -o /dev/null -w "%{http_code}" "http://$(MEMDEMO_ADDR)/readyz"); \
	echo "readyz: HTTP $$code"; \
	[ "$$code" = 200 ] || { echo "memdemo FAILED: /readyz is not 200 after the wave"; st=1; }; \
	kill $$pid; wait $$pid 2>/dev/null; exit $$st

# SSE streaming demo: boot llmperfd, drive it with llmperf's streaming
# client (client-side TTFT/ITL percentiles from live SSE chunks), show a
# raw curl -N stream, then scrape the first-token/ITL histograms the
# streaming path feeds into /metrics.
STREAM_DEMO_ADDR ?= 127.0.0.1:18082
stream-demo:
	$(GO) build -o /tmp/llmperfd-stream ./cmd/llmperfd
	$(GO) build -o /tmp/llmperf-stream ./cmd/llmperf
	/tmp/llmperfd-stream -addr $(STREAM_DEMO_ADDR) -timescale 0.02 & \
	pid=$$!; sleep 1; \
	/tmp/llmperf-stream -url http://$(STREAM_DEMO_ADDR) -stream -n 32 -concurrency 8 \
	    -model OPT-13B -in 128 -out 8; st=$$?; \
	echo; echo "=== raw SSE stream (curl -N) ==="; \
	curl -sN "http://$(STREAM_DEMO_ADDR)/v1/generate" -H 'Content-Type: application/json' \
	    -d '{"platform":"spr","model":"OPT-13B","in":32,"out":4,"stream":true}'; \
	echo "=== streaming metrics ==="; \
	curl -s "http://$(STREAM_DEMO_ADDR)/metrics" | \
	    grep -E '^gateway_(first_token_seconds|itl_seconds)_(count|sum)|^gateway_stream_tokens_total' \
	    || { echo "streaming metrics missing"; st=1; }; \
	kill $$pid; wait $$pid 2>/dev/null; exit $$st

# Cluster failover demo: boot 3 replicas behind the fault-tolerant
# router, run a clean wave (even replica spread), kill r1 mid-load via
# the faults admin endpoint (the wave shows failovers rescuing requests
# routed at the dead replica), then disarm and verify /v1/debug/state
# reports all 3 replicas in state "healthy" again (the "healthy" count
# there includes half-open replicas, so it cannot see a stuck trial; only
# replica entries carry a "state" key).
CLUSTER_DEMO_ADDR ?= 127.0.0.1:18083
cluster-demo:
	$(GO) build -o /tmp/llmperfd-cluster ./cmd/llmperfd
	$(GO) build -o /tmp/llmperf-cluster ./cmd/llmperf
	/tmp/llmperfd-cluster -addr $(CLUSTER_DEMO_ADDR) -timescale 0.02 \
	    -replicas 3 -route round-robin -probe-interval 50ms -retry-budget 64 & \
	pid=$$!; sleep 1; \
	echo "=== clean wave: even replica spread ==="; \
	/tmp/llmperf-cluster -url http://$(CLUSTER_DEMO_ADDR) -n 48 -concurrency 8 \
	    -model OPT-13B -in 128 -out 8; st=$$?; \
	echo; echo "=== killing replica r1 mid-load ==="; \
	( sleep 0.15; curl -s -X POST "http://$(CLUSTER_DEMO_ADDR)/v1/admin/faults" \
	    -H 'Content-Type: application/json' \
	    -d '{"rules":[{"class":"replica-down","site":"replica","lane":"r1"}]}' >/dev/null ) & \
	armpid=$$!; \
	/tmp/llmperf-cluster -url http://$(CLUSTER_DEMO_ADDR) -n 256 -concurrency 16 \
	    -model OPT-13B -in 128 -out 8 || true; \
	wait $$armpid; \
	echo; echo "=== cluster status with r1 down ==="; \
	curl -s "http://$(CLUSTER_DEMO_ADDR)/v1/debug/state"; echo; \
	echo "=== disarming: r1 recovers through half-open probing ==="; \
	curl -s -X DELETE "http://$(CLUSTER_DEMO_ADDR)/v1/admin/faults" >/dev/null; \
	sleep 1; \
	/tmp/llmperf-cluster -url http://$(CLUSTER_DEMO_ADDR) -n 48 -concurrency 8 \
	    -model OPT-13B -in 128 -out 8 || st=1; \
	healthy=$$(curl -s "http://$(CLUSTER_DEMO_ADDR)/v1/debug/state" \
	    | grep -o '"state":"[a-z-]*"' | grep -c '"state":"healthy"'); \
	[ "$$healthy" = 3 ] \
	    && echo "recovery: all 3 replicas healthy" \
	    || { echo "recovery FAILED: $$healthy of 3 replicas in state healthy"; st=1; }; \
	kill $$pid; wait $$pid 2>/dev/null; exit $$st

# Prefix-cache demo: boot llmperfd with the radix KV cache on, replay a
# multi-turn chatbot trace twice (cache off, flush, cache on) with
# llmperf's chat mode, and assert the cache actually pays: the A/B
# prefill_reduction line must clear 30% (the issue's acceptance floor)
# and the cache section of the server's /v1/debug/state must report hits.
CACHE_DEMO_ADDR ?= 127.0.0.1:18084
cache-demo:
	$(GO) build -o /tmp/llmperfd-cache ./cmd/llmperfd
	$(GO) build -o /tmp/llmperf-cache ./cmd/llmperf
	/tmp/llmperfd-cache -addr $(CACHE_DEMO_ADDR) -timescale 0.02 & \
	pid=$$!; sleep 1; \
	/tmp/llmperf-cache -url http://$(CACHE_DEMO_ADDR) -chat-sessions 6 -chat-turns 4 \
	    -system-tokens 512 -model OPT-13B -in 64 -out 32 -concurrency 4 \
	    | tee /tmp/cache-demo.out; st=$$?; \
	red=$$(grep -o 'prefill_reduction=[0-9.]*' /tmp/cache-demo.out | cut -d= -f2); \
	if [ -z "$$red" ]; then echo "cache-demo FAILED: no prefill_reduction line"; st=1; \
	elif ! awk "BEGIN{exit !($$red >= 30)}"; then \
	    echo "cache-demo FAILED: prefill reduction $$red% below the 30% floor"; st=1; \
	else echo "cache-demo: prefill reduction $$red% clears the 30% floor"; fi; \
	echo "=== /v1/debug/state ==="; \
	curl -s "http://$(CACHE_DEMO_ADDR)/v1/debug/state"; echo; \
	curl -s "http://$(CACHE_DEMO_ADDR)/v1/debug/state" | grep -q '"cache":{.*"hits":' \
	    || { echo "cache-demo FAILED: /v1/debug/state reports no cache hit counters"; st=1; }; \
	kill $$pid; wait $$pid 2>/dev/null; exit $$st

# Overload chaos drill: a standing load-spike at 2× saturation under 64
# mixed-class clients — interactive goodput must survive while batch is
# shed class-ordered, and the brownout ladder must walk back to nominal
# after disarm — under the race detector.
chaos-overload:
	$(GO) test -race -count=1 -run 'TestChaosOverload' ./internal/gateway/

# Overload-control demo: an A/B load ramp past saturation. With overload
# control on (the default), llmperf's 3-class ramp at 2× offered load
# must keep interactive p99 TTFT inside the SLO and interactive goodput
# at >= 85% of its peak; with -overload=false the same ramp on the
# class-blind FIFO baseline must collapse below 50% — the gap is the
# tentpole's measurable win.
OVERLOAD_DEMO_ADDR ?= 127.0.0.1:18085
overload-demo:
	$(GO) build -o /tmp/llmperfd-overload ./cmd/llmperfd
	$(GO) build -o /tmp/llmperf-overload ./cmd/llmperf
	@echo "=== A: overload control ON ==="; \
	/tmp/llmperfd-overload -addr $(OVERLOAD_DEMO_ADDR) -timescale 0.02 & \
	pid=$$!; sleep 1; \
	/tmp/llmperf-overload -url http://$(OVERLOAD_DEMO_ADDR) -ramp \
	    -concurrency 8 -model OPT-13B -in 128 -out 8 \
	    | tee /tmp/overload-demo-on.out; st=$$?; \
	echo "=== /v1/debug/state after the ramp ==="; \
	curl -s "http://$(OVERLOAD_DEMO_ADDR)/v1/debug/state"; echo; \
	kill $$pid; wait $$pid 2>/dev/null; \
	echo; echo "=== B: overload control OFF (class-blind baseline) ==="; \
	/tmp/llmperfd-overload -addr $(OVERLOAD_DEMO_ADDR) -timescale 0.02 -overload=false & \
	pid=$$!; sleep 1; \
	/tmp/llmperf-overload -url http://$(OVERLOAD_DEMO_ADDR) -ramp \
	    -concurrency 8 -model OPT-13B -in 128 -out 8 \
	    | tee /tmp/overload-demo-off.out || st=1; \
	kill $$pid; wait $$pid 2>/dev/null; \
	on=$$(grep -o 'interactive_goodput_ratio=[0-9]*' /tmp/overload-demo-on.out | cut -d= -f2); \
	off=$$(grep -o 'interactive_goodput_ratio=[0-9]*' /tmp/overload-demo-off.out | cut -d= -f2); \
	slo=$$(grep -o 'interactive_slo_ok=[01]' /tmp/overload-demo-on.out | cut -d= -f2); \
	echo; echo "overload-demo: goodput ratio ON=$$on% OFF=$$off% (SLO held: $$slo)"; \
	if [ -z "$$on" ] || [ -z "$$off" ]; then echo "overload-demo FAILED: missing summary lines"; st=1; \
	elif [ "$$slo" != "1" ]; then echo "overload-demo FAILED: interactive p99 TTFT busted the SLO at 2x"; st=1; \
	elif ! awk "BEGIN{exit !($$on >= 85)}"; then echo "overload-demo FAILED: ratio $$on% below the 85% floor with overload on"; st=1; \
	elif ! awk "BEGIN{exit !($$off < 50)}"; then echo "overload-demo FAILED: baseline ratio $$off% did not collapse below 50%"; st=1; \
	else echo "overload-demo: interactive goodput held at $$on% of peak under 2x load (baseline $$off%)"; fi; \
	exit $$st

# The decode sweep, which rewrites the perf trajectory artifact
# BENCH_decode.json, then the layer benchmarks inside internal/. The
# paper's tables and figures are RESULTS.md's (`make results-md`), not a
# benchmark's.
bench: bench-decode
	$(GO) test -run '^$$' -bench=. -benchmem ./internal/...

# This host's measured roofline (STREAM triad GB/s, and a GFLOP/s ceiling
# per instruction mix the SIMD level can issue), the decode-shape kernel
# sweep against it (packed Go loop | the level below the host's | packed
# SIMD + pool, GFLOP/s and GB/s each, all three timed in the same
# interleaved rounds), the vector op sweep (Go loop | SIMD), the
# operator-class breakdown of two decode steps and of a prefill on OPT and
# GQA LLaMA (the engine's own class clocks), and tiny-engine decode tok/s
# by batch. Writes BENCH_decode.json; fails if a kernel point reads above
# 105 % of its mix's ceiling, if a SIMD op is slower than its Go loop or
# if a step leaves more than 10 % of its time to no class, and notes a
# SIMD level slower than the one below it on an M >= 4 row.
bench-decode:
	$(GO) run ./cmd/gemmbench -json BENCH_decode.json

# CI-sized variant: smaller shapes, fewer reps, the same checks, and a
# SIMD level slower than the one below it fails the run. Its JSON goes
# under the gitignored .bench_build/ so the committed full-size artifact
# is not overwritten.
bench-decode-short:
	mkdir -p .bench_build
	$(GO) run ./cmd/gemmbench -short -json .bench_build/BENCH_decode.json

# Speculative decoding sweep: measured draft+verify vs fused greedy
# baseline across kernel tiers and acceptance rates, bit-identity asserted
# per point. Writes BENCH_specdec.json. What speculation gains on the
# paper's memory-bound CPU is specdec.Run's, held to >= 1.5x (BF16 tile
# tier, batch 1) by `go test ./internal/specdec`.
bench-spec:
	$(GO) run ./cmd/gemmbench -spec -json BENCH_specdec.json

# CI-sized variant: one kernel tier, one acceptance rate, the same
# bit-identity check; JSON under .bench_build/.
bench-spec-short:
	mkdir -p .bench_build
	$(GO) run ./cmd/gemmbench -spec -short -json .bench_build/BENCH_specdec.json

# The base commit bench-serving and bench-pairs compare this checkout
# with, checked out in a git worktree under .bench_build/.
REV ?= HEAD~1

# Serving-path layer baselines: one decode iteration of a live lane
# (batch 1 and 8, traced and untraced), the API's feed -> SSE relay per
# token, Tree.Stats and Lease.Grow with 2048 blocks cached, and one
# 64-token trace added and finished. Both sides in one session
# (scripts/benchserving.sh): five alternating `go test -count 1` rounds
# of REV and of this checkout, whose medians are BENCH_serving.json's
# `before` and `after` rows.
bench-serving:
	bash scripts/benchserving.sh $(REV) 5 BENCH_serving.json

# CI-sized variant: one round of each side at a fixed, small iteration
# count; JSON under .bench_build/. Fails if a benchmark fails or none ran,
# or if one allocates more per op than its committed `after` row. CI runs
# it with REV=HEAD, as a shallow checkout has no HEAD~1.
bench-serving-short:
	bash scripts/benchserving.sh $(REV) 1 .bench_build/BENCH_serving.json -short

# The repository benchmark in N alternating pairs, SECONDS each, of
# workload W on commit REV and on this checkout: per end-to-end metric,
# each side's median and quartiles, the change, the pairs won and the gain
# rule. Fails if a run is not correct.
W ?= engine-decode
N ?= 10
SECONDS ?= 30
bench-pairs:
	bash scripts/benchpairs.sh $(REV) $(W) $(N) $(SECONDS)

# Regenerate every table and figure of the evaluation as text.
figures:
	$(GO) run ./cmd/repro figures

# PASS/FAIL report over every tracked paper claim.
scorecard:
	$(GO) run ./cmd/repro scorecard

# The one way to regenerate RESULTS.md (its body below the header) and the
# recorded `repro` outputs under cmd/repro/testdata/ after a deliberate
# model or hardware-constant change; `go test` holds both byte for byte.
results-md:
	$(GO) test ./internal/experiments ./cmd/repro -run Golden -update

# The one way to regenerate the wire golden (every generation surface's
# status, headers and body, the error envelopes, /v1/simulate and
# /v1/platforms), the exported trace record and the recorded llmperf /
# serve outputs after a deliberate API, trace or CLI change; `go test`
# holds each byte for byte.
wire-golden:
	$(GO) test ./internal/api ./internal/trace ./cmd/llmperf ./cmd/serve -run Golden -update

# Non-test Go and assembly lines outside bench/ (and outside hidden
# directories such as .bench_build/), per package directory, then the
# totals: the count the net-negative LOC goal is kept in, the same way in
# every change.
loc:
	@find . -path './.*' -prune -o -path ./bench -prune -o -type f \
	    \( -name '*.s' -o -name '*.go' ! -name '*_test.go' \) -print | xargs wc -l | \
	awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); dirs[d] = 1; \
	        if ($$2 ~ /\.s$$/) { asm[d] += $$1; ta += $$1 } else { go[d] += $$1; tg += $$1 } } \
	    END { printf "%7s %6s  %s\n", "go", "asm", "package"; \
	        for (d in dirs) printf "%7d %6d  %s\n", go[d], asm[d], substr(d, 3) | "sort -k3"; \
	        close("sort -k3"); printf "%7d %6d  total\n", tg, ta }'

examples:
	for ex in quickstart chatbot batch_analytics numa_tuning capacity_planner \
	          serving_policies offload_trace speculative streaming; do \
		echo "=== $$ex ==="; $(GO) run ./examples/$$ex || exit 1; \
	done

clean:
	$(GO) clean ./...
