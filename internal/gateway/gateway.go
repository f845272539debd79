// Package gateway is the serving layer between the HTTP API and the
// engine/simulator substrates: a production-shaped request scheduler with
// admission control in front of the priced (or measured) inference
// iterations.
//
// Requests enter through Generate (token-generation jobs batched per
// lane) or Do (unary calculator jobs such as one-shot simulations). Both
// paths share a bounded queue: when it is full, submissions are rejected
// immediately with ErrQueueFull, which the API layer maps to HTTP 429 —
// backpressure instead of unbounded buffering (the paper's serving
// context, §II-C/§VII).
//
// Generation jobs are grouped into lanes keyed by (platform, model,
// configuration). Each lane owns a serve.CostModel and runs Orca-style
// continuous batching — optionally Sarathi-style chunked prefill — at
// iteration granularity: waiting requests join when slots free, leave the
// moment their last token is produced, and every iteration advances the
// lane's virtual clock by the modeled (or engine-measured) cost. A worker
// pool bounds how many lanes execute concurrently.
//
// Every request carries a context.Context: cancellation or deadline
// expiry removes it from the queue, or evicts it from its batch at the
// next iteration boundary. Shutdown stops admission and drains in-flight
// work. All activity is observable through a metrics.Registry: queue
// depth, admission rejects, TTFT/TPOT/E2E histograms, batch-size
// distribution, and live in-flight gauges.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/govern"
	"repro/internal/metrics"
	"repro/internal/overload"
	"repro/internal/prefixcache"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Sentinel errors the API layer maps to HTTP statuses.
var (
	// ErrQueueFull rejects a submission when the bounded queue is at
	// capacity (HTTP 429).
	ErrQueueFull = errors.New("gateway: queue full")
	// ErrDraining rejects submissions arriving after Shutdown began
	// (HTTP 503).
	ErrDraining = errors.New("gateway: draining")
	// ErrClassShed rejects a request shed class-ordered by overload
	// control: a queued lower-priority victim evicted so a higher class
	// could admit, or a batch-class submission refused at the top
	// brownout rung (HTTP 503).
	ErrClassShed = errors.New("gateway: shed by overload control")
	// ErrConcurrencyLimited rejects a submission the adaptive
	// concurrency limiter cannot fit right now: observed TTFT is busting
	// SLO targets, so the front door closes before the queue or the KV
	// watermark would (HTTP 429).
	ErrConcurrencyLimited = errors.New("gateway: adaptive concurrency limit reached")
	// ErrDeadlineUnmeetable rejects a queued request at dequeue when its
	// propagated deadline can no longer be met by the recently observed
	// TTFT — no prefill compute is burned on doomed work (HTTP 504).
	ErrDeadlineUnmeetable = errors.New("gateway: deadline can no longer be met")
)

// Policy selects the lane batching discipline.
type Policy int

const (
	// Continuous is Orca-style iteration-level batching: an arriving
	// request's whole prefill runs as one iteration.
	Continuous Policy = iota
	// Chunked is Sarathi-style chunked prefill: prompt pieces coalesce
	// with the decode batch, bounding inter-token stalls.
	Chunked
)

// String names the policy.
func (p Policy) String() string {
	if p == Chunked {
		return "chunked"
	}
	return "continuous"
}

// Config tunes the gateway.
type Config struct {
	// MaxQueue bounds requests waiting for execution across all lanes
	// and the unary pool; submissions beyond it get ErrQueueFull.
	// Default 256.
	MaxQueue int
	// MaxBatch is the per-lane in-flight sequence limit. Default 8.
	MaxBatch int
	// Policy selects continuous or chunked-prefill batching.
	Policy Policy
	// PrefillChunk is the chunk size (tokens) under the Chunked policy.
	// Default 64.
	PrefillChunk int
	// Workers bounds concurrently executing lanes plus unary jobs.
	// Default 4.
	Workers int
	// Timescale, when positive, makes lanes sleep iterationCost ×
	// Timescale after each iteration so wall-clock behavior tracks the
	// modeled time (useful for live demos and load tests). 0 runs
	// iterations back-to-back.
	Timescale float64
	// Registry receives the gateway's instruments; a private registry is
	// created when nil.
	Registry *metrics.Registry

	// Fallback resolves a degraded-mode cost model for a lane, used when
	// the lane's circuit breaker is open (e.g. the analytic model behind
	// an engine-measured lane). Returning (nil, nil) means no fallback
	// for that lane. Nil disables degraded mode entirely.
	Fallback Resolver
	// Injector, when non-nil, is consulted at the gateway's injection
	// sites ("lane", "cost.prefill", "cost.decode", "govern.kv") so chaos
	// scenarios can be driven deterministically. Nil disables fault
	// injection.
	Injector *faults.Injector
	// Governor, when non-nil, places every lane under a finite KV-memory
	// budget: block reservations at admission, per-token growth and
	// preemption-by-recompute under optimistic mode, watermark load
	// shedding, and per-client token quotas. Nil serves ungoverned.
	Governor *govern.Governor
	// Overload, when non-nil, enables SLO-class overload control
	// (internal/overload): class-priority queueing and shedding, the
	// AIMD adaptive concurrency limiter gating admission ahead of the KV
	// watermark, deadline-aware queue eviction, and the brownout
	// degradation ladder. Nil serves with the legacy blunt backpressure
	// (queue-full 429s and watermark 503s only).
	Overload *overload.Config
	// SaturationWindow is how long the admission queue must stay at
	// capacity before the gateway reports itself saturated (flipping
	// /readyz and the cluster shedding signal). Default 500ms.
	SaturationWindow time.Duration
	// Spec, when non-nil, enables draft-assisted speculative decoding on
	// lanes whose cost model implements serve.SpecCostModel (spec.go):
	// decode iterations become speculation cycles — k draft steps plus
	// one fused verification pass — committing the accepted run through
	// the exactly-once token path. Lanes whose model cannot price a draft
	// decode plainly; nil disables speculation everywhere.
	Spec *SpecConfig

	// Tracer records per-request phase spans. When nil a default tracer
	// is created over Registry (sample rate 1), so traces are always
	// available; requests without a Trace still skip span recording.
	Tracer *trace.Tracer
	// Logger receives structured gateway events (panics, quarantines,
	// breaker transitions, requeues), correlated by lane and trace ID.
	// Nil discards them.
	Logger *slog.Logger

	// CrashLimit quarantines a lane after this many recovered panics
	// inside CrashWindow. Default 3.
	CrashLimit int
	// CrashWindow is the sliding window for counting lane crashes.
	// Default 30s.
	CrashWindow time.Duration
	// QuarantinePeriod is how long a quarantined lane rejects
	// submissions before it may serve again. Default 10s.
	QuarantinePeriod time.Duration
	// RestartBackoff and RestartBackoffMax bound the exponential backoff
	// between lane restarts after a recovered panic. Defaults 10ms / 1s.
	RestartBackoff    time.Duration
	RestartBackoffMax time.Duration
	// WatchdogBudget is the wall-clock deadline for one priced call
	// (prefill or decode); an overrunning batch is cancelled and
	// requeued. Default 10s; negative disables the watchdog.
	WatchdogBudget time.Duration
	// MaxRequeues bounds how often one job may be requeued by the
	// watchdog before it fails. Default 2; negative disables requeueing.
	MaxRequeues int
	// BreakerThreshold is the consecutive primary-cost-model failures
	// that open a lane's circuit breaker. Default 3.
	BreakerThreshold int
	// BreakerOpenPeriod is the cool-off before an open breaker lets a
	// half-open probe through. Default 5s.
	BreakerOpenPeriod time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.PrefillChunk <= 0 {
		c.PrefillChunk = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = trace.New(trace.Config{SampleRate: 1, Registry: c.Registry})
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.CrashLimit <= 0 {
		c.CrashLimit = 3
	}
	if c.CrashWindow <= 0 {
		c.CrashWindow = 30 * time.Second
	}
	if c.QuarantinePeriod <= 0 {
		c.QuarantinePeriod = 10 * time.Second
	}
	if c.RestartBackoff <= 0 {
		c.RestartBackoff = 10 * time.Millisecond
	}
	if c.RestartBackoffMax <= 0 {
		c.RestartBackoffMax = time.Second
	}
	if c.WatchdogBudget == 0 {
		c.WatchdogBudget = 10 * time.Second
	}
	if c.MaxRequeues == 0 {
		c.MaxRequeues = 2
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerOpenPeriod <= 0 {
		c.BreakerOpenPeriod = 5 * time.Second
	}
	if c.SaturationWindow <= 0 {
		c.SaturationWindow = 500 * time.Millisecond
	}
	return c
}

// Request is one generation job.
type Request struct {
	// Lane groups requests that may batch together (same platform,
	// model and configuration). The gateway resolves its cost model
	// through the resolver given to New.
	Lane string
	// InputLen and OutputLen are the prompt and generation lengths.
	InputLen, OutputLen int
	// Client identifies the submitting tenant for per-client KV token
	// quotas (the API layer fills it from X-Client-ID, falling back to
	// the remote address). Empty means anonymous.
	Client string
	// Class is the request's SLO class ("interactive", "standard" or
	// "batch"; empty means standard). The overload layer keys admission
	// priority, limiter shares and brownout shedding on it, and the
	// cluster router's SLO-weighted policy steers on it. The API layer
	// fills it from the validated `priority` body field / X-SLO-Class
	// header; unrecognized values are treated as standard.
	Class string
	// Trace, when non-nil, receives the request's phase spans (queue
	// wait, batching, prefill, per-token decode, pricing) as the
	// scheduler moves it through the lane. The caller owns Finish.
	Trace *trace.Trace
	// Sink, when non-nil, receives one TokenEvent per output token as the
	// scheduler produces it — the transport feeding SSE streaming. It is
	// called from the lane goroutine and must not block (see TokenSink).
	Sink TokenSink
	// Prefix describes the prompt as hashable segments for the prefix
	// cache (internal/prefixcache): requests whose segment lists agree
	// share cached KV blocks and skip prefill for the matched prefix.
	// Empty means the request is unmatchable (and donates nothing).
	Prefix []prefixcache.Segment
	// CacheDisabled opts this request out of prefix-cache lookup and
	// donation (the API's "cache":{"enabled":false}).
	CacheDisabled bool
	// MinPrefixTokens discards cache matches shorter than this many
	// tokens (the API's "cache":{"min_prefix_tokens":N}).
	MinPrefixTokens int
	// SpecDisabled opts this request out of speculative decoding (the
	// API's "speculation":{"enabled":false}); its sequences commit one
	// token per cycle even when the lane speculates.
	SpecDisabled bool
	// SpecLookahead, when positive, caps the draft proposal length for
	// this request's sequences below the lane's adaptive k (the API's
	// "speculation":{"lookahead":N}). 0 means the lane default.
	SpecLookahead int
}

// Result reports one served request. Queue and wall times are measured
// in real time; TTFT/TPOT/E2E are the lane's virtual (modeled or
// engine-measured) service times, excluding queueing.
type Result struct {
	Lane             string  `json:"lane"`
	InputLen         int     `json:"input_len"`
	OutputLen        int     `json:"output_len"`
	QueueSeconds     float64 `json:"queue_s"`
	TTFTSeconds      float64 `json:"ttft_s"`
	TPOTSeconds      float64 `json:"tpot_s"`
	E2ESeconds       float64 `json:"e2e_s"`
	WallSeconds      float64 `json:"wall_s"`
	BatchAtAdmission int     `json:"batch_at_admission"`
	TokensPerSecond  float64 `json:"tokens_per_second"`
	// Degraded marks a request served (wholly or partly) by the lane's
	// fallback cost model because the primary was failing or its
	// breaker was open.
	Degraded bool `json:"degraded,omitempty"`
	// TraceID identifies the request's trace when one was recorded; its
	// full phase timeline is served by GET /v1/traces?id=.
	TraceID string `json:"trace_id,omitempty"`
	// FinishReason is set to "brownout" when the brownout ladder capped
	// this request's output length (batch class at LevelCapBatch and
	// above); the OpenAI-shaped endpoints surface it as finish_reason.
	FinishReason string `json:"finish_reason,omitempty"`

	// Cluster attribution, filled by the cluster router (internal/cluster)
	// when the request was served through a multi-replica front end; a
	// single-gateway deployment leaves them zero. Replica is the ID of the
	// replica that produced the result, Failovers counts dispatch attempts
	// beyond the first, and Hedged marks a result raced against (and won
	// over) a hedged duplicate.
	Replica   string `json:"replica,omitempty"`
	Failovers int    `json:"failovers,omitempty"`
	Hedged    bool   `json:"hedged,omitempty"`

	// Prefix-cache attribution. CachedTokens counts prompt tokens whose
	// KV was adopted from the lane's prefix cache (prefill skipped);
	// PrefillSavedSeconds is the prefill model-seconds the hit saved per
	// the platform cost model at the request's actual batch size.
	CachedTokens        int     `json:"cached_tokens"`
	PrefillSavedSeconds float64 `json:"prefill_saved_s,omitempty"`

	// Speculative-decoding attribution (spec.go), zero when the lane
	// never speculated for this request: SpecProposed/SpecAccepted count
	// draft-proposed tokens and those the verification kept, and
	// SpecPasses counts fused verification passes the request rode
	// (plain greedy decoding would need one pass per token). The API
	// layer surfaces them as the X-Speculation header and in the
	// terminal SSE event.
	SpecProposed int `json:"spec_proposed,omitempty"`
	SpecAccepted int `json:"spec_accepted,omitempty"`
	SpecPasses   int `json:"spec_passes,omitempty"`
}

// Resolver builds the cost model for a lane key on first use.
type Resolver func(lane string) (serve.CostModel, error)

// instruments is the gateway's metric set.
type instruments struct {
	admitted, rejected, canceled *metrics.Counter
	completed, failed, iters     *metrics.Counter
	queueDepth, inflight, lanes  *metrics.Gauge
	queueWait, ttft, tpot, e2e   *metrics.Histogram
	wall, batchSize              *metrics.Histogram

	// Streaming instruments (stream.go): wall-clock first-token latency,
	// inter-token latency, and tokens delivered to sinks.
	firstToken, itl *metrics.Histogram
	streamTokens    *metrics.Counter

	// Resilience instruments (supervisor.go, memory.go).
	panics, restarts, quarantines      *metrics.Counter
	watchdogTimeouts, requeued         *metrics.Counter
	preempted                          *metrics.Counter
	degraded, degradedIters            *metrics.Counter
	breakerOpened, breakerClosed       *metrics.Counter
	quarantinedLanes, breakerOpenLanes *metrics.Gauge

	// Prefix-cache instruments (memory.go, lane.go).
	cacheHits, cacheMisses *metrics.Counter
	cacheTokens            *metrics.Counter
	cacheSaved             *metrics.Histogram

	// Overload-control instruments (overload.go).
	classShed, deadlineEvicted, brownoutCapped *metrics.Counter

	// Speculative-decoding instruments (spec.go).
	specCycles, specProposed, specAccepted *metrics.Counter
	specSuspended                          *metrics.Counter
}

func newInstruments(r *metrics.Registry) instruments {
	lat := metrics.LatencyBuckets()
	return instruments{
		admitted:   r.Counter("gateway_admitted_total", "requests admitted to the queue"),
		rejected:   r.Counter("gateway_rejected_total", "requests rejected by admission control (429)"),
		canceled:   r.Counter("gateway_canceled_total", "requests canceled or expired before completion"),
		completed:  r.Counter("gateway_completed_total", "requests completed successfully"),
		failed:     r.Counter("gateway_failed_total", "requests failed in execution"),
		iters:      r.Counter("gateway_iterations_total", "scheduler iterations executed"),
		queueDepth: r.Gauge("gateway_queue_depth", "requests waiting for execution"),
		inflight:   r.Gauge("gateway_inflight", "sequences being decoded plus running unary jobs"),
		lanes:      r.Gauge("gateway_active_lanes", "lanes currently executing"),
		queueWait:  r.Histogram("gateway_queue_wait_seconds", "real time from submission to execution start", lat),
		ttft:       r.Histogram("gateway_ttft_seconds", "modeled time to first token", lat),
		tpot:       r.Histogram("gateway_tpot_seconds", "modeled time per output token", lat),
		e2e:        r.Histogram("gateway_e2e_seconds", "modeled request service time", lat),
		wall:       r.Histogram("gateway_wall_seconds", "real time from submission to completion", lat),
		batchSize:  r.Histogram("gateway_batch_size", "sequences per decode iteration", metrics.LinearBuckets(1, 1, 32)),

		// Token-level latencies need finer buckets than LatencyBuckets:
		// without a timescale an iteration is microseconds of wall time.
		firstToken:   r.Histogram("gateway_first_token_seconds", "real time from submission to first emitted token", metrics.ExponentialBuckets(1e-6, 2, 27)),
		itl:          r.Histogram("gateway_itl_seconds", "real time between consecutive emitted tokens (inter-token latency)", metrics.ExponentialBuckets(1e-6, 2, 27)),
		streamTokens: r.Counter("gateway_stream_tokens_total", "tokens delivered to per-request token sinks"),

		panics:           r.Counter("gateway_lane_panics_total", "lane worker panics recovered by the supervisor"),
		restarts:         r.Counter("gateway_lane_restarts_total", "lane restarts after recovered panics"),
		quarantines:      r.Counter("gateway_lane_quarantines_total", "lanes quarantined after repeated crashes"),
		watchdogTimeouts: r.Counter("gateway_watchdog_timeouts_total", "priced calls cancelled by the iteration watchdog"),
		requeued:         r.Counter("gateway_requeued_total", "requests requeued after a watchdog cancellation"),
		preempted:        r.Counter("gateway_preempted_total", "sequences preempted on KV exhaustion and requeued for recompute"),
		degraded:         r.Counter("gateway_degraded_total", "requests completed in degraded mode (fallback cost model)"),
		degradedIters:    r.Counter("gateway_degraded_iterations_total", "iterations priced by a fallback cost model"),
		breakerOpened:    r.Counter("gateway_breaker_opened_total", "lane circuit breakers tripped closed to open"),
		breakerClosed:    r.Counter("gateway_breaker_closed_total", "lane circuit breakers recovered to closed"),
		quarantinedLanes: r.Gauge("gateway_quarantined_lanes", "lanes currently quarantined"),
		breakerOpenLanes: r.Gauge("gateway_breaker_open_lanes", "lanes whose circuit breaker is open or half-open"),

		cacheHits:   r.Counter("gateway_cache_hits_total", "admissions whose prompt prefix was served from the KV prefix cache"),
		cacheMisses: r.Counter("gateway_cache_misses_total", "cache-eligible admissions that found no usable prefix"),
		cacheTokens: r.Counter("gateway_cache_cached_tokens_total", "prompt tokens served from the prefix cache instead of prefill"),
		cacheSaved:  r.Histogram("gateway_cache_prefill_saved_seconds", "prefill model-seconds saved per cache-hit request", lat),

		classShed:       r.Counter("gateway_class_shed_total", "requests shed class-ordered by overload control (queued victims evicted or batch refused under brownout)"),
		deadlineEvicted: r.Counter("gateway_deadline_evicted_total", "queued requests evicted at dequeue because their deadline could no longer be met"),
		brownoutCapped:  r.Counter("gateway_brownout_capped_total", "batch-class requests whose output length was capped by the brownout ladder"),

		specCycles:    r.Counter("gateway_spec_cycles_total", "speculative decode cycles executed (k draft steps + one fused verification pass)"),
		specProposed:  r.Counter("gateway_spec_proposed_total", "draft-proposed tokens across speculative cycles"),
		specAccepted:  r.Counter("gateway_spec_accepted_total", "draft-proposed tokens the verification pass accepted"),
		specSuspended: r.Counter("gateway_spec_suspended_total", "decode iterations where speculation was suspended (brownout rung, open breaker, or degraded pricing)"),
	}
}

// Gateway schedules requests onto batching lanes with admission control.
type Gateway struct {
	cfg     Config
	resolve Resolver
	inj     *faults.Injector
	gov     *govern.Governor
	ctl     *overload.Controller // nil when overload control is off
	tracer  *trace.Tracer
	log     *slog.Logger
	m       instruments

	slots chan struct{} // worker-pool tokens

	mu       sync.Mutex
	lanes    map[string]*lane
	waiting  int // jobs admitted but not yet executing (queue depth)
	draining bool
	// satSince anchors sustained queue saturation: set when the queue
	// reaches capacity, cleared when it drains below half (overload.go).
	satSince time.Time
	wg       sync.WaitGroup // lane goroutines and unary jobs

	// Drain-rate estimator feeding Retry-After hints (guarded by mu).
	retryAt        time.Time
	retryCompleted uint64
	retryRate      float64 // completions per second, smoothed
}

// New returns a gateway using resolve to build lane cost models.
func New(cfg Config, resolve Resolver) *Gateway {
	cfg = cfg.withDefaults()
	if cfg.Injector != nil {
		cfg.Injector.Instrument(cfg.Registry)
	}
	var ctl *overload.Controller
	if cfg.Overload != nil {
		oc := *cfg.Overload
		if oc.Registry == nil {
			oc.Registry = cfg.Registry
		}
		ctl = overload.New(oc)
	}
	return &Gateway{
		cfg:     cfg,
		resolve: resolve,
		inj:     cfg.Injector,
		gov:     cfg.Governor,
		ctl:     ctl,
		tracer:  cfg.Tracer,
		log:     cfg.Logger,
		m:       newInstruments(cfg.Registry),
		slots:   make(chan struct{}, cfg.Workers),
		lanes:   map[string]*lane{},
	}
}

// Registry exposes the gateway's metric registry (for /metrics).
func (g *Gateway) Registry() *metrics.Registry { return g.cfg.Registry }

// Tracer exposes the gateway's tracer; the API layer serves its retained
// records at /v1/traces and starts a trace per HTTP request against it.
func (g *Gateway) Tracer() *trace.Tracer { return g.tracer }

// Logger exposes the gateway's structured logger so the layers above log
// into the same stream.
func (g *Gateway) Logger() *slog.Logger { return g.log }

// Injector exposes the gateway's fault injector (nil when chaos is
// disabled); the API layer serves it at /v1/admin/faults.
func (g *Gateway) Injector() *faults.Injector { return g.inj }

// Governor exposes the gateway's KV-memory governor (nil when memory
// governance is disabled); the API layer serves its snapshot at /v1/kv.
func (g *Gateway) Governor() *govern.Governor { return g.gov }

// MemoryPressure reports whether the gateway should be steered around:
// any lane shedding above its KV high watermark, or the admission queue
// saturated for a sustained window. Feeds /readyz and the cluster
// router's shedding signal — a replica whose queue is wedged returning
// 429s is as unready as one out of KV, even though its pool is healthy.
func (g *Gateway) MemoryPressure() bool { return g.gov.Shedding() || g.Saturated() }

// CacheSnapshot exposes the governor's prefix-cache status (for
// GET /v1/cache). Disabled without a governor.
func (g *Gateway) CacheSnapshot() govern.CacheStatus { return g.gov.CacheSnapshot() }

// FlushCache drops every unpinned prefix-cache entry across lanes and
// returns the number of KV blocks released (POST /v1/admin/cache/flush).
func (g *Gateway) FlushCache() int { return g.gov.FlushCache() }

// Draining reports whether Shutdown has begun (for /readyz).
func (g *Gateway) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// QueueDepth returns the number of requests waiting for execution.
func (g *Gateway) QueueDepth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.waiting
}

// Generate submits one generation request and blocks until it completes,
// is rejected, or ctx is done. Rejections return ErrQueueFull or
// ErrDraining without blocking.
func (g *Gateway) Generate(ctx context.Context, req Request) (Result, error) {
	if req.InputLen < 1 || req.OutputLen < 1 {
		err := errors.New("gateway: input and output lengths must be positive")
		req.Trace.SetError(err)
		return Result{}, err
	}
	now := time.Now()
	// Without overload control every request is plain Standard: class
	// ordering, eviction and shedding all become no-ops and the gateway
	// behaves as the legacy class-blind FIFO (the overload-demo baseline).
	cls := overload.Standard
	if g.ctl != nil {
		cls = overload.ClassOf(req.Class)
	}
	j := &job{req: req, ctx: ctx, class: cls,
		submitted: now, lastMark: now, done: make(chan jobOutcome, 1)}
	req.Trace.SetLane(req.Lane)

	reject := func(err error) (Result, error) {
		g.m.rejected.Inc()
		req.Trace.Event("rejected", time.Now(), map[string]string{"reason": err.Error()})
		req.Trace.SetError(err)
		g.log.Debug("gateway: rejected", "lane", req.Lane, "trace_id", req.Trace.ID(), "err", err)
		return Result{}, err
	}

	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return reject(ErrDraining)
	}
	// Overload control: sample pressure, advance the brownout ladder and
	// apply its class-ordered degradations before any queue or KV check.
	level, flush := g.overloadEvalLocked(now)
	if overload.ShedsClass(level, j.class) {
		g.noteSaturationLocked(now)
		g.mu.Unlock()
		g.runOverloadActions(flush)
		g.m.classShed.Inc()
		g.ctl.NoteShed(j.class)
		req.Trace.Event("overload", time.Now(), map[string]string{
			"action": "shed-batch", "level": fmt.Sprint(level)})
		return reject(fmt.Errorf("%w: brownout level %d sheds %s-class work",
			ErrClassShed, level, j.class))
	}
	if g.ctl != nil {
		if tokenCap := overload.CapFor(level, j.class, g.ctl.Config().BatchTokenCap); tokenCap > 0 && j.req.OutputLen > tokenCap {
			j.req.OutputLen = tokenCap
			j.brownout = true
			g.m.brownoutCapped.Inc()
			req.Trace.Event("overload", now, map[string]string{
				"action": "cap-batch-tokens", "level": fmt.Sprint(level),
				"max_tokens": fmt.Sprint(tokenCap)})
		}
	}
	if g.waiting >= g.cfg.MaxQueue {
		// Shedding drops the lowest class first: a full queue rejects
		// this request only if no strictly lower-priority job can be
		// evicted to make room — batch sheds before interactive ever
		// sees a rejection.
		if !g.evictLowerClassLocked(j.class, now) {
			g.noteSaturationLocked(now)
			g.mu.Unlock()
			g.runOverloadActions(flush)
			return reject(ErrQueueFull)
		}
	}
	l := g.lanes[req.Lane]
	if l != nil && !l.quarantinedUntil.IsZero() {
		if time.Now().Before(l.quarantinedUntil) {
			g.mu.Unlock()
			return reject(fmt.Errorf("%w: lane %s", ErrLaneQuarantined, req.Lane))
		}
		// Quarantine elapsed: let the lane try again with a clean slate.
		l.quarantinedUntil = time.Time{}
		g.m.quarantinedLanes.Dec()
		g.log.Info("gateway: quarantine lifted", "lane", req.Lane)
	}
	if l == nil {
		var err error
		if l, err = g.newLaneLocked(req.Lane); err != nil {
			g.mu.Unlock()
			return reject(err)
		}
	}
	// Adaptive concurrency limiter: the front door closes ahead of the
	// KV watermark when observed TTFT busts per-class SLO targets, and
	// lower classes lose their share of the shrinking limit first.
	if !g.ctl.Acquire(j.class) {
		g.mu.Unlock()
		g.runOverloadActions(flush)
		req.Trace.Event("overload", time.Now(), map[string]string{
			"action": "concurrency-limited", "class": j.class.String()})
		return reject(fmt.Errorf("%w: %s class", ErrConcurrencyLimited, j.class))
	}
	// Memory governance: structural fit, client quota and watermark shed
	// checks, charging the client's quota on success. The lease follows
	// the job through every terminal path.
	lease, err := g.gov.Admit(req.Lane, req.Client, j.req.InputLen, j.req.OutputLen)
	if err != nil {
		g.mu.Unlock()
		g.ctl.Release(j.class)
		return reject(err)
	}
	j.lease = lease
	l.enqueueLocked(j)
	g.waiting++
	g.noteSaturationLocked(now)
	g.m.queueDepth.Inc()
	g.m.admitted.Inc()
	g.ensureRunningLocked(l)
	g.mu.Unlock()
	g.runOverloadActions(flush)

	select {
	case out := <-j.done:
		g.ctl.Release(j.class)
		if out.err != nil {
			req.Trace.SetError(out.err)
		} else if out.res.Degraded {
			req.Trace.SetDegraded()
		}
		return out.res, out.err
	case <-ctx.Done():
		// Still queued: pull the job out and free its KV blocks and quota
		// now rather than waiting for the lane's next admission scan.
		// Already executing: the lane evicts it (and releases the lease) at
		// the next iteration boundary.
		g.abandonQueued(j)
		g.ctl.Release(j.class)
		req.Trace.SetError(ctx.Err())
		return Result{}, ctx.Err()
	}
}

// newLaneLocked resolves key's cost models and registers its lane, with
// the scheduler core configured from the gateway's policy and the
// governor's admission mode. Callers hold g.mu.
func (g *Gateway) newLaneLocked(key string) (*lane, error) {
	cost, err := g.resolve(key)
	if err != nil {
		return nil, err
	}
	l := &lane{key: key, cost: cost, batch: serve.Batch[attempt]{
		MaxBatch:   g.cfg.MaxBatch,
		Optimistic: g.gov != nil && !g.gov.Conservative(),
	}}
	if g.cfg.Policy == Chunked {
		l.batch.Chunk = g.cfg.PrefillChunk
	}
	if g.cfg.Fallback != nil {
		if fb, err := g.cfg.Fallback(key); err == nil && fb != nil {
			l.fallback = fb
		}
	}
	g.initLaneSpec(l)
	g.lanes[key] = l
	return l, nil
}

// Do runs a unary job (e.g. a one-shot simulation) under the gateway's
// admission control and worker pool. The queue wait and execution time
// feed the same histograms as generation traffic.
func (g *Gateway) Do(ctx context.Context, fn func(context.Context) error) error {
	tr := trace.FromContext(ctx)
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		g.m.rejected.Inc()
		tr.SetError(ErrDraining)
		return ErrDraining
	}
	if g.waiting >= g.cfg.MaxQueue {
		g.mu.Unlock()
		g.m.rejected.Inc()
		tr.SetError(ErrQueueFull)
		return ErrQueueFull
	}
	g.waiting++
	g.wg.Add(1)
	g.mu.Unlock()
	g.m.queueDepth.Inc()
	g.m.admitted.Inc()
	defer g.wg.Done()

	start := time.Now()
	release := func() {
		g.mu.Lock()
		g.waiting--
		g.mu.Unlock()
		g.m.queueDepth.Dec()
	}
	select {
	case g.slots <- struct{}{}:
	case <-ctx.Done():
		release()
		g.m.canceled.Inc()
		tr.SetError(ctx.Err())
		return ctx.Err()
	}
	release()
	defer func() { <-g.slots }()

	admit := time.Now()
	tr.Add(trace.SpanData{Name: trace.PhaseQueue, Start: start, End: admit})
	g.m.queueWait.Observe(admit.Sub(start).Seconds())
	g.m.inflight.Inc()
	defer g.m.inflight.Dec()
	err := fn(ctx)
	tr.Add(trace.SpanData{Name: trace.PhaseHandler, Start: admit, End: time.Now()})
	g.m.wall.Observe(time.Since(start).Seconds())
	switch {
	case err == nil:
		g.m.completed.Inc()
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		g.m.canceled.Inc()
		tr.SetError(err)
	default:
		g.m.failed.Inc()
		tr.SetError(err)
	}
	return err
}

// ensureRunningLocked spawns the lane scheduler if idle. Callers hold g.mu.
func (g *Gateway) ensureRunningLocked(l *lane) {
	if l.active {
		return
	}
	l.active = true
	g.wg.Add(1)
	go g.runLane(l)
}

// Shutdown stops admission and waits for queued and in-flight requests
// to drain, or for ctx to expire. New submissions fail with ErrDraining;
// nothing already admitted is dropped.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	g.draining = true
	g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		g.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RetryAfterSeconds suggests how long a backpressured client should wait
// before retrying: the current queue depth divided by the recently
// observed drain rate, bounded to [1, 30] seconds. The rate is estimated
// from completion-counter deltas between calls and smoothed, so bursts
// of 429s during a spike all carry a hint that tracks the backlog.
func (g *Gateway) RetryAfterSeconds() int {
	now := time.Now()
	completed := g.m.completed.Value()
	g.mu.Lock()
	depth := g.waiting
	if g.retryAt.IsZero() {
		g.retryAt, g.retryCompleted = now, completed
	} else if dt := now.Sub(g.retryAt).Seconds(); dt >= 0.05 {
		inst := float64(completed-g.retryCompleted) / dt
		if g.retryRate == 0 {
			g.retryRate = inst
		} else {
			g.retryRate = 0.5*g.retryRate + 0.5*inst
		}
		g.retryAt, g.retryCompleted = now, completed
	}
	rate := g.retryRate
	g.mu.Unlock()
	return RetryAfterHint(depth, rate)
}

// RetryAfterHint converts a queue depth and a drain rate (completions
// per second) into a bounded Retry-After value in whole seconds.
func RetryAfterHint(depth int, drainPerSec float64) int {
	const maxRetryAfter = 30
	if depth <= 0 {
		return 1
	}
	if drainPerSec <= 0 {
		// No drain observed yet (cold start): scale modestly with the
		// backlog instead of guessing a rate.
		if est := 1 + depth/32; est < maxRetryAfter {
			return est
		}
		return maxRetryAfter
	}
	est := int(math.Ceil(float64(depth) / drainPerSec))
	if est < 1 {
		return 1
	}
	if est > maxRetryAfter {
		return maxRetryAfter
	}
	return est
}
