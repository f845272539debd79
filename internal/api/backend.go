package api

// backend.go abstracts what the HTTP surface serves through: a single
// batching gateway (the historical shape) or a fault-tolerant cluster
// router fronting N gateway replicas (internal/cluster). Both satisfy
// Backend structurally, so every endpoint — generation, streaming,
// traces, metrics, faults, readiness — behaves identically regardless
// of topology, and llmperfd switches between them with a flag.

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Backend is the serving surface the API binds to. *gateway.Gateway
// implements it directly; *cluster.Router implements it by routing over
// its replicas with health-aware failover.
type Backend interface {
	// Generate serves one generation request (optionally streaming
	// through req.Sink). It is the only work the backend admits.
	Generate(ctx context.Context, req gateway.Request) (gateway.Result, error)

	// Observability and control surfaces.
	Registry() *metrics.Registry
	Tracer() *trace.Tracer
	Injector() *faults.Injector
	// State is the operator state document GET /v1/debug/state serves;
	// FlushCache empties the prefix cache (ok false when nothing caches).
	State() gateway.State
	FlushCache() (released int, ok bool)

	// Lifecycle and backpressure.
	Draining() bool
	MemoryPressure() bool
	RetryAfterSeconds() int
	Shutdown(ctx context.Context) error

	// Overload control (internal/overload). Saturated reports sustained
	// admission-queue saturation (readiness flips alongside KV pressure);
	// BrownoutLevel is the degradation ladder's current rung (0 nominal,
	// also the X-Brownout-Level response header).
	Saturated() bool
	BrownoutLevel() int
}

// compile-time conformance of both topologies.
var (
	_ Backend = (*gateway.Gateway)(nil)
	_ Backend = (*cluster.Router)(nil)
)
