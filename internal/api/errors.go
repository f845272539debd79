package api

// errors.go defines the service's uniform error envelope: every failure,
// from any handler, renders as
//
//	{"error":{"code":"bad_request","message":"..."}}
//
// so clients switch on a stable machine-readable code and log the human
// message.

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/gateway"
	"repro/internal/govern"
)

// Error codes used across the v1 API.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeQueueFull        = "queue_full"
	CodeDraining         = "draining"
	CodeCanceled         = "canceled"
	CodeUnprocessable    = "unprocessable"
	CodeInternal         = "internal"
	// CodeUnavailable is a transient server-side failure — a quarantined
	// lane, an open breaker with no fallback, or a watchdog-cancelled
	// batch that exhausted its requeues. Retry later.
	CodeUnavailable = "unavailable"
	// CodeLanePanic marks a request failed by a recovered lane-worker
	// panic; the lane restarts, so a retry is expected to succeed.
	CodeLanePanic = "lane_panic"
	// CodeUnsupportedMedia rejects POST bodies whose Content-Type is not
	// application/json (HTTP 415).
	CodeUnsupportedMedia = "unsupported_media_type"
	// CodeMemoryPressure sheds a request because its lane's KV pool is
	// above the high watermark, or because the pool stayed exhausted
	// through the request's whole requeue budget (HTTP 503 +
	// Retry-After); /readyz reports not-ready while shedding.
	CodeMemoryPressure = "memory_pressure"
	// CodeQuotaExceeded rejects a request that would push its client over
	// the per-client in-flight KV token quota (HTTP 429 + Retry-After).
	CodeQuotaExceeded = "quota_exceeded"
	// CodeInvalidStreamParam rejects malformed streaming options (HTTP
	// 400): unparseable stream_options, unknown option fields, or
	// stream_options supplied without "stream": true.
	CodeInvalidStreamParam = "invalid_stream_param"
	// CodeInvalidCacheParam rejects malformed prefix-cache options (HTTP
	// 400): an unparseable cache object, unknown option fields, or a
	// negative min_prefix_tokens.
	CodeInvalidCacheParam = "invalid_cache_param"
	// CodeNotAcceptable rejects an impossible Accept/stream combination
	// (HTTP 406): a streaming request whose Accept excludes
	// text/event-stream, or a buffered request that only accepts it.
	CodeNotAcceptable = "not_acceptable"
	// CodeDeadlineExceeded fails a request whose X-Request-Deadline (or
	// context deadline) expired before the cluster/gateway finished it
	// (HTTP 504). Distinct from CodeCanceled: the server ran out the
	// client's stated budget rather than the client going away.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeInvalidDeadline rejects an unparseable X-Request-Deadline
	// header (HTTP 400).
	CodeInvalidDeadline = "invalid_deadline"
	// CodeNoHealthyReplicas sheds a request because every cluster
	// replica is ejected, down or draining (HTTP 503 + Retry-After).
	CodeNoHealthyReplicas = "no_healthy_replicas"
	// CodeInvalidSLOClass rejects an unknown priority / X-SLO-Class value
	// or a body-header disagreement (HTTP 400). Valid classes are
	// interactive, standard and batch.
	CodeInvalidSLOClass = "invalid_slo_class"
	// CodeOverloadShed sheds a request because the brownout ladder
	// reached its shed rung, or a higher-class arrival evicted it from a
	// full queue (HTTP 503 + Retry-After). Lower classes shed first;
	// retry, or resubmit with a higher priority if the work is urgent.
	CodeOverloadShed = "overload_shed"
	// CodeConcurrencyLimited rejects a request because the adaptive
	// concurrency limiter is holding admissions below the level at which
	// observed TTFT would bust the class SLO (HTTP 429 + Retry-After).
	CodeConcurrencyLimited = "concurrency_limited"
)

// errorBody is the uniform error envelope. TraceID correlates the failure
// with its retained trace (GET /v1/traces?id=) and the X-Trace-ID header.
type errorBody struct {
	Error   errorDetail `json:"error"`
	TraceID string      `json:"trace_id,omitempty"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	// The tracing middleware stamps X-Trace-ID on the response headers
	// before the handler runs; echoing it into the envelope gives clients
	// one field to quote when filing the failure.
	writeJSON(w, status, errorBody{
		Error:   errorDetail{Code: code, Message: err.Error()},
		TraceID: w.Header().Get("X-Trace-ID"),
	})
}

// writeBodyError maps request-body decoding failures onto statuses: a
// missing or non-JSON Content-Type is 415, malformed JSON is 400.
func writeBodyError(w http.ResponseWriter, err error) {
	if errors.Is(err, errUnsupportedMediaType) {
		writeError(w, http.StatusUnsupportedMediaType, CodeUnsupportedMedia, err)
		return
	}
	writeError(w, http.StatusBadRequest, CodeBadRequest, err)
}

// mapGatewayError classifies scheduler and context errors: the HTTP
// status, the envelope code, and whether the response should carry a
// derived Retry-After hint. Shared by the buffered response path
// (writeGatewayError) and the streaming path, which can only deliver the
// code inside a terminal SSE event once headers are sent.
func mapGatewayError(err error) (status int, code string, retryable bool) {
	switch {
	case errors.Is(err, gateway.ErrClassShed):
		// Brownout: the ladder's shed rung (or a class eviction) dropped
		// this request so higher classes keep their SLOs. Transient.
		return http.StatusServiceUnavailable, CodeOverloadShed, true
	case errors.Is(err, gateway.ErrConcurrencyLimited):
		// The AIMD limiter is below the offered load; the limit reopens
		// additively as TTFT recovers.
		return http.StatusTooManyRequests, CodeConcurrencyLimited, true
	case errors.Is(err, gateway.ErrDeadlineUnmeetable):
		// Queue eviction: the modeled TTFT overruns the client's stated
		// X-Request-Deadline, so serving it would only waste compute.
		return http.StatusGatewayTimeout, CodeDeadlineExceeded, false
	case errors.Is(err, gateway.ErrQueueFull):
		return http.StatusTooManyRequests, CodeQueueFull, true
	case errors.Is(err, govern.ErrQuotaExceeded):
		return http.StatusTooManyRequests, CodeQuotaExceeded, true
	case errors.Is(err, govern.ErrShedding), errors.Is(err, govern.ErrKVExhausted):
		// KV memory pressure: the lane is above its high watermark, or the
		// pool stayed exhausted through the request's requeue budget.
		return http.StatusServiceUnavailable, CodeMemoryPressure, true
	case errors.Is(err, govern.ErrNeverFits):
		// Structural: this context can never fit the lane's pool, so
		// retrying the same request is pointless.
		return http.StatusUnprocessableEntity, CodeUnprocessable, false
	case errors.Is(err, gateway.ErrDraining):
		return http.StatusServiceUnavailable, CodeDraining, true
	case errors.Is(err, gateway.ErrLaneQuarantined),
		errors.Is(err, gateway.ErrLaneBroken),
		errors.Is(err, gateway.ErrWatchdogTimeout):
		// Transient lane-level failures: quarantine cool-off, an open
		// breaker without a fallback, or a watchdog-cancelled batch that
		// exhausted its requeues. The condition clears on its own.
		return http.StatusServiceUnavailable, CodeUnavailable, true
	case errors.Is(err, gateway.ErrLanePanic):
		// The supervisor recovered the panic and is restarting the lane;
		// only this request's batch was lost.
		return http.StatusInternalServerError, CodeLanePanic, false
	case errors.Is(err, cluster.ErrNoHealthyReplicas):
		// Whole-cluster outage: every replica ejected, down or draining.
		return http.StatusServiceUnavailable, CodeNoHealthyReplicas, true
	case errors.Is(err, cluster.ErrReplicaDown):
		// The serving replica died mid-flight and failover could not (or
		// was not allowed to) rescue the request. Transient: the router
		// routes the retry to a live replica.
		return http.StatusServiceUnavailable, CodeUnavailable, true
	case errors.Is(err, context.DeadlineExceeded):
		// The client's stated time budget (X-Request-Deadline or context
		// deadline) ran out while the request was still in flight.
		return http.StatusGatewayTimeout, CodeDeadlineExceeded, false
	case errors.Is(err, context.Canceled):
		// 499-style: the client went away.
		return http.StatusRequestTimeout, CodeCanceled, false
	default:
		return http.StatusInternalServerError, CodeInternal, false
	}
}

// retryAfterJitter spreads a derived Retry-After hint by ±max(1, v/4)
// seconds so the synchronized clients of one backpressure episode don't
// all retry in lockstep against a just-recovering lane or replica
// (thundering herd). The jittered value stays in the same [1, 30]
// bounds the underlying hint honors.
func retryAfterJitter(v int) int {
	spread := v / 4
	if spread < 1 {
		spread = 1
	}
	v += rand.IntN(2*spread+1) - spread
	if v < 1 {
		v = 1
	}
	if v > 30 {
		v = 30
	}
	return v
}

// writeGatewayError maps scheduler and context errors onto HTTP statuses;
// everything else is an internal error. Every backpressure status — 429
// and every 503 — carries a derived Retry-After header so clients back
// off for as long as the backlog actually needs, not a guessed constant.
func (s *Server) writeGatewayError(w http.ResponseWriter, err error) {
	status, code, retryable := mapGatewayError(err)
	if retryable {
		// The hint is the time the current backlog needs to drain at the
		// observed completion rate, bounded to [1, 30] seconds and
		// jittered per response so retries desynchronize.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterJitter(s.gw.RetryAfterSeconds())))
	}
	writeError(w, status, code, err)
}
