package api

// stream.go is the HTTP side of token streaming: explicit Accept
// negotiation, the SSE wire format (data: {...} chunks terminated by
// data: [DONE]), and the bridge between the gateway's scheduler-side
// token sink and the handler goroutine. The three generation endpoints
// (/v1/generate, /v1/chat/completions, /v1/completions) share one
// serving path and differ only in their responseShape — the JSON forms
// of the buffered result, the per-token chunk and the terminal chunks.
//
// Status-code correctness is the delicate part of SSE: once the first
// chunk is written the 200 is committed, so the stream is started lazily
// at the first token. A request that fails before producing any token
// (queue full, quota, shedding, cancellation) still gets its proper
// status code and JSON envelope; a request that fails mid-stream gets
// the same uniform envelope as a terminal event, without [DONE].

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/hw"
	"repro/internal/model"
	"repro/internal/trace"
)

// acceptable reports whether the Accept header allows mediaType. An
// absent or empty header allows everything; parameters (q=, charset) are
// ignored — the API has exactly two response types, so preference
// ordering between acceptable types never matters.
func acceptable(r *http.Request, mediaType string) bool {
	h := strings.TrimSpace(r.Header.Get("Accept"))
	if h == "" {
		return true
	}
	want := strings.SplitN(mediaType, "/", 2)
	for _, part := range strings.Split(h, ",") {
		mt := strings.TrimSpace(strings.SplitN(part, ";", 2)[0])
		switch {
		case mt == "":
			continue
		case mt == "*/*" || mt == mediaType:
			return true
		}
		if got := strings.SplitN(mt, "/", 2); len(got) == 2 &&
			got[0] == want[0] && got[1] == "*" {
			return true
		}
	}
	return false
}

// negotiateStream applies the explicit content-negotiation contract:
// "stream": true produces text/event-stream, anything else produces
// application/json, and an Accept header that excludes the one the body
// selected is an impossible combination (406).
func negotiateStream(r *http.Request, stream bool) error {
	if stream {
		if !acceptable(r, "text/event-stream") {
			return fmt.Errorf(`"stream": true produces text/event-stream, which Accept %q does not allow`,
				r.Header.Get("Accept"))
		}
		return nil
	}
	if !acceptable(r, "application/json") {
		if acceptable(r, "text/event-stream") {
			return fmt.Errorf(`Accept %q allows only text/event-stream, which requires "stream": true in the request body`,
				r.Header.Get("Accept"))
		}
		return fmt.Errorf("buffered responses are application/json, which Accept %q does not allow",
			r.Header.Get("Accept"))
	}
	return nil
}

// sse is a committed text/event-stream response. Events are written to
// the ResponseWriter as they are encoded and reach the client at the next
// flush, so the chunks of one drained batch cost one flush between them;
// each is still its own data: event.
type sse struct {
	w       http.ResponseWriter
	f       http.Flusher
	line    bytes.Buffer  // the event being encoded; reused by the next
	enc     *json.Encoder // encodes into line
	pending bool          // something was written since the last flush
}

// startSSE sets the SSE headers and commits the 200 status line. After
// this point the response cannot change status. The headers leave with
// the first flushed event: a stream is only ever started to send one.
func startSSE(w http.ResponseWriter) (*sse, error) {
	f, ok := w.(http.Flusher)
	if !ok {
		return nil, errors.New("response writer does not support streaming (no http.Flusher)")
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // defeat proxy buffering
	w.WriteHeader(http.StatusOK)
	s := &sse{w: w, f: f}
	s.enc = json.NewEncoder(&s.line)
	return s, nil
}

// event writes one data: {...} chunk; it leaves at the next flush. A
// write error means the client is gone; the serving loop learns that
// from the request context, not from here.
func (s *sse) event(v any) {
	s.line.Reset()
	s.line.WriteString("data: ")
	if err := s.enc.Encode(v); err != nil { // Encode ends the line itself
		return
	}
	s.line.WriteByte('\n')
	_, _ = s.w.Write(s.line.Bytes())
	s.pending = true
}

// done writes the data: [DONE] terminator.
func (s *sse) done() {
	_, _ = io.WriteString(s.w, "data: [DONE]\n\n")
	s.pending = true
}

// flush sends everything written since the last flush to the client.
func (s *sse) flush() {
	if !s.pending {
		return
	}
	s.pending = false
	s.f.Flush()
}

// tokenFeed bridges the gateway's token sink (called from the lane
// scheduler goroutine, must never block) to the handler goroutine that
// writes the response. The sink appends under a mutex and nudges a
// capacity-1 notify channel; the handler drains. The buffer grows to at
// most the request's output length, so a slow client costs memory
// bounded by its own request, never scheduler stalls — and because the
// sink side never touches the ResponseWriter, late emissions after the
// handler returned are harmless.
type tokenFeed struct {
	mu     sync.Mutex
	events []gateway.TokenEvent
	spare  []gateway.TokenEvent // the previously drained batch, reused next
	notify chan struct{}
}

func newTokenFeed() *tokenFeed {
	return &tokenFeed{notify: make(chan struct{}, 1)}
}

// sink is the gateway.TokenSink implementation.
func (f *tokenFeed) sink(ev gateway.TokenEvent) {
	f.mu.Lock()
	f.events = append(f.events, ev)
	f.mu.Unlock()
	select {
	case f.notify <- struct{}{}:
	default:
	}
}

// drain returns the buffered events, valid until the next drain: the
// feed alternates between two buffers instead of growing a new one per
// batch.
func (f *tokenFeed) drain() []gateway.TokenEvent {
	f.mu.Lock()
	evs := f.events
	f.events, f.spare = f.spare[:0], evs
	f.mu.Unlock()
	return evs
}

// responseShape renders one generation endpoint's response forms. The
// serving path is shared; only the JSON differs per endpoint.
type responseShape interface {
	// buffered is the whole non-streaming response body.
	buffered(res gateway.Result) any
	// token is one streamed chunk.
	token(ev gateway.TokenEvent) any
	// terminal is the chunks sent after the last token, before [DONE].
	terminal(res gateway.Result, includeUsage bool) []any
}

// serveGeneration validates req, negotiates the response shape, and
// serves it buffered or streamed through the gateway. All three
// generation endpoints funnel here, so validation, error mapping and
// streaming semantics stay uniform.
func (s *Server) serveGeneration(w http.ResponseWriter, r *http.Request, admit time.Time, req *GenerateRequest, shape responseShape) {
	tr := trace.FromContext(r.Context())
	if err := req.normalize(); err != nil {
		// Unknown platform or model names are missing resources (404),
		// distinct from malformed parameters (400).
		if errors.Is(err, hw.ErrUnknownPlatform) || errors.Is(err, model.ErrUnknownModel) {
			writeError(w, http.StatusNotFound, CodeNotFound, err)
			return
		}
		writeError(w, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	opts, err := parseStreamOptions(req.Stream, req.StreamOptions)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidStreamParam, err)
		return
	}
	copts, err := parseCacheOptions(req.Cache)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidCacheParam, err)
		return
	}
	sopts, err := parseSpecOptions(req.Speculation)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSpecParam, err)
		return
	}
	if err := negotiateStream(r, req.Stream); err != nil {
		writeError(w, http.StatusNotAcceptable, CodeNotAcceptable, err)
		return
	}
	class, err := resolveClass(req.Priority, r.Header.Get("X-SLO-Class"))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidSLOClass, err)
		return
	}
	ctx, cancel, err := requestDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidDeadline, err)
		return
	}
	defer cancel()
	// Surface the degradation ladder on every generation response; the
	// header must be set before streaming commits the 200.
	if lvl := s.gw.BrownoutLevel(); lvl > 0 {
		w.Header().Set("X-Brownout-Level", strconv.Itoa(lvl))
	}
	tr.Add(trace.SpanData{Name: trace.PhaseAdmission, Start: admit, End: time.Now(),
		Attrs: map[string]string{"lane": req.laneKey()}})
	greq := gateway.Request{
		Lane: req.laneKey(), InputLen: req.InputLen, OutputLen: req.OutputLen,
		Client: clientID(r), Class: class, Trace: tr,
		Prefix:          req.prefixSegments(),
		CacheDisabled:   copts.disabled(),
		MinPrefixTokens: copts.MinPrefixTokens,
		SpecDisabled:    sopts.disabled(),
		SpecLookahead:   sopts.Lookahead,
	}
	if req.Stream {
		s.streamGeneration(ctx, w, r, greq, shape, opts)
		return
	}
	res, err := s.gw.Generate(ctx, greq)
	if err != nil {
		s.writeGatewayError(w, err)
		return
	}
	// Server-Timing carries the phase breakdown to clients (llmperf
	// renders p50/p99 per phase from it) without a second round-trip.
	if st := trace.FormatServerTiming(tr.PhaseSeconds()); st != "" {
		w.Header().Set("Server-Timing", st)
	}
	setReplicaHeaders(w, res)
	w.Header().Set("X-Prefix-Cache", prefixCacheValue(res))
	w.Header().Set("X-Speculation", speculationValue(res))
	if res.TraceID == "" {
		res.TraceID = tr.ID()
	}
	writeJSON(w, http.StatusOK, shape.buffered(res))
}

// requestDeadline applies the X-Request-Deadline header — the client's
// remaining time budget as a Go duration ("750ms", "2s") or a bare
// integer of milliseconds — to the request context. The cluster router
// refuses failover backoffs that would overrun it, and an expiry
// surfaces as a typed 504 deadline_exceeded. Without the header the
// request context passes through untouched.
func requestDeadline(r *http.Request) (context.Context, context.CancelFunc, error) {
	h := r.Header.Get("X-Request-Deadline")
	if h == "" {
		return r.Context(), func() {}, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		if ms, msErr := strconv.Atoi(h); msErr == nil {
			d, err = time.Duration(ms)*time.Millisecond, nil
		}
	}
	if err != nil || d <= 0 {
		return nil, nil, fmt.Errorf("X-Request-Deadline %q is not a positive duration (want e.g. \"750ms\", \"2s\", or integer milliseconds)", h)
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// setReplicaHeaders exposes cluster attribution on buffered responses so
// load generators can report per-replica distribution and failover/hedge
// counts without parsing bodies. Streamed responses carry the same
// fields in-band, in the terminal result event (headers are long
// committed by then).
func setReplicaHeaders(w http.ResponseWriter, res gateway.Result) {
	if res.Replica == "" {
		return
	}
	w.Header().Set("X-Replica-ID", res.Replica)
	w.Header().Set("X-Failovers", strconv.Itoa(res.Failovers))
	if res.Hedged {
		w.Header().Set("X-Hedged", "true")
	}
}

// prefixCacheValue renders the result's prefix-cache outcome in the
// X-Prefix-Cache header format, also carried in-band by the terminal SSE
// result event: "hit;tokens=N" or "miss".
func prefixCacheValue(res gateway.Result) string {
	if res.CachedTokens > 0 {
		return fmt.Sprintf("hit;tokens=%d", res.CachedTokens)
	}
	return "miss"
}

// speculationValue renders the result's speculative-decoding outcome in
// the X-Speculation header format: "on;proposed=N;accepted=N;passes=N"
// when any of the request's decode cycles ran draft-assisted, "off"
// otherwise (no draft configured, opted out, or suspended throughout).
func speculationValue(res gateway.Result) string {
	if res.SpecPasses == 0 {
		return "off"
	}
	return fmt.Sprintf("on;proposed=%d;accepted=%d;passes=%d",
		res.SpecProposed, res.SpecAccepted, res.SpecPasses)
}

// streamGeneration runs the request through the gateway with a token
// sink and relays chunks as SSE. The stream is started lazily at the
// first token so pre-token failures keep their proper status codes.
func (s *Server) streamGeneration(ctx context.Context, w http.ResponseWriter, r *http.Request, greq gateway.Request, shape responseShape, opts streamOptions) {
	feed := newTokenFeed()
	greq.Sink = feed.sink
	type outcome struct {
		res gateway.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := s.gw.Generate(ctx, greq)
		done <- outcome{res, err}
	}()

	var stream *sse
	// begin commits the 200 + SSE headers; relay writes the feed's tokens
	// as chunks; whoever calls relay flushes once for everything it wrote,
	// so a token is never held back for a later one and a burst of tokens
	// costs one flush. Both report false only when the ResponseWriter
	// cannot stream at all, in which case the handler gives up (returning
	// cancels r.Context(), which unwinds the gateway side).
	begin := func() bool {
		if stream != nil {
			return true
		}
		st, err := startSSE(w)
		if err != nil {
			writeError(w, http.StatusInternalServerError, CodeInternal, err)
			return false
		}
		stream = st
		return true
	}
	relay := func() bool {
		for _, ev := range feed.drain() {
			if !begin() {
				return false
			}
			stream.event(shape.token(ev))
		}
		return true
	}
	finish := func(out outcome) {
		if out.err != nil {
			if !relay() {
				return
			}
			if stream == nil {
				// Failed before any token: a regular JSON error with the
				// mapped status (429/503/504/...) is still possible.
				s.writeGatewayError(w, out.err)
				return
			}
			// Mid-stream failure: the 200 is committed, so deliver the
			// uniform envelope as the terminal event and omit [DONE] —
			// clients treat a missing [DONE] as an aborted stream.
			_, code, _ := mapGatewayError(out.err)
			stream.event(errorBody{
				Error:   errorDetail{Code: code, Message: out.err.Error()},
				TraceID: w.Header().Get("X-Trace-ID"),
			})
			stream.flush()
			return
		}
		if !relay() || !begin() {
			return
		}
		for _, chunk := range shape.terminal(out.res, opts.IncludeUsage) {
			stream.event(chunk)
		}
		stream.done()
		stream.flush()
	}
	for {
		select {
		case <-feed.notify:
			if !relay() {
				return
			}
			if stream != nil {
				stream.flush()
			}
		case out := <-done:
			finish(out)
			return
		case <-ctx.Done():
			// The request context died: client disconnect or X-Request-
			// Deadline expiry. The gateway sees the same dead context —
			// queued jobs are abandoned immediately, in-flight sequences are
			// evicted (KV blocks freed) at the next iteration boundary. Wait
			// for that outcome so no goroutine outlives the handler; when
			// the client is still connected (deadline expiry, not
			// disconnect) deliver the typed 504 instead of dropping the
			// response on the floor.
			out := <-done
			if r.Context().Err() != nil {
				return // client gone: nothing left to write to
			}
			finish(out)
			return
		}
	}
}

// tokenWords synthesizes deterministic completion text. The serving
// layer prices scheduling over real or modeled kernels — it does not
// sample a vocabulary — so streamed content is placeholder prose, one
// word per token, stable across buffered and streamed responses.
var tokenWords = []string{
	"the", "decode", "step", "streams", "one", "token", "per",
	"iteration", "bounded", "by", "memory", "bandwidth",
}

// tokenText is the text of the i-th output token.
func tokenText(i int) string {
	w := tokenWords[i%len(tokenWords)]
	if i == 0 {
		return w
	}
	return " " + w
}

// completionText is the full text of an n-token completion; it equals
// the concatenation of the streamed per-token texts.
func completionText(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(tokenText(i))
	}
	return b.String()
}

// generateShape is /v1/generate's response forms: the buffered body is
// the gateway result exactly as before streaming existed, and chunks are
// the vendor-native token events.
type generateShape struct{}

// generateTokenEvent is one /v1/generate SSE chunk.
type generateTokenEvent struct {
	Object       string  `json:"object"` // "generate.token"
	Index        int     `json:"index"`
	Token        string  `json:"token"`
	VTimeSeconds float64 `json:"vtime_s"`
	Batch        int     `json:"batch"`
	Degraded     bool    `json:"degraded,omitempty"`
	Final        bool    `json:"final,omitempty"`
}

// generateResultEvent is /v1/generate's terminal SSE chunk: the buffered
// result tagged with an object type so stream parsers can switch on it.
// PrefixCache and Speculation are the in-band equivalents of the
// X-Prefix-Cache and X-Speculation headers — headers are long committed
// by then.
type generateResultEvent struct {
	Object      string `json:"object"` // "generate.result"
	PrefixCache string `json:"prefix_cache"`
	Speculation string `json:"speculation"`
	gateway.Result
}

func (generateShape) buffered(res gateway.Result) any { return res }

func (generateShape) token(ev gateway.TokenEvent) any {
	return generateTokenEvent{
		Object:       "generate.token",
		Index:        ev.Index,
		Token:        tokenText(ev.Index),
		VTimeSeconds: ev.VTime,
		Batch:        ev.Batch,
		Degraded:     ev.Degraded,
		Final:        ev.Final,
	}
}

func (generateShape) terminal(res gateway.Result, includeUsage bool) []any {
	out := []any{generateResultEvent{Object: "generate.result",
		PrefixCache: prefixCacheValue(res), Speculation: speculationValue(res),
		Result: res}}
	if includeUsage {
		out = append(out, map[string]any{
			"object": "generate.usage",
			"usage":  usageFor(res),
		})
	}
	return out
}
