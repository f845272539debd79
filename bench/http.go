package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/gateway"
	"repro/internal/govern"
)

// httpWarmRequests run before the window: they fill the four groups'
// cache entries and the lane's cost memo (13 prompt lengths).
const httpWarmRequests = 256

// httpReplica names http-stream's only gateway, as llmperfd does.
const httpReplica = "r0"

// httpBench drives http-stream: one keep-alive connection over loopback
// to the API handler of a single default gateway, streaming every reply.
type httpBench struct {
	sched []servingReq
	sh    shared
	gov   *govern.Governor
	gw    *gateway.Gateway
	srv   *http.Server
	done  chan error // srv.Serve's return
	url   string
	cl    *http.Client
	br    *bufio.Reader
	// seen marks prefix groups whose first request has completed; every
	// later request of the group must report cached_tokens > 0.
	seen   map[string]bool
	issued int // requests sent since build: numbers requests and walks sched

	rec   *recorder
	costs *costSpans
	sink  sinkStats
	tr    httpTrace
	iters float64 // scheduler iterations of the last window
}

// httpTrace is what a traced http-stream run collects besides spans.
type httpTrace struct {
	firstByteMs []float64
	queueMs     []float64
	bodyBytes   int64
}

func newHTTPBench(seed int64) *httpBench {
	return &httpBench{sched: httpStreamSchedule(seed), br: bufio.NewReaderSize(nil, 32<<10)}
}

type reqIDKey struct{}

// build constructs governor, gateway, API server and listener as
// cmd/llmperfd does with its defaults, and serves one request. A traced
// build additionally wraps — never edits — the handler, the backend and
// the lane's cost model so that each boundary yields a span.
func (b *httpBench) build(rec *recorder) error {
	b.sh = newShared()
	b.gov = newGovernor(b.sh, 0)
	b.seen = map[string]bool{}
	b.issued = 0
	b.rec, b.costs, b.tr = rec, nil, httpTrace{}
	resolve := api.LaneResolver()
	if rec != nil {
		b.costs = &costSpans{rec: rec, parent: spanBackend}
		b.sink = sinkStats{rec: rec, gapsUs: make([]float64, 0, 1<<20)}
		resolve = b.costs.resolver(resolve, httpReplica)
	}
	b.gw = newGateway(b.sh, httpReplica, b.gov, resolve)
	var backend api.Backend = b.gw
	if rec != nil {
		backend = &tracedBackend{Backend: b.gw, rec: rec, sink: &b.sink}
	}
	handler := api.NewServer(backend).Handler()
	if rec != nil {
		handler = tracedHandler(handler, rec)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	b.done = make(chan error, 1)
	go func() { b.done <- b.srv.Serve(ln) }()
	b.url = "http://" + ln.Addr().String() + "/v1/generate"
	b.cl = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	if _, err := b.request(nil); err != nil {
		b.close()
		return fmt.Errorf("first request: %w", err)
	}
	return nil
}

func (b *httpBench) close() {
	b.cl.CloseIdleConnections()
	_ = shutdown(b.gw)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	<-b.done
}

func (b *httpBench) warm() error {
	for i := 0; i < httpWarmRequests; i++ {
		if _, err := b.request(nil); err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return nil
}

func (b *httpBench) run(seconds float64, rec *recorder) *window {
	win := newWindow(sampleCapacity(seconds, 5000))
	if rec != nil {
		b.tr.firstByteMs = make([]float64, 0, cap(win.e2e))
		b.tr.queueMs = make([]float64, 0, cap(win.e2e))
	}
	iters0 := iterations(b.sh)
	start := win.begin()
	for time.Since(start).Seconds() < seconds {
		s, err := b.request(rec)
		if err != nil {
			win.fail(err)
			continue
		}
		win.ok(s)
	}
	win.end()
	b.iters = iterations(b.sh) - iters0
	return win
}

// sseEvent holds the fields the checks and the ledger read from one SSE
// chunk, whichever object it is.
type sseEvent struct {
	Object       string  `json:"object"`
	Index        int     `json:"index"`
	OutputLen    int     `json:"output_len"`
	CachedTokens int     `json:"cached_tokens"`
	QueueS       float64 `json:"queue_s"`
	Error        *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

var sseData = []byte("data: ")

// request sends the next scheduled request and reads its stream to the
// end, checking it: status 200, exactly `out` token chunks with indices
// 0..out-1 in order, one result chunk, then [DONE]; and a cache hit once
// the request's prefix group has been served before.
func (b *httpBench) request(rec *recorder) (sample, error) {
	n := b.issued
	b.issued++
	sr := b.sched[n%len(b.sched)]
	body := fmt.Sprintf(`{"platform":%q,"model":%q,"in":%d,"out":%d,"stream":true,"prefix_group":%q,"prefix_tokens":%d}`,
		servingPlatform, servingModel, sr.In, sr.Out, sr.Group, sr.PrefixTokens)

	ctx := context.Background()
	var sent, firstByte time.Time
	if rec != nil {
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { sent = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url, bytes.NewReader([]byte(body)))
	if err != nil {
		return sample{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", strconv.Itoa(n))

	t0 := time.Now()
	resp, err := b.cl.Do(req)
	if err != nil {
		return sample{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return sample{}, fmt.Errorf("request %d: status %d: %s", n, resp.StatusCode, bytes.TrimSpace(msg))
	}

	b.br.Reset(resp.Body)
	var first, last time.Time
	var result *sseEvent
	var bytesRead int64
	next, finished := 0, false
	for !finished {
		line, err := b.br.ReadSlice('\n')
		bytesRead += int64(len(line))
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return sample{}, fmt.Errorf("request %d: reading stream: %w", n, err)
		}
		payload, ok := bytes.CutPrefix(bytes.TrimSpace(line), sseData)
		if !ok {
			continue // blank separator line
		}
		if string(payload) == "[DONE]" {
			finished = true
			continue
		}
		var ev sseEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return sample{}, fmt.Errorf("request %d: chunk %q: %w", n, payload, err)
		}
		switch {
		case ev.Error != nil:
			return sample{}, fmt.Errorf("request %d: mid-stream error %s: %s", n, ev.Error.Code, ev.Error.Message)
		case ev.Object == "generate.token":
			if ev.Index != next || result != nil {
				return sample{}, fmt.Errorf("request %d: token index %d, want %d", n, ev.Index, next)
			}
			last = time.Now()
			if next == 0 {
				first = last
			}
			next++
		case ev.Object == "generate.result":
			result = &ev
		}
	}
	t1 := time.Now()
	switch {
	case !finished:
		return sample{}, fmt.Errorf("request %d: stream ended without [DONE]", n)
	case next != sr.Out:
		return sample{}, fmt.Errorf("request %d: %d token chunks, want %d", n, next, sr.Out)
	case result == nil || result.OutputLen != sr.Out:
		return sample{}, fmt.Errorf("request %d: missing or wrong generate.result", n)
	case b.seen[sr.Group] && result.CachedTokens == 0:
		return sample{}, fmt.Errorf("request %d: group %s was served before but cached_tokens is 0", n, sr.Group)
	}
	b.seen[sr.Group] = true

	if rec != nil {
		id := int64(n)
		rec.add(spanRequest, "", "", id, t0, t1)
		rec.add(spanSend, spanRequest, "", id, t0, sent)
		rec.add(spanRecv, spanRequest, "", id, firstByte, t1)
		b.tr.firstByteMs = append(b.tr.firstByteMs, firstByte.Sub(t0).Seconds()*1e3)
		b.tr.queueMs = append(b.tr.queueMs, result.QueueS*1e3)
		b.tr.bodyBytes += bytesRead
	}
	return sample{
		ttftMs: first.Sub(t0).Seconds() * 1e3,
		tpotMs: last.Sub(first).Seconds() * 1e3 / float64(sr.Out-1),
		e2eMs:  t1.Sub(t0).Seconds() * 1e3,
		tokens: sr.Out,
	}, nil
}

// tracedHandler records the api.http span and passes the request's
// number (its X-Request-ID) down through the context.
func tracedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get("X-Request-ID"), 10, 64)
		if err != nil {
			id = laneLevelReq
		}
		start := time.Now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id)))
		rec.add(spanHTTP, spanRequest, "", id, start, time.Now())
	})
}

// tracedBackend embeds the real backend and adds a span around Generate
// and an observer in front of the request's token sink.
type tracedBackend struct {
	api.Backend
	rec  *recorder
	sink *sinkStats
}

func (t *tracedBackend) Generate(ctx context.Context, req gateway.Request) (gateway.Result, error) {
	id, _ := ctx.Value(reqIDKey{}).(int64)
	if req.Sink != nil {
		req.Sink = t.sink.observe(req.Sink)
	}
	start := time.Now()
	res, err := t.Backend.Generate(ctx, req)
	t.rec.add(spanBackend, spanHTTP, httpReplica, id, start, time.Now())
	return res, err
}

func (b *httpBench) guards() guardRails {
	return guardRails{
		preemptions: float64(sumGovernors([]*govern.Governor{b.gov}).preemptions),
		shed:        counterValue(b.sh.reg, "govern_shed_total"),
		rejected:    counterValue(b.sh.reg, "gateway_rejected_total"),
	}
}

// layers reports the serving layers' metrics: self times from the traced
// window's spans, allocation and tail figures from the untraced one.
func (b *httpBench) layers(m metricSet, base, traced *window, _ probeRates) {
	self := totalSelfTimes(b.rec.spans)
	m.set("bench.span_coverage_pct", self.coveragePct())
	m.set("api.self_us_per_req", self.perReqUs(spanHTTP))
	m.set("api.first_byte_ms_p50", median(b.tr.firstByteMs))
	m.set("api.bytes_per_tok", ratio(float64(b.tr.bodyBytes), float64(traced.tokens)))
	m.set("api.e2e_ms_p99", percentile(base.e2e, 99))
	m.set("api.mallocs_per_req", ratio(float64(base.mallocs), float64(base.succeeded())))
	m.set("gateway.self_us_per_req", self.perReqUs(spanBackend))
	m.set("gateway.queue_wait_ms_p50", median(b.tr.queueMs))
	m.set("gateway.queue_wait_ms_p99", percentile(b.tr.queueMs, 99))
	b.sink.layers(m)
	b.costs.layers(m, self, traced.succeeded())
	gatewayCounters(m, b.sh, b.iters, traced.succeeded())
	sumGovernors([]*govern.Governor{b.gov}).layers(m, b.sh)
}
