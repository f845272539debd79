package api

// flush_test.go pins how streamed chunks are grouped into writes: one
// flush per drained batch of the token feed — never one per token of a
// burst, never a token held back for a later one — with the wire format
// (chunk order, [DONE], the mid-stream error envelope, the lazily
// committed 200) unchanged.

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
)

// scriptedBackend is a real gateway whose Generate is a script driving
// the request's token sink.
type scriptedBackend struct {
	*gateway.Gateway
	script func(sink gateway.TokenSink) (gateway.Result, error)
}

func (b scriptedBackend) Generate(_ context.Context, req gateway.Request) (gateway.Result, error) {
	return b.script(req.Sink)
}

// flushWriter is a ResponseWriter that records what each Flush sent.
// Every Flush is announced on flushed; with gate set, a Flush then waits
// for one receive from gate before it returns.
type flushWriter struct {
	header  http.Header
	status  int
	pending bytes.Buffer
	flushes []string
	flushed chan int // flush count so far
	gate    chan struct{}
}

func newFlushWriter() *flushWriter {
	return &flushWriter{header: http.Header{}, flushed: make(chan int, 64)} // roomy: nothing in these tests flushes 64 times
}

func (w *flushWriter) Header() http.Header { return w.header }
func (w *flushWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}
func (w *flushWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pending.Write(p)
}
func (w *flushWriter) Flush() {
	w.flushes = append(w.flushes, w.pending.String())
	w.pending.Reset()
	w.flushed <- len(w.flushes)
	if w.gate != nil {
		<-w.gate
	}
}

// serveStream runs one streamed /v1/generate against script and returns
// the writer once the handler has returned.
func serveStream(t *testing.T, w *flushWriter, script func(gateway.TokenSink) (gateway.Result, error)) {
	t.Helper()
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	h := NewServer(scriptedBackend{gw, script}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/generate",
		strings.NewReader(`{"platform":"spr","model":"OPT-13B","in":16,"out":8,"stream":true}`))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, req)
}

// events counts the data: events in one flush.
func events(flush string) int { return strings.Count(flush, "data: ") }

func TestStreamFlushesOncePerDrainedBatch(t *testing.T) {
	w := newFlushWriter()
	w.gate = make(chan struct{})
	// awaitFlush runs on the script's goroutine: on a missing flush it
	// opens the gate for good, so the handler can finish, and the script
	// gives up.
	awaitFlush := func(n int) bool {
		select {
		case got := <-w.flushed:
			if got != n {
				t.Errorf("flush %d announced as %d", n, got)
			}
			return true
		case <-time.After(5 * time.Second):
			t.Errorf("flush %d never came", n)
			close(w.gate)
			return false
		}
	}
	tok := func(sink gateway.TokenSink, i int) {
		sink(gateway.TokenEvent{Index: i, Batch: 1, Final: i == 7})
	}
	serveStream(t, w, func(sink gateway.TokenSink) (gateway.Result, error) {
		// Token 0 goes out alone; while its flush is held, four more
		// arrive — a scheduler burst — and must leave in one flush.
		stuck := errors.New("script gave up")
		tok(sink, 0)
		if !awaitFlush(1) {
			return gateway.Result{}, stuck
		}
		for i := 1; i <= 4; i++ {
			tok(sink, i)
		}
		w.gate <- struct{}{}
		if !awaitFlush(2) {
			return gateway.Result{}, stuck
		}
		w.gate <- struct{}{}
		// Paced production: each token is flushed before the next exists.
		for i := 5; i <= 7; i++ {
			tok(sink, i)
			if !awaitFlush(i - 2) {
				return gateway.Result{}, stuck
			}
			w.gate <- struct{}{}
		}
		go func() { <-w.flushed; w.gate <- struct{}{} }() // the terminal flush
		return gateway.Result{OutputLen: 8}, nil
	})

	if w.status != http.StatusOK {
		t.Fatalf("status %d", w.status)
	}
	var per []int
	for _, f := range w.flushes {
		per = append(per, events(f))
	}
	// token 0 | tokens 1-4 | 5 | 6 | 7 | generate.result + [DONE]
	want := []int{1, 4, 1, 1, 1, 2}
	if len(per) != len(want) {
		t.Fatalf("events per flush %v, want %v", per, want)
	}
	for i := range want {
		if per[i] != want[i] {
			t.Fatalf("events per flush %v, want %v", per, want)
		}
	}
	// The bytes are the same stream whatever the grouping: eight token
	// chunks in index order, the result, then [DONE].
	lines := strings.Split(strings.TrimSuffix(strings.Join(w.flushes, ""), "\n\n"), "\n\n")
	if len(lines) != 10 {
		t.Fatalf("%d events on the wire, want 10:\n%s", len(lines), strings.Join(w.flushes, ""))
	}
	for i := 0; i < 8; i++ {
		want := `data: {"object":"generate.token","index":` + string(rune('0'+i)) + `,`
		if !strings.HasPrefix(lines[i], want) {
			t.Errorf("event %d = %q, want prefix %q", i, lines[i], want)
		}
	}
	if !strings.HasPrefix(lines[8], `data: {"object":"generate.result",`) || lines[9] != "data: [DONE]" {
		t.Errorf("stream tail %q, %q", lines[8], lines[9])
	}
}

func TestStreamErrorsKeepTheirShape(t *testing.T) {
	// Mid-stream: the committed 200 ends with the error envelope as its
	// terminal event and no [DONE], sent with the tokens still buffered.
	w := newFlushWriter()
	serveStream(t, w, func(sink gateway.TokenSink) (gateway.Result, error) {
		sink(gateway.TokenEvent{Index: 0, Batch: 1})
		<-w.flushed
		sink(gateway.TokenEvent{Index: 1, Batch: 1})
		sink(gateway.TokenEvent{Index: 2, Batch: 1})
		return gateway.Result{}, gateway.ErrQueueFull
	})
	body := strings.Join(w.flushes, "")
	if w.status != http.StatusOK || strings.Contains(body, "[DONE]") {
		t.Errorf("mid-stream failure: status %d, body %q", w.status, body)
	}
	if n := events(body); n != 4 || !strings.Contains(body, `"error":{"code":"queue_full"`) {
		t.Errorf("mid-stream failure sent %d events, want 3 tokens + envelope: %q", n, body)
	}

	// Before any token: nothing was committed, so the failure is a plain
	// JSON error with its mapped status and no SSE flush at all.
	w = newFlushWriter()
	serveStream(t, w, func(gateway.TokenSink) (gateway.Result, error) {
		return gateway.Result{}, gateway.ErrQueueFull
	})
	if w.status != http.StatusTooManyRequests || len(w.flushes) != 0 {
		t.Errorf("pre-token failure: status %d after %d flushes, want 429 after none", w.status, len(w.flushes))
	}
	if ct := w.header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("pre-token failure Content-Type %q", ct)
	}
	if !strings.Contains(w.pending.String(), `"queue_full"`) {
		t.Errorf("pre-token failure body %q", w.pending.String())
	}
}

// discardFlusher is an in-memory ResponseWriter that counts flushes.
type discardFlusher struct {
	header  http.Header
	flushes int
}

func (w *discardFlusher) Header() http.Header         { return w.header }
func (w *discardFlusher) WriteHeader(int)             {}
func (w *discardFlusher) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardFlusher) Flush()                      { w.flushes++ }

// BenchmarkStreamTokens is the API's share of a streamed request: 64
// tokens through the feed into SSE chunks on an in-memory writer, per
// token. The producer never waits for the consumer, as a lane at
// Timescale 0 does not, so drains hold bursts; flushes/tok reports how
// many writes that took.
func BenchmarkStreamTokens(b *testing.B) {
	const out = 64
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	h := NewServer(scriptedBackend{gw, func(sink gateway.TokenSink) (gateway.Result, error) {
		for i := 0; i < out; i++ {
			sink(gateway.TokenEvent{Index: i, Batch: 1, VTime: float64(i) * 0.013, Final: i == out-1})
		}
		return gateway.Result{InputLen: 512, OutputLen: out}, nil
	}}).Handler()
	body := `{"platform":"spr","model":"OPT-13B","in":512,"out":64,"stream":true}`
	w := &discardFlusher{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += out {
		req := httptest.NewRequest(http.MethodPost, "/v1/generate", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		clear(w.header)
		h.ServeHTTP(w, req)
	}
	b.ReportMetric(float64(w.flushes)/float64(b.N), "flushes/tok")
}
