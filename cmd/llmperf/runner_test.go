package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/gateway"
	"repro/internal/workload"
)

// TestConnectionReuse: a closed loop of 64 requests over 8 clients opens
// at most one connection per client, buffered or streamed.
func TestConnectionReuse(t *testing.T) {
	for _, mode := range [][]string{nil, {"-stream"}} {
		var opened atomic.Int64
		h := api.NewServer(newGateway(t, gateway.Config{}, api.LaneResolver())).Handler()
		srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			// Every client's first dial completes before any response.
			// Otherwise the transport may hand a returning connection to a
			// request still waiting on its own dial, which then adds one.
			time.Sleep(10 * time.Millisecond)
			h.ServeHTTP(w, req)
		}))
		srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
			if s == http.StateNew {
				opened.Add(1)
			}
		}
		srv.Start()
		t.Cleanup(srv.Close)
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-url", srv.URL, "-n", "64", "-concurrency", "8"}, mode...), &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d: %s", mode, code, stderr.String())
		}
		if !strings.Contains(stdout.String(), "HTTP 200    : 64\n") {
			t.Fatalf("%v: not 64 successes:\n%s", mode, stdout.String())
		}
		if n := opened.Load(); n > 8 {
			t.Errorf("%v: %d connections opened for 8 clients", mode, n)
		}
	}
}

// wireBody returns the response body of one exchange the wire golden
// pins, with its masked values (<t>) zeroed so the JSON decodes.
func wireBody(t *testing.T, exchange string) string {
	t.Helper()
	wire, err := os.ReadFile("../../internal/api/testdata/wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(wire), "### "+exchange+"\n")
	if !ok {
		t.Fatalf("wire.txt has no exchange %q", exchange)
	}
	rest, _, _ = strings.Cut(rest, "\n### ")
	_, body, _ := strings.Cut(rest, "\n\n") // request, status and headers
	return strings.ReplaceAll(body, "<t>", "0")
}

// TestReadSSE: the one SSE reader on the stream bodies the wire golden
// pins, and on a line longer than bufio's 64 KiB default.
func TestReadSSE(t *testing.T) {
	long := fmt.Sprintf("data: {\"object\":\"generate.token\",\"token\":%q}\n\ndata: [DONE]\n\n", strings.Repeat("x", 100<<10))
	for _, c := range []struct {
		name, body string
		tokens     int
		done       bool
		want       result
	}{
		{"clean stream with include_usage", wireBody(t, "analytic / generate stream+usage"), 4, true,
			result{PrefixCache: "miss"}},
		{"cluster-attributed terminal event", wireBody(t, "cluster / generate stream"), 4, true,
			result{PrefixCache: "miss", Replica: "r0"}},
		{"prefix-cache hit", wireBody(t, "cache / generate hit stream"), 2, true,
			result{PrefixCache: "hit;tokens=64", CachedTokens: 64}},
		{"mid-stream error envelope", wireBody(t, "mid-stream error / generate stream"), 2, false, result{}},
		{"line over 64 KiB", long, 1, true, result{}},
	} {
		o := outcome{status: http.StatusOK}
		o.readSSE(strings.NewReader(c.body), time.Now())
		got := o.result
		got.QueueSeconds, got.TTFTSeconds, got.PrefillSavedSeconds = 0, 0, 0
		if o.tokens != c.tokens || o.done != c.done || o.ok() != c.done || got != c.want {
			t.Errorf("%s: tokens=%d done=%v ok=%v result=%+v; want tokens=%d done=%v result=%+v",
				c.name, o.tokens, o.done, o.ok(), got, c.tokens, c.done, c.want)
		}
		if len(o.itls) != max(o.tokens-1, 0) || o.tokens > 0 && o.ttft <= 0 {
			t.Errorf("%s: ttft=%v and %d ITLs for %d tokens", c.name, o.ttft, len(o.itls), o.tokens)
		}
	}
}

// TestAbortedStreamNotCompleted: streams cut off by the mid-stream error
// envelope are reported aborted, and not as completed requests.
func TestAbortedStreamNotCompleted(t *testing.T) {
	body := wireBody(t, "mid-stream error / generate stream")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, body)
	}))
	t.Cleanup(srv.Close)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-url", srv.URL, "-stream", "-n", "3", "-concurrency", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	report := stdout.String()
	if !strings.Contains(report, "  aborted    : 3 streams ended without [DONE]\n") ||
		strings.Contains(report, "E2E") || strings.Contains(report, "req/s completed") {
		t.Errorf("aborted streams reported as completed:\n%s", report)
	}
}

// TestCalibrationStopsAtTransportError: against a server that drops every
// connection, each calibration client quits at its first failure instead
// of retrying until the step duration runs out.
func TestCalibrationStopsAtTransportError(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			c.Close()
		}
	}()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-url", "http://" + l.Addr().String(), "-ramp", "-ramp-step-duration", "300ms", "-concurrency", "2"}, &stdout, &stderr)
	l.Close()
	<-done
	if code != 1 || !strings.Contains(stderr.String(), "calibration completed no requests") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if n := accepted.Load(); n > 2 {
		t.Errorf("%d connections from 2 calibration clients", n)
	}
}

// TestChatPrefillSumsTTFT: the chat mode's prefill is the sum of the
// results' ttft_s, which the server models from admission on; the
// wall-clock queue_s is not taken out of it. The server paces one request
// at a time in wall time, so the three sessions' requests do queue.
func TestChatPrefillSumsTTFT(t *testing.T) {
	h := api.NewServer(newGateway(t, gateway.Config{MaxBatch: 1, Timescale: 0.02}, api.LaneResolver())).Handler()
	var mu sync.Mutex
	var ttft, queue float64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var res result
		if req.URL.Path == "/v1/generate" && rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &res) == nil {
			mu.Lock()
			ttft, queue = ttft+res.TTFTSeconds, queue+res.QueueSeconds
			mu.Unlock()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	t.Cleanup(srv.Close)

	g := workload.NewGenerator(1)
	g.MeanInputLen, g.MeanOutputLen = 32, 8
	got := newRunner(srv.URL, "spr", "OPT-13B", 3).replayChat(workload.BySession(g.ChatSessions(3, 2, 128)), nil)
	if got.ok != 6 || got.failed != 0 {
		t.Fatalf("%d ok, %d failed; want 6 ok", got.ok, got.failed)
	}
	if queue <= 0 {
		t.Fatal("no request queued: the test needs a server that queues")
	}
	if math.Abs(got.prefillSeconds-ttft) > 1e-9*ttft {
		t.Errorf("prefill %.9fs, want the results' ttft_s summed: %.9fs (queue_s summed: %.6fs)", got.prefillSeconds, ttft, queue)
	}
}
