package api

// stream_test.go covers the HTTP streaming surface: the SSE wire format
// (data: framing, terminal [DONE]), lazy status commitment, explicit
// Accept negotiation with typed 406s, the typed invalid_stream_param
// 400s, and client-disconnect KV reclamation over a real connection.

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/govern"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// slowCost prices decode steps at 5ms modeled time so Timescale-driven
// lanes take observable wall time per token.
type slowCost struct{}

func (slowCost) PrefillCost(batch, in int) (float64, error)     { return 0.002, nil }
func (slowCost) DecodeStepCost(batch, ctx int) (float64, error) { return 0.005, nil }
func (slowCost) Cached(bool, int, int) (serve.Quote, bool)      { return serve.Quote{}, false }

// streamServer is a fast stub-priced API server for wire-format tests.
func streamServer(t *testing.T) *httptest.Server {
	t.Helper()
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)
	return srv
}

// postAccept is doOn with an Accept header.
func postAccept(t *testing.T, srv *httptest.Server, path, body, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readSSE consumes a committed event stream, returning the decoded data
// payloads and whether the [DONE] terminator arrived.
func readSSE(t *testing.T, resp *http.Response) (chunks []json.RawMessage, done bool) {
	t.Helper()
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			t.Fatalf("non-SSE line in stream: %q", line)
		}
		if data == "[DONE]" {
			done = true
			continue
		}
		if !json.Valid([]byte(data)) {
			t.Fatalf("invalid JSON chunk: %q", data)
		}
		chunks = append(chunks, json.RawMessage(data))
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	return chunks, done
}

func TestGenerateStreamSSEWireFormat(t *testing.T) {
	srv := streamServer(t)
	resp := postAccept(t, srv, "/v1/generate",
		`{"platform":"tiny-opt","in":16,"out":5,"stream":true}`, "text/event-stream")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	chunks, done := readSSE(t, resp)
	if !done {
		t.Error("stream did not end with [DONE]")
	}
	if len(chunks) != 6 { // 5 tokens + generate.result
		t.Fatalf("got %d chunks, want 6", len(chunks))
	}
	var text strings.Builder
	for i := 0; i < 5; i++ {
		var tok struct {
			Object string `json:"object"`
			Index  int    `json:"index"`
			Token  string `json:"token"`
			Batch  int    `json:"batch"`
			Final  bool   `json:"final"`
		}
		if err := json.Unmarshal(chunks[i], &tok); err != nil {
			t.Fatal(err)
		}
		if tok.Object != "generate.token" || tok.Index != i || tok.Batch < 1 {
			t.Fatalf("chunk %d malformed: %+v", i, tok)
		}
		if got, want := tok.Final, i == 4; got != want {
			t.Errorf("chunk %d: final=%v, want %v", i, got, want)
		}
		text.WriteString(tok.Token)
	}
	// Streamed deltas concatenate to exactly the buffered completion.
	if text.String() != completionText(5) {
		t.Errorf("streamed text %q != buffered %q", text.String(), completionText(5))
	}
	var res struct {
		Object    string `json:"object"`
		OutputLen int    `json:"output_len"`
		TraceID   string `json:"trace_id"`
	}
	if err := json.Unmarshal(chunks[5], &res); err != nil {
		t.Fatal(err)
	}
	if res.Object != "generate.result" || res.OutputLen != 5 || res.TraceID == "" {
		t.Errorf("terminal chunk malformed: %+v", res)
	}
}

// TestGenerateStreamFirstTokenEarly is the end-to-end acceptance check:
// over a real HTTP connection the first SSE chunk must arrive while the
// decode is still running, not after.
func TestGenerateStreamFirstTokenEarly(t *testing.T) {
	gw := gateway.New(gateway.Config{Timescale: 1}, stubResolver(slowCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)

	resp := postAccept(t, srv, "/v1/generate",
		`{"platform":"tiny-opt","in":16,"out":40,"stream":true}`, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var firstAt time.Time
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			firstAt = time.Now()
			break
		}
	}
	if firstAt.IsZero() {
		t.Fatal("no SSE chunk arrived")
	}
	for sc.Scan() {
	}
	// 39 remaining decode steps at 5ms modeled time separate the first
	// chunk from the end of the stream.
	if gap := time.Since(firstAt); gap < 50*time.Millisecond {
		t.Errorf("first chunk only %v before stream end; server buffered instead of streaming", gap)
	}
}

func TestStreamInvalidStreamParam(t *testing.T) {
	srv := streamServer(t)
	cases := []struct{ name, body string }{
		{"options without stream", `{"platform":"tiny-opt","stream_options":{"include_usage":true}}`},
		{"unknown option", `{"platform":"tiny-opt","stream":true,"stream_options":{"bogus":1}}`},
		{"wrong type", `{"platform":"tiny-opt","stream":true,"stream_options":5}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doOn(t, srv, http.MethodPost, "/v1/generate", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			var e errorBody
			if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != CodeInvalidStreamParam {
				t.Errorf("error code %q, want %q (%s)", e.Error.Code, CodeInvalidStreamParam, body)
			}
		})
	}
}

func TestStreamAcceptNegotiation(t *testing.T) {
	srv := streamServer(t)
	cases := []struct {
		name, body, accept string
		wantStatus         int
	}{
		{"stream with json-only accept", `{"platform":"tiny-opt","stream":true}`,
			"application/json", http.StatusNotAcceptable},
		{"buffered with sse-only accept", `{"platform":"tiny-opt"}`,
			"text/event-stream", http.StatusNotAcceptable},
		{"buffered with unservable accept", `{"platform":"tiny-opt"}`,
			"text/html", http.StatusNotAcceptable},
		{"stream with wildcard", `{"platform":"tiny-opt","out":2,"stream":true}`,
			"*/*", http.StatusOK},
		{"stream with type wildcard", `{"platform":"tiny-opt","out":2,"stream":true}`,
			"text/*", http.StatusOK},
		{"buffered with json accept", `{"platform":"tiny-opt","out":2}`,
			"application/json; charset=utf-8", http.StatusOK},
		{"stream with both listed", `{"platform":"tiny-opt","out":2,"stream":true}`,
			"application/json, text/event-stream", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postAccept(t, srv, "/v1/generate", tc.body, tc.accept)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantStatus == http.StatusNotAcceptable {
				var e errorBody
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil ||
					e.Error.Code != CodeNotAcceptable {
					t.Errorf("error code %q, want %q", e.Error.Code, CodeNotAcceptable)
				}
			}
		})
	}
}

// TestStreamDisconnectFreesKVOverHTTP closes a live streaming connection
// mid-decode and asserts every governed KV block returns to the pool —
// the end-to-end form of the scheduler-level disconnect test.
func TestStreamDisconnectFreesKVOverHTTP(t *testing.T) {
	m := model.Tiny(model.OPT)
	per := m.KVBytesPerTokenPerLayer(tensor.BF16) * int64(m.Layers) * 16
	gov := govern.New(govern.Config{
		Specs: func(string) (govern.PoolSpec, error) {
			return govern.PoolSpec{Model: m, DType: tensor.BF16, BlockSize: 16,
				BudgetBytes: per * 64}, nil
		},
	})
	gw := gateway.New(gateway.Config{Timescale: 1, Governor: gov}, stubResolver(slowCost{}))
	srv := httptest.NewServer(NewServer(gw).Handler())
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/generate",
		strings.NewReader(`{"platform":"tiny-opt","in":32,"out":512,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < 3 {
		if strings.HasPrefix(sc.Text(), "data: ") {
			seen++
		}
	}
	if seen < 3 {
		t.Fatal("stream ended before any tokens")
	}
	st := gov.Snapshot()
	if len(st.Lanes) != 1 || st.Lanes[0].FreeBlocks == st.Lanes[0].TotalBlocks {
		t.Fatalf("expected blocks held mid-stream, got %+v", st.Lanes)
	}
	cancel() // drop the connection mid-stream

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := gov.Snapshot()
		if len(st.Lanes) == 1 && st.Lanes[0].FreeBlocks == st.Lanes[0].TotalBlocks {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st = gov.Snapshot()
	t.Fatalf("KV blocks not reclaimed after disconnect: %+v", st.Lanes)
}

func TestEndpointIndexListsStreamingEndpoints(t *testing.T) {
	srv := streamServer(t)
	resp, body := doOn(t, srv, http.MethodGet, "/v1/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{"/v1/chat/completions", "/v1/completions", "stream"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index missing %q", want)
		}
	}
}
