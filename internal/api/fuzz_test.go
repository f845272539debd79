package api

// fuzz_test.go fuzzes the v1 POST body validation path of the three
// generation surfaces: whatever bytes arrive at /v1/generate — and
// whatever X-SLO-Class / X-Request-Deadline headers ride along — or at
// /v1/chat/completions and /v1/completions, the handler must never panic
// and must answer either 200 with a result or an error status with the
// uniform envelope. Run with `go test -fuzz FuzzGenerateBody
// ./internal/api/` (or FuzzChatCompletionsBody, FuzzCompletionsBody); the
// checked in corpus under testdata/fuzz seeds the interesting shapes.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gateway"
	"repro/internal/overload"
)

func FuzzGenerateBody(f *testing.F) {
	// Body seeds; each is also crossed with empty headers.
	seeds := []string{
		`{"platform":"spr","model":"OPT-13B"}`,
		`{"platform":"spr","model":"OPT-13B","in":32,"out":4,"cores":16,"memmode":"cache","cluster":"snc"}`,
		`{"platform":"tiny-opt"}`,
		`{"platform":"spr","model":"OPT-13B","in":-1}`,
		`{"platform":"spr","model":"OPT-13B","out":999999999}`,
		`{"platform":"nope","model":"?"}`,
		`{"unknown_field":true}`,
		`{"platform":"spr","model":"OPT-13B"} trailing`,
		`{"platform":"spr","model":"OPT-13B",}`,
		`[]`,
		`"just a string"`,
		`{"in":"not a number"}`,
		``,
		`{`,
		"\x00\xff\xfe",
		// SLO-class body field and cache options, valid and not.
		`{"platform":"tiny-opt","priority":"interactive"}`,
		`{"platform":"tiny-opt","priority":"batch","cache":{"enabled":false}}`,
		`{"platform":"tiny-opt","priority":"urgent"}`,
		`{"platform":"tiny-opt","priority":""}`,
		`{"platform":"tiny-opt","cache":{"min_prefix_tokens":-5}}`,
		`{"platform":"tiny-opt","priority":42}`,
		// Unknown-field inputs: a speculation field, object or not, is
		// rejected by the strict decoder.
		`{"platform":"tiny-opt","speculation":{"enabled":false}}`,
		`{"platform":"tiny-opt","speculation":{"lookahead":2}}`,
		`{"platform":"tiny-opt","speculation":{"lookahead":-1}}`,
		`{"platform":"tiny-opt","speculation":{"lookhaed":3}}`,
		`{"platform":"tiny-opt","speculation":"yes"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s), "", "")
	}
	// Header combinations: agreeing and conflicting class labels, junk
	// classes, and deadline shapes from plausible to hostile.
	valid := `{"platform":"tiny-opt","out":2}`
	prio := `{"platform":"tiny-opt","priority":"interactive"}`
	for _, hs := range [][2]string{
		{"interactive", ""},
		{"batch", "750ms"},
		{"standard", "0"},
		{"bogus", ""},
		{"", "not-a-duration"},
		{"", "-3ms"},
		{"", "9999999h"},
		{"INTERACTIVE", "1s"},
	} {
		f.Add([]byte(valid), hs[0], hs[1])
		f.Add([]byte(prio), hs[0], hs[1]) // body/header agree or conflict
	}

	f.Fuzz(func(t *testing.T, body []byte, sloClass, deadline string) {
		// A fresh tiny gateway per input keeps iterations independent and
		// the lane map from growing without bound under long fuzz runs.
		// WatchdogBudget < 0 prices directly, without per-call goroutines.
		// Overload control is on so the class/brownout admission paths run.
		gw := gateway.New(gateway.Config{MaxQueue: 4, MaxBatch: 2, Workers: 1,
			WatchdogBudget: -1, Overload: &overload.Config{}}, stubResolver(stubCost{}))
		h := NewServer(gw).Handler()

		req := httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if sloClass != "" {
			req.Header.Set("X-SLO-Class", sloClass)
		}
		if deadline != "" {
			req.Header.Set("X-Request-Deadline", deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic, whatever the bytes

		checkFuzzResponse(t, rec)
	})
}

// checkFuzzResponse asserts the no-panic contract shared by the fuzzed
// generation endpoints: 200s carry decodable JSON (or well-formed SSE
// when the body selected streaming), errors carry the uniform envelope.
func checkFuzzResponse(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	res := rec.Result()
	switch res.StatusCode {
	case http.StatusOK:
		if res.Header.Get("Content-Type") == "text/event-stream" {
			for _, line := range bytes.Split(rec.Body.Bytes(), []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				data, ok := bytes.CutPrefix(line, []byte("data: "))
				if !ok {
					t.Fatalf("SSE response with non-SSE line %q", line)
				}
				if !bytes.Equal(data, []byte("[DONE]")) && !json.Valid(data) {
					t.Fatalf("SSE chunk with invalid JSON: %q", data)
				}
			}
			return
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("200 with undecodable body: %s", rec.Body.Bytes())
		}
	case http.StatusBadRequest, http.StatusNotFound,
		http.StatusNotAcceptable, http.StatusRequestTimeout,
		http.StatusTooManyRequests, http.StatusUnprocessableEntity,
		http.StatusInternalServerError, http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(res.Body).Decode(&env); err != nil ||
			env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("status %d without uniform error envelope (err %v): %s",
				res.StatusCode, err, rec.Body.Bytes())
		}
	default:
		t.Fatalf("unexpected status %d: %s", res.StatusCode, rec.Body.Bytes())
	}
}

// FuzzChatCompletionsBody drives the OpenAI adapter's request mapping
// plus the shared validation and streaming path with arbitrary bytes.
// Run with `go test -fuzz FuzzChatCompletionsBody ./internal/api/`.
func FuzzChatCompletionsBody(f *testing.F) {
	seeds := []string{
		`{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}]}`,
		`{"model":"OPT-13B","platform":"tiny-opt","max_tokens":4,"messages":[{"role":"user","content":"hi"}]}`,
		`{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}],"stream":true}`,
		`{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}],"stream":true,"stream_options":{"include_usage":true}}`,
		`{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}],"stream_options":{"include_usage":true}}`,
		`{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}],"temperature":0.7,"top_p":"high","seed":[1]}`,
		`{"model":"OPT-13B","messages":[{"content":"no role"}]}`,
		`{"model":"OPT-13B","messages":[],"n":2}`,
		`{"messages":[{"role":"user","content":"no model"}]}`,
		`{"model":"gpt-4","messages":[{"role":"user","content":"hi"}]}`,
		`{"model":"OPT-13B","max_completion_tokens":999999999,"messages":[{"role":"user","content":"hi"}]}`,
		`{"model":"OPT-13B","messages":"not an array"}`,
		`{"model":"OPT-13B","messages":[{"role":"user","content":"hi"}],}`,
		`[]`,
		``,
		`{`,
		"\x00\xff\xfe",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		gw := gateway.New(gateway.Config{MaxQueue: 4, MaxBatch: 2, Workers: 1,
			WatchdogBudget: -1}, stubResolver(stubCost{}))
		h := NewServer(gw).Handler()

		req := httptest.NewRequest(http.MethodPost, "/v1/chat/completions", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic, whatever the bytes

		checkFuzzResponse(t, rec)
	})
}

// FuzzCompletionsBody drives the legacy text-completion adapter's request
// mapping plus the shared validation and streaming path with arbitrary
// bytes. Run with `go test -fuzz FuzzCompletionsBody ./internal/api/`.
func FuzzCompletionsBody(f *testing.F) {
	for _, s := range []string{
		`{"model":"OPT-13B","prompt":"hello"}`,
		`{"model":"OPT-13B","prompt":"hello","max_tokens":4,"stream":true,"stream_options":{"include_usage":true}}`,
		`{"model":"OPT-13B","prompt":"hello","platform":"tiny-opt","cores":4}`,
		`{"model":"OPT-13B","prompt":["a","b"]}`,
		`{"model":"OPT-13B","prompt":"hello","echo":true,"n":3}`,
		`{"prompt":"no model"}`,
		``,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		gw := gateway.New(gateway.Config{MaxQueue: 4, MaxBatch: 2, Workers: 1,
			WatchdogBudget: -1}, stubResolver(stubCost{}))
		h := NewServer(gw).Handler()

		req := httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic, whatever the bytes

		checkFuzzResponse(t, rec)
	})
}
