package api

// cache_test.go covers the prefix-cache surface of the v1 API: the
// cached_tokens accounting and X-Prefix-Cache header on /v1/generate,
// the in-band prefix_cache field on the terminal SSE event, cached token
// counts in OpenAI-compatible usage (prompt_tokens_details), the
// per-request cache opt-out and min_prefix_tokens knobs with their typed
// 400, and the cache section of GET /v1/debug/state with
// POST /v1/admin/cache/flush.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gateway"
	"repro/internal/govern"
)

// cachedServer is governedServer with the radix prefix cache enabled.
func cachedServer(t *testing.T, blocks int) (*govern.Governor, *httptest.Server) {
	t.Helper()
	return governedServer(t, blocks, func(c *govern.Config) { c.EnableCache = true })
}

// genResult is the subset of the buffered /v1/generate response the
// cache tests care about.
type genResult struct {
	CachedTokens        int     `json:"cached_tokens"`
	PrefillSavedSeconds float64 `json:"prefill_saved_s"`
}

func postGenerate(t *testing.T, srv *httptest.Server, body string) (*http.Response, genResult) {
	t.Helper()
	resp, raw := doOn(t, srv, http.MethodPost, "/v1/generate", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("generate status %d: %s", resp.StatusCode, raw)
	}
	var res genResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	return resp, res
}

const sharedPromptBody = `{"platform":"spr","model":"OPT-13B","in":80,"out":4,
	"prefix_group":"sess","prefix_tokens":64}`

func TestGenerateCachedTokensAndHeader(t *testing.T) {
	_, srv := cachedServer(t, 64)

	resp, res := postGenerate(t, srv, sharedPromptBody)
	if res.CachedTokens != 0 {
		t.Errorf("cold request cached %d tokens, want 0", res.CachedTokens)
	}
	if h := resp.Header.Get("X-Prefix-Cache"); h != "miss" {
		t.Errorf("cold X-Prefix-Cache %q, want %q", h, "miss")
	}

	// The same shared prefix again: its 64 tokens (4 whole 16-token
	// blocks) come from the cache and the response says so in both the
	// body and the header.
	resp, res = postGenerate(t, srv, sharedPromptBody)
	if res.CachedTokens != 64 {
		t.Errorf("warm request cached %d tokens, want 64", res.CachedTokens)
	}
	// stubCost prices prefill at a flat rate, so the modeled savings are
	// zero here; cmd/llmperf's A/B demo covers the real cost model.
	if res.PrefillSavedSeconds < 0 {
		t.Errorf("warm request saved %v prefill seconds, want >= 0", res.PrefillSavedSeconds)
	}
	if h := resp.Header.Get("X-Prefix-Cache"); h != "hit;tokens=64" {
		t.Errorf("warm X-Prefix-Cache %q, want %q", h, "hit;tokens=64")
	}
}

func TestCacheOptOutPerRequest(t *testing.T) {
	_, srv := cachedServer(t, 64)
	postGenerate(t, srv, sharedPromptBody)

	resp, res := postGenerate(t, srv, `{"platform":"spr","model":"OPT-13B","in":80,"out":4,
		"prefix_group":"sess","prefix_tokens":64,"cache":{"enabled":false}}`)
	if res.CachedTokens != 0 {
		t.Errorf("opted-out request cached %d tokens, want 0", res.CachedTokens)
	}
	if h := resp.Header.Get("X-Prefix-Cache"); h != "miss" {
		t.Errorf("opted-out X-Prefix-Cache %q, want %q", h, "miss")
	}
}

func TestMinPrefixTokensIgnoresShortMatch(t *testing.T) {
	_, srv := cachedServer(t, 64)
	postGenerate(t, srv, sharedPromptBody)

	// The cached prefix is 64 tokens; demanding at least 128 makes the
	// lookup not worth adopting, so the request prefills cold.
	resp, res := postGenerate(t, srv, `{"platform":"spr","model":"OPT-13B","in":80,"out":4,
		"prefix_group":"sess","prefix_tokens":64,"cache":{"min_prefix_tokens":128}}`)
	if res.CachedTokens != 0 {
		t.Errorf("short match adopted anyway: cached %d tokens", res.CachedTokens)
	}
	if h := resp.Header.Get("X-Prefix-Cache"); h != "miss" {
		t.Errorf("X-Prefix-Cache %q, want %q", h, "miss")
	}
}

func TestInvalidCacheParam400(t *testing.T) {
	_, srv := cachedServer(t, 64)
	for _, body := range []string{
		`{"platform":"spr","model":"OPT-13B","in":32,"out":4,"cache":{"bogus":true}}`,
		`{"platform":"spr","model":"OPT-13B","in":32,"out":4,"cache":{"min_prefix_tokens":-1}}`,
		`{"platform":"spr","model":"OPT-13B","in":32,"out":4,"cache":"yes"}`,
	} {
		resp, raw := doOn(t, srv, http.MethodPost, "/v1/generate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
			continue
		}
		if code, _ := errEnvelope(t, raw); code != CodeInvalidCacheParam {
			t.Errorf("%s: code %q, want %q", body, code, CodeInvalidCacheParam)
		}
	}
}

func TestSSETerminalEventReportsPrefixCache(t *testing.T) {
	_, srv := cachedServer(t, 64)
	prefixCacheOf := func() string {
		resp := postAccept(t, srv, "/v1/generate",
			`{"platform":"spr","model":"OPT-13B","in":80,"out":3,"stream":true,
			  "prefix_group":"sse","prefix_tokens":64}`, "text/event-stream")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		chunks, done := readSSE(t, resp)
		if !done || len(chunks) == 0 {
			t.Fatalf("incomplete stream: %d chunks, done=%v", len(chunks), done)
		}
		var terminal struct {
			Object      string `json:"object"`
			PrefixCache string `json:"prefix_cache"`
		}
		if err := json.Unmarshal(chunks[len(chunks)-1], &terminal); err != nil {
			t.Fatal(err)
		}
		if terminal.Object != "generate.result" {
			t.Fatalf("last chunk is %q, want generate.result", terminal.Object)
		}
		return terminal.PrefixCache
	}
	if got := prefixCacheOf(); got != "miss" {
		t.Errorf("cold stream prefix_cache %q, want %q", got, "miss")
	}
	if got := prefixCacheOf(); got != "hit;tokens=64" {
		t.Errorf("warm stream prefix_cache %q, want %q", got, "hit;tokens=64")
	}
}

func TestOpenAIUsageCachedTokens(t *testing.T) {
	_, srv := cachedServer(t, 64)
	body := `{"model":"OPT-13B","messages":[
		{"role":"system","content":"You are a careful assistant. Answer briefly and cite the manual when unsure about hardware counters."},
		{"role":"user","content":"How many memory channels does Sapphire Rapids have per socket?"}]}`

	usageOf := func() (int, *int) {
		resp, raw := doOn(t, srv, http.MethodPost, "/v1/chat/completions", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("chat status %d: %s", resp.StatusCode, raw)
		}
		var cc struct {
			Usage struct {
				CachedTokens        int `json:"cached_tokens"`
				PromptTokensDetails *struct {
					CachedTokens int `json:"cached_tokens"`
				} `json:"prompt_tokens_details"`
			} `json:"usage"`
		}
		if err := json.Unmarshal(raw, &cc); err != nil {
			t.Fatal(err)
		}
		if cc.Usage.PromptTokensDetails == nil {
			return cc.Usage.CachedTokens, nil
		}
		return cc.Usage.CachedTokens, &cc.Usage.PromptTokensDetails.CachedTokens
	}

	if cached, details := usageOf(); cached != 0 || details != nil {
		t.Errorf("cold chat: cached_tokens=%d details=%v, want 0 and absent", cached, details)
	}
	cached, details := usageOf()
	if cached <= 0 {
		t.Errorf("warm chat cached %d tokens, want > 0", cached)
	}
	if details == nil || *details != cached {
		t.Errorf("prompt_tokens_details %v, want %d", details, cached)
	}
}

func TestCacheStatusAndFlushEndpoints(t *testing.T) {
	_, srv := cachedServer(t, 64)
	postGenerate(t, srv, sharedPromptBody)
	postGenerate(t, srv, sharedPromptBody) // the hit

	doc, keys := debugState(t, srv)
	if st := doc.Cache; st == nil || !st.Enabled || st.Hits < 1 || st.RetainedBlocks == 0 || len(st.Lanes) != 1 {
		t.Errorf("cache state after a hit: %s", keys["cache"])
	}

	resp, raw := doOn(t, srv, http.MethodPost, "/v1/admin/cache/flush", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d: %s", resp.StatusCode, raw)
	}
	var fl struct {
		BlocksReleased int `json:"blocks_released"`
	}
	if err := json.Unmarshal(raw, &fl); err != nil {
		t.Fatal(err)
	}
	if fl.BlocksReleased == 0 {
		t.Error("flush released no blocks despite retained prefixes")
	}

	if doc, keys = debugState(t, srv); doc.Cache == nil || doc.Cache.RetainedBlocks != 0 {
		t.Errorf("flush left retained blocks: %s", keys["cache"])
	}
}

func TestCacheEndpoints404WhenDisabled(t *testing.T) {
	// No governor at all.
	gw := gateway.New(gateway.Config{}, stubResolver(stubCost{}))
	bare := httptest.NewServer(NewServer(gw).Handler())
	defer bare.Close()
	// Governor present but caching off.
	_, governed := governedServer(t, 16, nil)

	for _, srv := range []*httptest.Server{bare, governed} {
		if _, keys := debugState(t, srv); keys["cache"] != nil {
			t.Errorf("cache state while caching is off: %s", keys["cache"])
		}
		resp, raw := doOn(t, srv, http.MethodPost, "/v1/admin/cache/flush", "")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("flush status %d, want 404: %s", resp.StatusCode, raw)
		}
		if code, _ := errEnvelope(t, raw); code != CodeNotFound {
			t.Errorf("flush code %q, want %q", code, CodeNotFound)
		}
	}
}

// TestStateCacheCountsMatchResponses replays the wire golden's cache
// group and holds the state document to what the responses reported: a
// hit per response that adopted cached tokens, a miss per response whose
// cache lookup ran (its cache_lookup phase) and adopted nothing, and
// hit_tokens the sum of the responses' cached_tokens — in the aggregate
// and in the lane entry.
func TestStateCacheCountsMatchResponses(t *testing.T) {
	var group wireGroup
	for _, g := range wireGroups() {
		if g.name == "cache" {
			group = g
		}
	}
	h := NewServer(group.backend(t)).Handler()
	cachedTokens := regexp.MustCompile(`"cached_tokens":([0-9]+)`)
	var hits, misses, tokens uint64
	var doc struct{ Cache govern.CacheStatus }
	for _, c := range group.calls {
		method := c.method
		if method == "" {
			method = http.MethodPost
		}
		req := httptest.NewRequest(method, c.path, strings.NewReader(c.body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", c.name, rec.Code)
		}
		if c.path == "/v1/debug/state" {
			if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var cached uint64
		if m := cachedTokens.FindStringSubmatch(rec.Body.String()); m != nil {
			cached, _ = strconv.ParseUint(m[1], 10, 64)
		}
		header := rec.Header().Get("X-Prefix-Cache")
		if header != "" && strings.HasPrefix(header, "hit") != (cached > 0) {
			t.Fatalf("%s: X-Prefix-Cache %q with cached_tokens %d", c.name, header, cached)
		}
		switch {
		case cached > 0:
			hits++
			tokens += cached
		case strings.Contains(rec.Header().Get("Server-Timing"), "cache_lookup"):
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("cache group served %d hits and %d misses; it must exercise both", hits, misses)
	}
	cs := doc.Cache
	if len(cs.Lanes) != 1 {
		t.Fatalf("state has %d cache lanes, want 1", len(cs.Lanes))
	}
	lane := cs.Lanes[0]
	for _, got := range [][3]uint64{{cs.Hits, cs.Misses, cs.HitTokens}, {lane.Hits, lane.Misses, lane.HitTokens}} {
		if got != [3]uint64{hits, misses, tokens} {
			t.Errorf("state reports hits/misses/hit_tokens %v, responses %v", got, [3]uint64{hits, misses, tokens})
		}
	}
}
