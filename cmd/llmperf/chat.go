package main

// chat.go is llmperf's prefix-cache measurement mode: it replays a
// multi-turn chatbot trace (internal/workload.ChatSessions) against a
// running llmperfd twice — once with the prefix cache disabled per
// request, once enabled — and reports the hit rate and the prefill
// compute the cache saved. Prefill compute is measured in modeled
// seconds (ttft_s - queue_s from each result), so the comparison is
// deterministic and independent of -timescale.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/workload"
)

// chatResult aggregates one replay pass.
type chatResult struct {
	ok, failed     int
	prefillSeconds float64 // sum of modeled ttft - queue
	hits           int
	cachedTokens   int
	savedSeconds   float64 // server-reported cost-model savings
}

// loadChat runs the chatbot A/B measurement. Sessions replay
// sequentially within themselves (turn t+1 needs turn t's context) and
// concurrently across each other, bounded by concurrency.
func loadChat(stdout io.Writer, base, platform, modelName string, in, out, sessions, turns, sysTokens, concurrency int, seed int64) {
	g := workload.NewGenerator(seed)
	g.MeanInputLen, g.MeanOutputLen = in, out
	trace := workload.BySession(g.ChatSessions(sessions, turns, sysTokens))
	total := sessions * turns

	fmt.Fprintf(stdout, "chat: %d sessions x %d turns to %s/v1/generate (%s/%s, system=%d user~%d out~%d), %d clients\n",
		sessions, turns, base, platform, modelName, sysTokens, in, out, concurrency)

	off := replayChat(base, platform, modelName, trace, concurrency, false)
	flushCache(base)
	on := replayChat(base, platform, modelName, trace, concurrency, true)

	fmt.Fprintf(stdout, "  cache off  : %d ok, %d failed, prefill %.3fs (modeled)\n",
		off.ok, off.failed, off.prefillSeconds)
	fmt.Fprintf(stdout, "  cache on   : %d ok, %d failed, prefill %.3fs (modeled)\n",
		on.ok, on.failed, on.prefillSeconds)
	hitRate := 0.0
	if on.ok > 0 {
		hitRate = float64(on.hits) / float64(on.ok)
	}
	fmt.Fprintf(stdout, "  cache hits : %d/%d (hit_rate=%.2f), %d prompt tokens served from cache\n",
		on.hits, total, hitRate, on.cachedTokens)
	fmt.Fprintf(stdout, "  saved      : %.3fs prefill compute per the platform cost model\n", on.savedSeconds)
	if off.prefillSeconds > 0 {
		red := 100 * (1 - on.prefillSeconds/off.prefillSeconds)
		fmt.Fprintf(stdout, "  prefill_reduction=%.1f%% (cache on vs off)\n", red)
	}
	printServerCacheStatus(stdout, base)
}

// replayChat replays the per-session trace once and aggregates results.
func replayChat(base string, platform, modelName string, trace [][]workload.PrefixRequest, concurrency int, cacheOn bool) chatResult {
	client := &http.Client{Timeout: 5 * time.Minute}
	var mu sync.Mutex
	var agg chatResult
	sem := make(chan struct{}, concurrency)
	var wg sync.WaitGroup
	for _, session := range trace {
		wg.Add(1)
		go func(session []workload.PrefixRequest) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, r := range session {
				body := map[string]any{
					"platform": platform, "model": modelName,
					"in": r.InputLen, "out": r.OutputLen,
					"prefix_group": r.Group, "prefix_tokens": r.SharedTokens,
				}
				if !cacheOn {
					body["cache"] = map[string]any{"enabled": false}
				}
				buf, _ := json.Marshal(body) // strings, ints and bools always marshal
				resp, err := client.Post(base+"/v1/generate", "application/json", bytes.NewReader(buf))
				if err != nil {
					mu.Lock()
					agg.failed++
					mu.Unlock()
					continue
				}
				var res struct {
					QueueSeconds        float64 `json:"queue_s"`
					TTFTSeconds         float64 `json:"ttft_s"`
					CachedTokens        int     `json:"cached_tokens"`
					PrefillSavedSeconds float64 `json:"prefill_saved_s"`
				}
				decodeErr := json.NewDecoder(resp.Body).Decode(&res)
				hdr := resp.Header.Get("X-Prefix-Cache")
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode != http.StatusOK || decodeErr != nil {
					agg.failed++
				} else {
					agg.ok++
					if p := res.TTFTSeconds - res.QueueSeconds; p > 0 {
						agg.prefillSeconds += p
					}
					if res.CachedTokens > 0 || strings.HasPrefix(hdr, "hit") {
						agg.hits++
						agg.cachedTokens += res.CachedTokens
						agg.savedSeconds += res.PrefillSavedSeconds
					}
				}
				mu.Unlock()
			}
		}(session)
	}
	wg.Wait()
	return agg
}

// flushCache resets the server's prefix cache between the A and B passes
// so the enabled pass starts cold. A 404 (caching disabled server-side)
// is tolerated; the B pass will simply score zero hits.
func flushCache(base string) {
	resp, err := http.Post(base+"/v1/admin/cache/flush", "application/json", nil)
	if err == nil {
		resp.Body.Close()
	}
}

// cacheStatus is the part of a gateway's prefix-cache state the chat
// report prints; gatewayState holds it (nil while caching is off).
type cacheStatus struct {
	Hits, Misses, Evictions uint64
	HitTokens               uint64 `json:"hit_tokens"`
	RetainedBlocks          int    `json:"retained_blocks"`
}
type gatewayState struct{ Cache *cacheStatus }

// printServerCacheStatus corroborates the client-side tallies with the
// cache section of the server's GET /v1/debug/state, summed over the
// replicas when the server runs a cluster.
func printServerCacheStatus(stdout io.Writer, base string) {
	resp, err := http.Get(base + "/v1/debug/state")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var st struct {
		gatewayState
		Cluster *struct {
			Replicas []struct{ Gateway gatewayState }
		}
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return
	}
	states := []gatewayState{st.gatewayState}
	if st.Cluster != nil {
		for _, r := range st.Cluster.Replicas {
			states = append(states, r.Gateway)
		}
	}
	var sum cacheStatus
	caching := false
	for _, g := range states {
		if c := g.Cache; c != nil {
			caching = true
			sum.Hits += c.Hits
			sum.Misses += c.Misses
			sum.Evictions += c.Evictions
			sum.HitTokens += c.HitTokens
			sum.RetainedBlocks += c.RetainedBlocks
		}
	}
	if !caching {
		return
	}
	hitRate := 0.0
	if n := sum.Hits + sum.Misses; n > 0 {
		hitRate = float64(sum.Hits) / float64(n)
	}
	fmt.Fprintf(stdout, "  server     : cache hit_rate=%.2f retained_blocks=%d hit_tokens=%d evictions=%d\n",
		hitRate, sum.RetainedBlocks, sum.HitTokens, sum.Evictions)
}
