package main

// chat.go is llmperf's prefix-cache measurement mode: it replays a
// multi-turn chatbot trace (internal/workload.ChatSessions) against a
// running llmperfd twice — once with the prefix cache disabled per
// request, once enabled — and reports the hit rate and the prefill
// compute the cache saved. Prefill compute is each result's modeled
// ttft_s, summed per pass: the server models it from admission on, so
// time spent queueing (the wall-clock queue_s) is not in it.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/workload"
)

// chatResult aggregates one replay pass.
type chatResult struct {
	ok, failed     int
	prefillSeconds float64 // sum of modeled ttft
	hits           int
	cachedTokens   int
	savedSeconds   float64 // server-reported cost-model savings
}

// loadChat runs the chatbot A/B measurement. Sessions replay
// sequentially within themselves (turn t+1 needs turn t's context) and
// concurrently across each other, one per client.
func loadChat(stdout io.Writer, r *runner, in, out, sessions, turns, sysTokens int, seed int64) {
	g := workload.NewGenerator(seed)
	g.MeanInputLen, g.MeanOutputLen = in, out
	trace := workload.BySession(g.ChatSessions(sessions, turns, sysTokens))

	fmt.Fprintf(stdout, "chat: %d sessions x %d turns to %s/v1/generate (%s/%s, system=%d user~%d out~%d), %d clients\n",
		sessions, turns, r.base, r.platform, r.model, sysTokens, in, out, r.clients)

	off := r.replayChat(trace, map[string]bool{"enabled": false})
	r.flushCache()
	on := r.replayChat(trace, nil)

	fmt.Fprintf(stdout, "  cache off  : %d ok, %d failed, prefill %.3fs (modeled)\n",
		off.ok, off.failed, off.prefillSeconds)
	fmt.Fprintf(stdout, "  cache on   : %d ok, %d failed, prefill %.3fs (modeled)\n",
		on.ok, on.failed, on.prefillSeconds)
	fmt.Fprintf(stdout, "  cache hits : %d/%d (hit_rate=%.2f), %d prompt tokens served from cache\n",
		on.hits, on.ok, float64(on.hits)/float64(max(on.ok, 1)), on.cachedTokens)
	fmt.Fprintf(stdout, "  saved      : %.3fs prefill compute per the platform cost model\n", on.savedSeconds)
	if off.prefillSeconds > 0 {
		fmt.Fprintf(stdout, "  prefill_reduction=%.1f%% (cache on vs off)\n", 100*(1-on.prefillSeconds/off.prefillSeconds))
	}
	r.printServerCacheStatus(stdout)
}

// replayChat replays the per-session trace once, one session per job of
// the closed loop, with cache as each request's cache option, and
// aggregates the results.
func (r *runner) replayChat(trace [][]workload.PrefixRequest, cache map[string]bool) chatResult {
	jobs := make([][]request, len(trace))
	for i, session := range trace {
		for _, p := range session {
			jobs[i] = append(jobs[i], request{In: p.InputLen, Out: p.OutputLen,
				PrefixGroup: p.Group, PrefixTokens: p.SharedTokens, Cache: cache})
		}
	}
	outs := r.closedLoop(jobs, len(jobs), time.Time{})
	var agg chatResult
	for _, o := range outs {
		if !o.ok() {
			agg.failed++
			continue
		}
		agg.ok++
		agg.prefillSeconds += o.TTFTSeconds
		if o.CachedTokens > 0 || strings.HasPrefix(o.PrefixCache, "hit") {
			agg.hits++
			agg.cachedTokens += o.CachedTokens
			agg.savedSeconds += o.PrefillSavedSeconds
		}
	}
	return agg
}

// flushCache resets the server's prefix cache between the A and B passes
// so the enabled pass starts cold. A 404 (caching disabled server-side)
// is tolerated; the B pass will simply score zero hits.
func (r *runner) flushCache() {
	if resp, err := r.client.Post(r.base+"/v1/admin/cache/flush", "application/json", nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// printServerCacheStatus corroborates the client-side tallies with the
// cache section of the server's GET /v1/debug/state, summed over the
// replicas when the server runs a cluster; silent while caching is off.
func (r *runner) printServerCacheStatus(stdout io.Writer) {
	resp, err := r.client.Get(r.base + "/v1/debug/state")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	type cacheStatus struct {
		Hits, Misses, Evictions uint64
		HitTokens               uint64 `json:"hit_tokens"`
		RetainedBlocks          int    `json:"retained_blocks"`
	}
	var st struct {
		Cache   *cacheStatus
		Cluster struct {
			Replicas []struct{ Gateway struct{ Cache *cacheStatus } }
		}
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil {
		return
	}
	caches := []*cacheStatus{st.Cache}
	for _, r := range st.Cluster.Replicas {
		caches = append(caches, r.Gateway.Cache)
	}
	var sum cacheStatus
	caching := false
	for _, c := range caches {
		if c != nil {
			caching = true
			sum.Hits, sum.Misses, sum.Evictions = sum.Hits+c.Hits, sum.Misses+c.Misses, sum.Evictions+c.Evictions
			sum.HitTokens, sum.RetainedBlocks = sum.HitTokens+c.HitTokens, sum.RetainedBlocks+c.RetainedBlocks
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
