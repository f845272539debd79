package main

// load.go is the load generator's one request runner (-url): the request
// it sends, the outcome it records, the schedules the modes run it on,
// and the plain/-stream report. Latencies measured here are client wall
// time; the values read out of results (queue_s, ttft_s,
// prefill_saved_s) are the server's.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/trace"
)

// runner sends one run's generation requests to a running llmperfd. Its
// client keeps an idle connection per concurrent client, so a closed
// loop reuses its connections instead of reopening them.
type runner struct {
	client          *http.Client
	base            string
	platform, model string
	clients         int // -concurrency
}

func newRunner(base, platform, model string, clients int) *runner {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns, tr.MaxIdleConnsPerHost = max(tr.MaxIdleConns, clients), clients
	return &runner{client: &http.Client{Transport: tr}, base: base,
		platform: platform, model: model, clients: clients}
}

// request is one /v1/generate body. Priority also travels as the
// X-SLO-Class header (the API requires the two to agree), deadline as
// X-Request-Deadline.
type request struct {
	Platform     string          `json:"platform"`
	Model        string          `json:"model"`
	In           int             `json:"in"`
	Out          int             `json:"out"`
	Stream       bool            `json:"stream,omitempty"`
	Priority     string          `json:"priority,omitempty"`
	PrefixGroup  string          `json:"prefix_group,omitempty"`
	PrefixTokens int             `json:"prefix_tokens,omitempty"`
	Cache        map[string]bool `json:"cache,omitempty"`
	deadline     time.Duration
}

// result is what the client reads of a generation result: the buffered
// body, or a stream's terminal generate.result event. A buffered
// response carries the attribution fields as headers instead.
type result struct {
	QueueSeconds        float64 `json:"queue_s"`
	TTFTSeconds         float64 `json:"ttft_s"`
	CachedTokens        int     `json:"cached_tokens"`
	PrefillSavedSeconds float64 `json:"prefill_saved_s"`
	PrefixCache         string  `json:"prefix_cache"`
	Replica             string  `json:"replica"`
	Failovers           int     `json:"failovers"`
	Hedged              bool    `json:"hedged"`
}

// outcome is one request as the client saw it.
type outcome struct {
	class  string // the request's Priority
	err    error  // transport failure, or an undecodable buffered body
	status int
	done   bool    // the whole result arrived: the buffered body, or a stream's data: [DONE]
	wall   float64 // client seconds from sending to the end of the body
	result
	phases map[string]float64 // a buffered response's Server-Timing, ms per phase
	// Streams: client seconds to the first generate.token event and
	// between consecutive ones, and how many arrived.
	ttft   float64
	itls   []float64
	tokens int
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK && o.done }

// do sends one generation request and reads its response to the end.
func (r *runner) do(q request) outcome {
	q.Platform, q.Model = r.platform, r.model
	o := outcome{class: q.Priority}
	body, _ := json.Marshal(q) // strings, ints, bools and a map of bools always marshal
	req, err := http.NewRequest(http.MethodPost, r.base+"/v1/generate", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	if q.Priority != "" {
		req.Header.Set("X-SLO-Class", q.Priority)
	}
	if q.deadline > 0 {
		req.Header.Set("X-Request-Deadline", q.deadline.String())
	}
	t0 := time.Now()
	resp, err := r.client.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	switch {
	case o.status != http.StatusOK:
	case q.Stream:
		o.readSSE(resp.Body, t0)
	default:
		h := resp.Header
		o.err = json.NewDecoder(resp.Body).Decode(&o.result)
		o.done = o.err == nil
		o.phases = trace.ParseServerTiming(h.Get("Server-Timing"))
		o.Replica, o.PrefixCache = h.Get("X-Replica-ID"), h.Get("X-Prefix-Cache")
		o.Failovers, _ = strconv.Atoi(h.Get("X-Failovers")) // absent outside a cluster
		o.Hedged = h.Get("X-Hedged") == "true"
	}
	// Drained, the connection goes back to the idle pool.
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.wall = time.Since(t0).Seconds()
	return o
}

// readSSE reads a stream up to data: [DONE], timing each generate.token
// event from t0 and keeping the terminal generate.result event. Other
// events (usage, an error envelope) are skipped; a stream that ends
// without [DONE] is left not done, i.e. aborted.
func (o *outcome) readSSE(body io.Reader, t0 time.Time) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	last := t0
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue // blank separator lines
		}
		if data == "[DONE]" {
			o.done = true
			return
		}
		var ev struct {
			Object string `json:"object"`
			result
		}
		if json.Unmarshal([]byte(data), &ev) != nil {
			continue
		}
		switch ev.Object {
		case "generate.token":
			now := time.Now()
			if o.tokens == 0 {
				o.ttft = now.Sub(t0).Seconds()
			} else {
				o.itls = append(o.itls, now.Sub(last).Seconds())
			}
			last = now
			o.tokens++
		case "generate.result":
			o.result = ev.result
		}
	}
}

// closedLoop is the closed-loop schedule: r.clients clients, each taking
// the next job, cycling through jobs, and sending its requests one after
// another, each as soon as the last one finished — n jobs in all, or,
// with stop set, until stop. A timed client also quits at its first
// transport error instead of spinning against a dead address.
func (r *runner) closedLoop(jobs [][]request, n int, stop time.Time) []outcome {
	var (
		mu   sync.Mutex
		outs []outcome
		next int
		wg   sync.WaitGroup
	)
	timed := !stop.IsZero()
	for w := 0; w < r.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if timed && !time.Now().Before(stop) || !timed && i >= n {
					return
				}
				for _, q := range jobs[i%len(jobs)] {
					o := r.do(q)
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
					if timed && o.err != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// openLoop is the paced open-loop schedule: for dur, one arrival every
// 1/rate seconds, each on its own goroutine so arrivals never wait for
// completions. Arrivals cycle through mix.
func (r *runner) openLoop(rate float64, dur time.Duration, mix []request) []outcome {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	var (
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i, stop := 0, time.Now().Add(dur); time.Now().Before(stop); i++ {
		<-ticker.C
		wg.Add(1)
		go func(q request) {
			defer wg.Done()
			o := r.do(q)
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}(mix[i%len(mix)])
	}
	wg.Wait()
	return outs
}

// load is the plain and -stream mode: n copies of q over the closed
// loop, then a count per HTTP status, client latency percentiles of the
// requests that completed — for streams also TTFT and inter-token
// latency, the two a streaming user perceives (§II-C) — and what the
// server attributed to them.
func (r *runner) load(w io.Writer, q request, n int) {
	start := time.Now()
	outs := r.closedLoop([][]request{{q}}, n, time.Time{})
	wall := time.Since(start).Seconds()

	mode := "load"
	if q.Stream {
		mode = "stream"
	}
	fmt.Fprintf(w, "%s: %d requests to %s/v1/generate (%s/%s in=%d out=%d), %d clients, %.2fs wall\n",
		mode, n, r.base, r.platform, r.model, q.In, q.Out, r.clients, wall)
	statuses := map[int]int{}
	var netErrs, aborted, tokens int
	var done []outcome
	var e2es, ttfts, itls []float64
	for _, o := range outs {
		if o.err != nil {
			netErrs++
			continue
		}
		statuses[o.status]++
		if o.status != http.StatusOK {
			continue
		}
		if o.tokens > 0 {
			ttfts = append(ttfts, o.ttft)
			itls = append(itls, o.itls...)
			tokens += o.tokens
		}
		if !o.done {
			aborted++
			continue
		}
		done = append(done, o)
		e2es = append(e2es, o.wall)
	}
	var codes []int
	for c := range statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		fmt.Fprintf(w, "  HTTP %d    : %d\n", c, statuses[c])
	}
	if netErrs > 0 {
		fmt.Fprintf(w, "  transport  : %d errors\n", netErrs)
	}
	if aborted > 0 {
		fmt.Fprintf(w, "  aborted    : %d streams ended without [DONE]\n", aborted)
	}
	if !q.Stream {
		printPercentiles(w, "  latency    : p50 %.3fs   p95 %.3fs   p99 %.3fs (client wall)\n", 1, e2es)
		if len(e2es) > 0 {
			fmt.Fprintf(w, "  throughput : %.1f req/s completed\n", float64(len(e2es))/wall)
		}
	} else {
		printPercentiles(w, "  TTFT       : p50 %.3fs   p95 %.3fs   p99 %.3fs (client wall)\n", 1, ttfts)
		printPercentiles(w, "  ITL        : p50 %.1fms   p95 %.1fms   p99 %.1fms (inter-token)\n", 1e3, itls)
		printPercentiles(w, "  E2E        : p50 %.3fs   p95 %.3fs   p99 %.3fs\n", 1, e2es)
		if len(e2es) > 0 {
			fmt.Fprintf(w, "  throughput : %.1f tok/s streamed, %.1f req/s completed\n",
				float64(tokens)/wall, float64(len(e2es))/wall)
		}
	}
	printAttribution(w, done)
}

// printAttribution renders what the server attributed to the completed
// requests: how a clustered llmperfd spread them and the failover and
// hedging it took (silent without X-Replica-ID, i.e. one gateway), where
// their server-side time went per Server-Timing phase (queueing, batch
// formation, prefill, decode, ...).
func printAttribution(w io.Writer, done []outcome) {
	replicas := map[string]int{}
	phases := map[string][]float64{}
	var failovers, hedged int
	for _, o := range done {
		if o.Replica != "" {
			replicas[o.Replica]++
		}
		failovers += o.Failovers
		if o.Hedged {
			hedged++
		}
		// ParseServerTiming yields milliseconds (the header's dur unit);
		// the breakdown table reports seconds.
		for name, ms := range o.phases {
			phases[name] = append(phases[name], ms/1e3)
		}
	}
	if len(replicas) > 0 {
		var ids []string
		total := 0
		for id, c := range replicas {
			ids = append(ids, id)
			total += c
		}
		sort.Strings(ids)
		fmt.Fprintln(w, "  replica distribution:")
		for _, id := range ids {
			fmt.Fprintf(w, "    %-10s %6d (%.0f%%)\n", id, replicas[id], 100*float64(replicas[id])/float64(total))
		}
		if failovers > 0 || hedged > 0 {
			fmt.Fprintf(w, "  failovers  : %d rescued requests, %d hedge wins\n", failovers, hedged)
		}
	}
	if len(phases) > 0 {
		// Canonical phases first, in trace.PhaseOrder, then the rest by name.
		names := slices.DeleteFunc(slices.Clone(trace.PhaseOrder), func(name string) bool { return phases[name] == nil })
		var rest []string
		for name := range phases {
			if !slices.Contains(trace.PhaseOrder, name) {
				rest = append(rest, name)
			}
		}
		sort.Strings(rest)
		names = append(names, rest...)
		fmt.Fprintln(w, "  server-side phase breakdown (Server-Timing):")
		fmt.Fprintf(w, "    %-12s %8s %10s %10s %10s\n", "phase", "n", "p50", "p95", "p99")
		for _, name := range names {
			printPercentiles(w, fmt.Sprintf("    %-12s %8d ", name, len(phases[name]))+"%9.3fs %9.3fs %9.3fs\n", 1, phases[name])
		}
	}
}

// printPercentiles prints the p50, p95 and p99 of xs, each times scale,
// through format; silent when xs is empty.
func printPercentiles(w io.Writer, format string, scale float64, xs []float64) {
	if len(xs) == 0 {
		return
	}
	sort.Float64s(xs)
	fmt.Fprintf(w, format, quantileSorted(xs, 0.50)*scale, quantileSorted(xs, 0.95)*scale, quantileSorted(xs, 0.99)*scale)
}

// quantileSorted returns the p-quantile of an ascending-sorted slice.
func quantileSorted(xs []float64, p float64) float64 {
	return xs[max(int(math.Ceil(p*float64(len(xs))))-1, 0)]
}
