package main

// ramp.go is the overload-control load sweep (-ramp): calibrate the
// server's capacity closed-loop, then sweep open-loop offered load
// through a list of multipliers of that capacity with a three-way
// interactive/standard/batch class mix, and report per-class
// goodput-vs-offered-load. Goodput for the interactive class is
// SLO-conditioned: a request only counts if its client-measured TTFT is
// inside the target. The final greppable summary lines drive the
// `make overload-demo` A/B assertions:
//
//	interactive_goodput_ratio=NN        goodput at the top step vs the
//	                                    peak across all steps, percent
//	interactive_p99_ttft_ms_at_2x=NN.N  client p99 TTFT at the top step

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

var rampClasses = []string{"interactive", "standard", "batch"}

// rampOutcome is one finished request as the client saw it.
type rampOutcome struct {
	class string
	ok    bool    // HTTP 200 and the stream reached data: [DONE]
	ttft  float64 // seconds; 0 when no token arrived
}

// loadRamp runs the sweep. steps is a comma-separated multiplier list
// ("0.5,1,2"); stepDur is the open-loop duration per step; sloMs is the
// interactive TTFT target goodput is conditioned on.
func loadRamp(stdout io.Writer, base, platform, modelName string, in, out, concurrency int,
	steps string, stepDur time.Duration, sloMs float64) error {
	mults, err := parseRampSteps(steps)
	if err != nil {
		return err
	}
	endpoint := base + "/v1/generate"

	// Phase 1 — calibrate: closed-loop standard-class traffic measures
	// the sustainable completion rate with no queue growth; that is the
	// capacity the multipliers scale.
	capacity := calibrate(endpoint, platform, modelName, in, out, concurrency, stepDur)
	if capacity <= 0 {
		return fmt.Errorf("calibration completed no requests — is %s serving?", base)
	}
	fmt.Fprintf(stdout, "ramp: calibrated capacity %.1f req/s (%d closed-loop clients, %.0fs)\n",
		capacity, concurrency, stepDur.Seconds())

	// Phase 2 — sweep: open-loop arrivals at each multiplier of capacity
	// with a 1/3-each class mix. Requests carry both the priority body
	// field and the X-SLO-Class header (the API requires them to agree),
	// and a deadline derived from the SLO so doomed work is evicted
	// server-side instead of timing out at the client.
	type stepResult struct {
		mult    float64
		offered float64
		goodput map[string]float64 // SLO-conditioned req/s for interactive, raw for others
		p99TTFT map[string]float64 // ms
		sent    int
	}
	var results []stepResult
	for _, m := range mults {
		rate := m * capacity
		outcomes, sent := rampStep(endpoint, platform, modelName, in, out, rate, stepDur, sloMs)
		sr := stepResult{mult: m, offered: rate, sent: sent,
			goodput: map[string]float64{}, p99TTFT: map[string]float64{}}
		for _, cls := range rampClasses {
			var good int
			var ttfts []float64
			for _, o := range outcomes {
				if o.class != cls || !o.ok {
					continue
				}
				if o.ttft > 0 {
					ttfts = append(ttfts, o.ttft)
				}
				// Interactive goodput is SLO-conditioned: a token that
				// arrived late is as useless to an interactive caller as
				// no token at all.
				if cls == "interactive" && o.ttft*1e3 > sloMs {
					continue
				}
				good++
			}
			sr.goodput[cls] = float64(good) / stepDur.Seconds()
			if len(ttfts) > 0 {
				sort.Float64s(ttfts)
				sr.p99TTFT[cls] = quantileSorted(ttfts, 0.99) * 1e3
			}
		}
		results = append(results, sr)
		fmt.Fprintf(stdout, "ramp step x%.2f: offered=%.1f req/s sent=%d", m, rate, sent)
		for _, cls := range rampClasses {
			fmt.Fprintf(stdout, " | %s goodput=%.1f/s p99_ttft=%.0fms",
				cls, sr.goodput[cls], sr.p99TTFT[cls])
		}
		fmt.Fprintln(stdout)
	}

	// Summary: the ratio pits the top (most overloaded) step's
	// interactive goodput against the best step's. A server that falls
	// over a cliff past saturation scores near zero; graceful overload
	// control holds it near 100.
	peak := 0.0
	for _, sr := range results {
		if g := sr.goodput["interactive"]; g > peak {
			peak = g
		}
	}
	last := results[len(results)-1]
	ratio := 0.0
	if peak > 0 {
		ratio = 100 * last.goodput["interactive"] / peak
	}
	fmt.Fprintf(stdout, "interactive_goodput_ratio=%.0f\n", ratio)
	fmt.Fprintf(stdout, "interactive_p99_ttft_ms_at_2x=%.1f\n", last.p99TTFT["interactive"])
	fmt.Fprintf(stdout, "interactive_slo_ok=%d\n", boolToInt(
		last.p99TTFT["interactive"] > 0 && last.p99TTFT["interactive"] <= sloMs))
	return nil
}

func parseRampSteps(s string) ([]float64, error) {
	var mults []float64
	for _, f := range strings.Split(s, ",") {
		m, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || m <= 0 {
			return nil, fmt.Errorf("-ramp-steps %q: each step must be a positive multiplier", s)
		}
		mults = append(mults, m)
	}
	if len(mults) == 0 {
		return nil, fmt.Errorf("-ramp-steps must list at least one multiplier")
	}
	return mults, nil
}

// calibrate runs closed-loop standard-class traffic and returns the
// observed completion rate (req/s).
func calibrate(endpoint, platform, modelName string, in, out, concurrency int,
	dur time.Duration) float64 {
	body, _ := json.Marshal(map[string]any{ // strings and ints always marshal
		"platform": platform, "model": modelName, "in": in, "out": out,
		"priority": "standard"})
	client := &http.Client{Timeout: time.Minute}
	var completed int64
	var mu sync.Mutex
	stop := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				resp, err := client.Post(endpoint, "application/json", bytes.NewReader(body))
				if err != nil {
					continue
				}
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					mu.Lock()
					completed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return float64(completed) / dur.Seconds()
}

// rampStep fires open-loop arrivals at rate req/s for dur, cycling the
// class mix, and returns every outcome plus the number of requests sent.
// Arrivals are paced on a fixed interval; each request runs in its own
// goroutine (open loop: arrivals do not wait for completions), streams
// its response to measure client TTFT, and carries a deadline of 4× the
// interactive SLO so a collapsed server fails fast instead of hanging
// the step.
func rampStep(endpoint, platform, modelName string, in, out int,
	rate float64, dur time.Duration, sloMs float64) ([]rampOutcome, int) {
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	deadline := time.Duration(4*sloMs) * time.Millisecond
	client := &http.Client{Timeout: 2 * deadline}

	var (
		mu       sync.Mutex
		outcomes []rampOutcome
		wg       sync.WaitGroup
		sent     int
	)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	stop := time.Now().Add(dur)
	for i := 0; time.Now().Before(stop); i++ {
		<-ticker.C
		cls := rampClasses[i%len(rampClasses)]
		sent++
		wg.Add(1)
		go func(cls string) {
			defer wg.Done()
			o := streamOnce(client, endpoint, platform, modelName, in, out, cls, deadline)
			mu.Lock()
			outcomes = append(outcomes, o)
			mu.Unlock()
		}(cls)
	}
	wg.Wait()
	return outcomes, sent
}

// streamOnce runs one streaming generate call for a class and measures
// client-side TTFT. The class travels in both the priority body field
// and the X-SLO-Class header; the deadline in X-Request-Deadline.
func streamOnce(client *http.Client, endpoint, platform, modelName string,
	in, out int, cls string, deadline time.Duration) rampOutcome {
	o := rampOutcome{class: cls}
	body, err := json.Marshal(map[string]any{
		"platform": platform, "model": modelName, "in": in, "out": out,
		"stream": true, "priority": cls})
	if err != nil {
		return o
	}
	req, err := http.NewRequest(http.MethodPost, endpoint, bytes.NewReader(body))
	if err != nil {
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-SLO-Class", cls)
	req.Header.Set("X-Request-Deadline", deadline.String())
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return o
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	tokens, done := 0, false
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		if data == "[DONE]" {
			done = true
			break
		}
		var ev struct {
			Object string `json:"object"`
		}
		if json.Unmarshal([]byte(data), &ev) != nil || ev.Object != "generate.token" {
			continue
		}
		if tokens == 0 {
			o.ttft = time.Since(t0).Seconds()
		}
		tokens++
	}
	o.ok = done && tokens > 0
	return o
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
