package main

import (
	"fmt"
	"runtime"
	"time"
)

// window is one measured stretch of a workload: what the client saw of
// every request, and the process-wide counters across it.
type window struct {
	attempted, failed int
	firstErr          error
	checksum          uint64

	// One entry per succeeded request.
	ttft, tpot, e2e []float64 // ms
	tokens          int       // output tokens of the succeeded requests

	start time.Time
	cpu0  float64
	mem0  runtime.MemStats

	wallS, cpuS float64
	mallocs     uint64
	gcCycles    uint32
	gcPauseS    float64
	allocMiB    float64
}

// sampleCapacity sizes sample buffers before the window opens, so that the
// harness's own growth does not move peak RSS or the malloc counts.
func sampleCapacity(seconds float64, perSecond int) int {
	return int(seconds*float64(perSecond)) + 64
}

func newWindow(capacity int) *window {
	return &window{
		ttft: make([]float64, 0, capacity),
		tpot: make([]float64, 0, capacity),
		e2e:  make([]float64, 0, capacity),
	}
}

// begin reads the process counters and starts the clock.
func (w *window) begin() time.Time {
	runtime.ReadMemStats(&w.mem0)
	w.cpu0, _ = cpuSeconds()
	w.start = time.Now()
	return w.start
}

// end stops the clock and takes the counters' deltas.
func (w *window) end() {
	w.wallS = time.Since(w.start).Seconds()
	cpu, _ := cpuSeconds()
	w.cpuS = cpu - w.cpu0
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.mallocs = m.Mallocs - w.mem0.Mallocs
	w.gcCycles = m.NumGC - w.mem0.NumGC
	w.gcPauseS = float64(m.PauseTotalNs-w.mem0.PauseTotalNs) / 1e9
	w.allocMiB = float64(m.TotalAlloc-w.mem0.TotalAlloc) / (1 << 20)
}

// sample is one succeeded request as its client saw it.
type sample struct {
	ttftMs, tpotMs, e2eMs float64
	tokens                int
}

// ok records one succeeded request.
func (w *window) ok(s sample) {
	w.attempted++
	w.ttft = append(w.ttft, s.ttftMs)
	w.tpot = append(w.tpot, s.tpotMs)
	w.e2e = append(w.e2e, s.e2eMs)
	w.tokens += s.tokens
}

// fail records one request that errored, was refused, or failed its
// output check. It contributes no latency sample.
func (w *window) fail(err error) {
	w.attempted++
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// merge folds a submitter's samples into w.
func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.ttft = append(w.ttft, o.ttft...)
	w.tpot = append(w.tpot, o.tpot...)
	w.e2e = append(w.e2e, o.e2e...)
	w.tokens += o.tokens
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

func (w *window) succeeded() int { return w.attempted - w.failed }

// reqPerS is completed requests over the window's wall time.
func (w *window) reqPerS() float64 { return ratio(float64(w.succeeded()), w.wallS) }

// endToEnd fills the workload-scoped end-to-end metrics (setup_s and
// peak_rss_mb are the caller's), every one over the whole window.
func (w *window) endToEnd(m metricSet) {
	m.set("req_s", w.reqPerS())
	m.set("tok_s", ratio(float64(w.tokens), w.wallS))
	m.set("ttft_p50_ms", median(w.ttft))
	m.set("tpot_p50_ms", median(w.tpot))
	m.set("e2e_p90_ms", percentile(append([]float64(nil), w.e2e...), 90))
	m.set("cpu_ms_per_req", ratio(w.cpuS*1e3, float64(w.succeeded())))
}

// runtimeLayer fills the Go runtime's per-layer metrics.
func (w *window) runtimeLayer(m metricSet) {
	m.set("runtime.gc_cycles", float64(w.gcCycles))
	m.set("runtime.gc_pause_ms_total", w.gcPauseS*1e3)
	m.set("runtime.heap_alloc_mb_per_kreq", ratio(w.allocMiB*1e3, float64(w.succeeded())))
}

func (w *window) String() string {
	return fmt.Sprintf("attempted=%d succeeded=%d failed=%d wall=%.2fs cpu=%.2fs",
		w.attempted, w.succeeded(), w.failed, w.wallS, w.cpuS)
}
