package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded from this package, around the call
// into the layer it names; nothing inside the program under test is
// instrumented.
const (
	spanRequest  = "bench.request"      // client submit → completion seen
	spanSend     = "client.send"        // request written to the socket
	spanRecv     = "client.recv"        // first response byte → body drained
	spanPrefill  = "engine.prefill"     // one Engine.Prefill call
	spanDecode   = "engine.decode_step" // one Engine.DecodeStep call
	spanHTTP     = "api.http"           // api handler, ServeHTTP entry → return
	spanBackend  = "backend.generate"   // api.Backend.Generate (the gateway)
	spanRoute    = "cluster.route"      // cluster.Router.Generate
	spanGateway  = "gateway.generate"   // replica gateway residence (Result.WallSeconds)
	spanCost     = "serve.cost"         // one serve.CostModel call
	laneLevelReq = -1                   // Req of spans that belong to a lane, not a request
)

// layerDepth orders spans by distance from the client. When spans of one
// request overlap in time, the deepest one owns the instant: that is the
// layer the request was actually inside.
var layerDepth = map[string]int{
	spanRequest: 0,
	spanSend:    1, spanRecv: 1, spanPrefill: 1, spanDecode: 1,
	spanHTTP:    2,
	spanBackend: 3, spanRoute: 3,
	spanGateway: 4,
	spanCost:    5,
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Parent string `json:"parent,omitempty"`
	Lane   string `json:"lane,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run is spelled.
type recorder struct {
	epoch time.Time
	// on gates recording to the measured window: the wrappers of a traced
	// build stay silent through set-up and warm-up.
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

// active reports whether r is recording right now.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) add(name, parent, lane string, req int64, start, end time.Time) {
	if !r.active() {
		return
	}
	s := span{Name: name, Req: req, Parent: parent, Lane: lane,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path closes, and checks, below
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// selfTimes attributes every instant of root's interval to exactly one
// span of the request: the deepest one covering it (the latest-started
// among equals). A span's self time is therefore its duration minus the
// part its deeper spans cover, and the self times of a request sum to the
// root's duration exactly. Spans are clipped to the root.
func selfTimes(root span, others []span) map[string]int64 {
	all := make([]span, 0, len(others)+1)
	all = append(all, root)
	cuts := []int64{root.Start, root.End}
	for _, s := range others {
		if s.Start < root.Start {
			s.Start = root.Start
		}
		if s.End > root.End {
			s.End = root.End
		}
		if s.End <= s.Start {
			continue
		}
		all = append(all, s)
		cuts = append(cuts, s.Start, s.End)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	self := map[string]int64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi <= lo {
			continue
		}
		owner := -1
		for k, s := range all {
			if s.Start > lo || s.End < hi {
				continue
			}
			if owner < 0 || layerDepth[s.Name] > layerDepth[all[owner].Name] ||
				(layerDepth[s.Name] == layerDepth[all[owner].Name] && s.Start > all[owner].Start) {
				owner = k
			}
		}
		if owner >= 0 {
			self[all[owner].Name] += hi - lo
		}
	}
	return self
}

// laneCover answers "how much of [start, end) do this lane's spans
// cover". A lane calls its cost model from one goroutine, so its spans
// never overlap each other and a prefix sum over them answers in O(log n).
type laneCover struct {
	starts, ends []int64
	prefix       []int64 // prefix[i] = total duration of spans [0, i)
}

func newLaneCover(spans []span) *laneCover {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	c := &laneCover{prefix: make([]int64, 1, len(spans)+1)}
	for _, s := range spans {
		c.starts = append(c.starts, s.Start)
		c.ends = append(c.ends, s.End)
		c.prefix = append(c.prefix, c.prefix[len(c.prefix)-1]+s.End-s.Start)
	}
	return c
}

func (c *laneCover) covered(start, end int64) int64 {
	if c == nil || end <= start {
		return 0
	}
	// Spans [lo, hi) intersect the interval.
	lo := sort.Search(len(c.ends), func(i int) bool { return c.ends[i] > start })
	hi := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] >= end })
	if lo >= hi {
		return 0
	}
	total := c.prefix[hi] - c.prefix[lo]
	if c.starts[lo] < start {
		total -= start - c.starts[lo]
	}
	if c.ends[hi-1] > end {
		total -= c.ends[hi-1] - end
	}
	return total
}

// selfTotals sums per-request self times over a traced window.
type selfTotals struct {
	ns       map[string]int64 // span name → self time over all requests
	rootNs   int64            // Σ bench.request durations
	requests int
}

// perReqUs is a span's mean self time per request, in microseconds.
func (t selfTotals) perReqUs(name string) float64 {
	return ratio(float64(t.ns[name])/1e3, float64(t.requests))
}

// coveragePct is the share of request wall time spent inside some span
// below the root: what the ledger can attribute to a named layer.
func (t selfTotals) coveragePct() float64 {
	return 100 * ratio(float64(t.rootNs-t.ns[spanRequest]), float64(t.rootNs))
}

// totalSelfTimes computes self times for every request of the window
// that has a root span. serve.cost spans belong to a lane rather than a
// request, so each request is charged the part of its gateway-level span
// that its replica's cost calls cover.
func totalSelfTimes(spans []span) selfTotals {
	roots := map[int64]span{}
	byReq := map[int64][]span{}
	costs := map[string][]span{}
	for _, s := range spans {
		switch s.Name {
		case spanCost:
			costs[s.Lane] = append(costs[s.Lane], s)
		case spanRequest:
			roots[s.Req] = s
		default:
			byReq[s.Req] = append(byReq[s.Req], s)
		}
	}
	covers := map[string]*laneCover{}
	for lane, cs := range costs {
		covers[lane] = newLaneCover(cs)
	}
	t := selfTotals{ns: map[string]int64{}}
	for req, root := range roots {
		self := selfTimes(root, byReq[req])
		for _, s := range byReq[req] {
			if s.Name != spanBackend && s.Name != spanGateway {
				continue
			}
			c := covers[s.Lane].covered(max(s.Start, root.Start), min(s.End, root.End))
			c = min(c, self[s.Name])
			self[s.Name] -= c
			self[spanCost] += c
		}
		for name, ns := range self {
			t.ns[name] += ns
		}
		t.rootNs += root.End - root.Start
		t.requests++
	}
	return t
}
