// Package trace is the serving stack's per-request span tracer. Every
// request admitted by the gateway owns a Trace; the scheduler appends one
// Span per phase it moves the request through — admission, queue wait,
// batching, prefill, per-token decode, pricing — each carrying the wall
// time, the modeled (virtual) cost when one exists, and the emulated
// hardware-counter analogs (LLC MPKI, core utilization, memory-bound
// fraction, UPI utilization) of the platform that priced the call. This is
// the paper's methodology turned into a serving primitive: instead of
// attributing a slow run to prefill vs. decode vs. memory offline
// (Figs 4-8), the attribution rides along with every live request.
//
// Traces are cheap to record and sampled at retention time: a configurable
// fraction of ok traces is kept, while errored and degraded requests are
// always kept. Retained traces land in a fixed-size ring served by
// GET /v1/traces, are optionally appended as JSONL to an export writer
// (llmperfd -trace-out), and every trace — retained or not — feeds
// per-phase latency histograms in the metrics registry.
package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Span phase names the gateway records. Consumers should treat unknown
// names as forward-compatible additions.
const (
	PhaseAdmission = "admission" // API-side validation and admission control
	PhaseQueue     = "queue"     // submission → lane admission
	PhaseBatch     = "batch"     // joining the lane batch (carries batch size)
	PhasePrefill   = "prefill"   // prompt processing iterations
	PhaseDecode    = "decode"    // per-token decode iterations
	PhasePricing   = "pricing"   // wall time inside the cost model / engine
	PhaseHandler   = "handler"   // whole HTTP handler (API middleware)
	PhaseStalled   = "stalled"   // watchdog-cancelled iteration before requeue
	PhasePreempted = "preempted" // KV-evicted execution before requeue (recompute)
	// PhaseFirstToken spans submission to the first emitted token — the
	// wall-clock TTFT the streaming client experiences. It overlaps the
	// tiling phases (queue + batch + prefill) rather than partitioning them.
	PhaseFirstToken = "first_token"
	// Cluster-layer phases (internal/cluster). PhaseRoute spans one
	// dispatch attempt on one replica (attrs: replica, policy, attempt);
	// PhaseFailover spans the backoff between a failed attempt and the
	// retry on the next replica; PhaseHedge spans a hedged duplicate
	// dispatch (attrs: replica, won).
	PhaseRoute    = "route"
	PhaseFailover = "failover"
	PhaseHedge    = "hedge"
	// Prefix-cache phases (internal/prefixcache via govern).
	// PhaseCacheLookup spans the radix-tree probe at lane admission;
	// PhaseCacheHit is a zero-compute marker span carrying the matched
	// token count and the prefill model-seconds the hit saved.
	PhaseCacheLookup = "cache_lookup"
	PhaseCacheHit    = "cache_hit"
)

// PhaseOrder is the canonical rendering order for phase breakdowns.
var PhaseOrder = []string{PhaseAdmission, PhaseRoute, PhaseFailover,
	PhaseHedge, PhaseQueue, PhaseCacheLookup, PhaseCacheHit, PhaseBatch,
	PhasePrefill, PhaseDecode, PhaseFirstToken,
	PhasePreempted, PhasePricing}

// Counters are the per-span hardware-counter analogs, mirroring the
// subset of internal/counters.Report the paper's figures analyze.
type Counters struct {
	LLCMPKI             float64 `json:"llc_mpki"`
	CoreUtilization     float64 `json:"core_utilization"`
	MemoryBoundFraction float64 `json:"memory_bound_fraction"`
	UPIUtilization      float64 `json:"upi_utilization"`
}

// AttrKey names one of the attributes the per-token phases (prefill,
// decode and the pricing span beside each) carry. Those spans are added
// once or twice per token per traced sequence, so their attributes travel
// as typed values inside the span instead of a map built per token; the
// exported form is the same "attrs" object either way.
type AttrKey uint8

const (
	_            AttrKey = iota // the zero key marks an unused slot
	AttrToken                   // decode: index of the token the step produced
	AttrBatch                   // sequences sharing the iteration
	AttrCtx                     // decode: context length of the sequence
	AttrInputLen                // prefill: prompt tokens priced this iteration
	AttrDone                    // prefill: prompt tokens prefilled so far
	AttrSite                    // pricing: which priced call (SitePrefill, SiteDecode)
	AttrDegraded                // priced by the fallback model; renders "true"
)

// Values of AttrSite, rendered as the fault-injection site of the call.
const (
	SitePrefill = iota
	SiteDecode
)

var (
	attrNames = [...]string{AttrToken: "token", AttrBatch: "batch", AttrCtx: "ctx",
		AttrInputLen: "input_len", AttrDone: "done", AttrSite: "site", AttrDegraded: "degraded"}
	siteNames = [...]string{SitePrefill: "cost.prefill", SiteDecode: "cost.decode"}
)

// Attr is one typed span attribute.
type Attr struct {
	Key AttrKey
	Val int32
}

func (a Attr) value() string {
	switch a.Key {
	case AttrSite:
		return siteNames[a.Val]
	case AttrDegraded:
		return "true"
	}
	return strconv.Itoa(int(a.Val))
}

// FixedAttrs is a span's typed attribute set; unused slots stay zero.
type FixedAttrs [4]Attr

// With returns f with one more attribute in its first free slot.
func (f FixedAttrs) With(k AttrKey, v int) FixedAttrs {
	for i := range f {
		if f[i].Key == 0 {
			f[i] = Attr{k, int32(v)}
			return f
		}
	}
	panic("trace: more than 4 fixed span attributes")
}

// Span is one recorded phase of a trace.
type Span struct {
	Name          string `json:"name"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	// ModelSeconds is the modeled (virtual-clock) cost the span charged,
	// when the phase was priced; wall time and modeled time diverge under
	// batching and timescaling.
	ModelSeconds float64 `json:"model_seconds,omitempty"`
	// Attrs is the span's attribute map. In process, the per-token phases
	// keep theirs in Fixed instead; the exported "attrs" object and a
	// decoded Span hold both in Attrs.
	Attrs    map[string]string `json:"attrs,omitempty"`
	Counters *Counters         `json:"counters,omitempty"`
	Fixed    FixedAttrs        `json:"-"`
}

// MarshalJSON renders Fixed into the "attrs" object beside Attrs, so the
// wire form does not depend on how the recorder passed an attribute.
func (s Span) MarshalJSON() ([]byte, error) {
	type wire Span // same fields, default encoding
	w := wire(s)
	if s.Fixed[0].Key != 0 {
		w.Attrs = make(map[string]string, len(s.Attrs)+len(s.Fixed))
		for k, v := range s.Attrs {
			w.Attrs[k] = v
		}
		for _, a := range s.Fixed {
			if a.Key != 0 {
				w.Attrs[attrNames[a.Key]] = a.value()
			}
		}
	}
	return json.Marshal(w)
}

// SpanData is the argument bundle for Trace.Add.
type SpanData struct {
	Name         string
	Start, End   time.Time
	ModelSeconds float64
	Attrs        map[string]string
	Fixed        FixedAttrs
	Counters     *Counters
}

// Record is a finished trace in exported (JSON) form.
type Record struct {
	ID            string `json:"trace_id"`
	RequestID     string `json:"request_id,omitempty"`
	Lane          string `json:"lane,omitempty"`
	StartUnixNano int64  `json:"start_unix_nano"`
	DurationNanos int64  `json:"duration_nanos"`
	Status        string `json:"status"` // "ok" | "error"
	Degraded      bool   `json:"degraded,omitempty"`
	Error         string `json:"error,omitempty"`
	Sampled       bool   `json:"sampled"`
	Spans         []Span `json:"spans"`
}

// Trace accumulates the spans of one request. All methods are safe for
// concurrent use and nil-safe: a nil *Trace records nothing, so callers
// never branch on whether tracing is enabled.
type Trace struct {
	tracer *Tracer

	mu        sync.Mutex
	id        string
	requestID string
	lane      string
	start     time.Time
	sampled   bool
	degraded  bool
	errMsg    string
	spans     []Span
	finished  bool
}

// ID returns the trace identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetLane records the gateway lane serving the request.
func (t *Trace) SetLane(lane string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.lane = lane
	t.mu.Unlock()
}

// SetDegraded marks the request as served (at least partly) by a fallback
// cost model; degraded traces are always retained.
func (t *Trace) SetDegraded() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.degraded = true
	t.mu.Unlock()
}

// SetError records the failure that ended the request; errored traces are
// always retained.
func (t *Trace) SetError(err error) {
	if t == nil || err == nil {
		return
	}
	t.mu.Lock()
	t.errMsg = err.Error()
	t.mu.Unlock()
}

// Add appends one span. Spans added after Finish are dropped.
func (t *Trace) Add(s SpanData) {
	if t == nil {
		return
	}
	if s.End.Before(s.Start) {
		s.End = s.Start
	}
	span := Span{
		Name:          s.Name,
		StartUnixNano: s.Start.UnixNano(),
		DurationNanos: s.End.Sub(s.Start).Nanoseconds(),
		ModelSeconds:  s.ModelSeconds,
		Attrs:         s.Attrs,
		Counters:      s.Counters,
		Fixed:         s.Fixed,
	}
	t.mu.Lock()
	if !t.finished {
		t.spans = append(t.spans, span)
	}
	t.mu.Unlock()
}

// Event appends a zero-duration span, used for point-in-time occurrences
// such as injected faults, requeues and quarantines.
func (t *Trace) Event(name string, at time.Time, attrs map[string]string) {
	t.Add(SpanData{Name: name, Start: at, End: at, Attrs: attrs})
}

// PhaseSeconds sums wall time per span name. The tiling phases (queue,
// prefill, decode, stalled) partition the request's gateway residence;
// pricing spans overlap them.
func (t *Trace) PhaseSeconds() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]float64, 8)
	for _, s := range t.spans {
		out[s.Name] += float64(s.DurationNanos) / 1e9
	}
	return out
}

// Finish seals the trace and hands it to the tracer: phase histograms are
// always updated; the record is retained (ring, JSONL) when the trace was
// sampled, errored or degraded. Finish is idempotent.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	rec := Record{
		ID:            t.id,
		RequestID:     t.requestID,
		Lane:          t.lane,
		StartUnixNano: t.start.UnixNano(),
		DurationNanos: time.Since(t.start).Nanoseconds(),
		Status:        "ok",
		Degraded:      t.degraded,
		Error:         t.errMsg,
		Sampled:       t.sampled,
		Spans:         t.spans,
	}
	if t.errMsg != "" {
		rec.Status = "error"
	}
	tracer := t.tracer
	t.mu.Unlock()
	if tracer != nil {
		tracer.finish(rec)
	}
}

// NewContext returns ctx carrying t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

type ctxKey struct{}

// FormatServerTiming renders per-phase wall seconds as a Server-Timing
// header value (durations in milliseconds), canonical phases first.
func FormatServerTiming(seconds map[string]float64) string {
	var parts []string
	emit := func(name string) {
		if v, ok := seconds[name]; ok {
			parts = append(parts, fmt.Sprintf("%s;dur=%.3f", name, v*1e3))
		}
	}
	done := map[string]bool{}
	for _, name := range PhaseOrder {
		emit(name)
		done[name] = true
	}
	var rest []string
	for name := range seconds {
		if !done[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		emit(name)
	}
	return strings.Join(parts, ", ")
}

// ParseServerTiming inverts FormatServerTiming: it returns milliseconds
// per metric name, ignoring entries without a dur parameter.
func ParseServerTiming(header string) map[string]float64 {
	out := map[string]float64{}
	for _, entry := range strings.Split(header, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		fields := strings.Split(entry, ";")
		name := strings.TrimSpace(fields[0])
		if name == "" {
			continue
		}
		for _, p := range fields[1:] {
			p = strings.TrimSpace(p)
			if rest, ok := strings.CutPrefix(p, "dur="); ok {
				if v, err := strconv.ParseFloat(rest, 64); err == nil {
					out[name] = v
				}
			}
		}
	}
	return out
}
