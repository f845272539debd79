package trace

// tracer.go holds the process-wide side of tracing: trace-ID allocation,
// the deterministic sampler, the retention ring behind GET /v1/traces,
// the JSONL export writer, and the per-phase latency histograms exported
// through the metrics registry.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Config tunes a Tracer.
type Config struct {
	// SampleRate is the fraction of ok traces retained, in [0, 1].
	// Errored and degraded traces are always retained. 1 keeps every
	// trace; 0 keeps only errored/degraded ones.
	SampleRate float64
	// RingSize bounds retained traces held for GET /v1/traces.
	// Default 512.
	RingSize int
	// Output, when non-nil, receives one JSON line per retained trace.
	Output io.Writer
	// Registry, when non-nil, receives per-phase latency histograms
	// (trace_phase_<phase>_seconds) and retention counters.
	Registry *metrics.Registry
}

// Tracer allocates traces and retains finished ones.
type Tracer struct {
	cfg Config

	mu      sync.Mutex
	started uint64 // sampling counter
	ring    []Record
	next    int
	filled  bool

	startedC, retainedC, droppedC *metrics.Counter
	phaseHists                    map[string]*metrics.Histogram

	// spanHint is the span count of the trace that finished last: the
	// next trace's buffer is made that size up front, so a workload of
	// like-sized requests neither regrows buffers nor retains slack.
	spanHint atomic.Int64
}

// maxSpanHint bounds the up-front buffer (≈ 90 KB), so one huge trace
// does not size the buffers of everything started after it.
const maxSpanHint = 1024

// New returns a tracer. The sample rate is clamped to [0, 1].
func New(cfg Config) *Tracer {
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 512
	}
	tr := &Tracer{cfg: cfg, ring: make([]Record, cfg.RingSize),
		phaseHists: map[string]*metrics.Histogram{}}
	if cfg.Registry != nil {
		tr.startedC = cfg.Registry.Counter("trace_started_total", "traces started")
		tr.retainedC = cfg.Registry.Counter("trace_retained_total", "finished traces retained in the ring (sampled, errored or degraded)")
		tr.droppedC = cfg.Registry.Counter("trace_dropped_total", "finished traces not retained (unsampled, ok)")
	}
	return tr
}

// SampleRate returns the configured retention fraction.
func (tr *Tracer) SampleRate() float64 {
	if tr == nil {
		return 0
	}
	return tr.cfg.SampleRate
}

// Start allocates a trace correlated with requestID. A nil tracer returns
// a nil trace, which records nothing.
func (tr *Tracer) Start(requestID string) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.started++
	n := tr.started
	tr.mu.Unlock()
	if tr.startedC != nil {
		tr.startedC.Inc()
	}
	// Deterministic stride sampling: trace n is sampled when the
	// cumulative quota floor(n·rate) advances, so a rate of 0.1 keeps
	// exactly every 10th trace rather than a random subset.
	rate := tr.cfg.SampleRate
	sampled := rate >= 1 ||
		(rate > 0 && math.Floor(float64(n)*rate) != math.Floor(float64(n-1)*rate))
	return &Trace{
		tracer:    tr,
		id:        newID(),
		requestID: requestID,
		start:     time.Now(),
		sampled:   sampled,
		spans:     make([]Span, 0, tr.spanHint.Load()),
	}
}

// Get returns the retained record with the given trace ID.
func (tr *Tracer) Get(id string) (Record, bool) {
	if tr == nil {
		return Record{}, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for i := range tr.ring {
		if tr.ring[i].ID == id {
			return tr.ring[i], true
		}
	}
	return Record{}, false
}

// Recent returns up to limit retained records, newest first.
func (tr *Tracer) Recent(limit int) []Record {
	if tr == nil || limit <= 0 {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	n := tr.next
	if tr.filled {
		n = len(tr.ring)
	}
	if limit > n {
		limit = n
	}
	out := make([]Record, 0, limit)
	for i := 0; i < limit; i++ {
		idx := tr.next - 1 - i
		if idx < 0 {
			idx += len(tr.ring)
		}
		out = append(out, tr.ring[idx])
	}
	return out
}

// finish records a sealed trace: histograms always, retention (ring and
// JSONL) when the trace was sampled, errored or degraded.
func (tr *Tracer) finish(rec Record) {
	for i := range rec.Spans {
		tr.observePhase(rec.Spans[i].Name, float64(rec.Spans[i].DurationNanos)/1e9)
	}
	tr.spanHint.Store(int64(min(len(rec.Spans), maxSpanHint)))
	keep := rec.Sampled || rec.Status == "error" || rec.Degraded
	if !keep {
		if tr.droppedC != nil {
			tr.droppedC.Inc()
		}
		return
	}
	if tr.retainedC != nil {
		tr.retainedC.Inc()
	}
	// The ring holds a record for a long time: keep it at (nearly) its
	// exact size, not at whatever capacity appending left behind.
	if n := len(rec.Spans); cap(rec.Spans)-n > n/8 {
		rec.Spans = append(make([]Span, 0, n), rec.Spans...)
	}
	var line []byte
	if tr.cfg.Output != nil {
		line, _ = json.Marshal(rec)
	}
	tr.mu.Lock()
	tr.ring[tr.next] = rec
	tr.next++
	if tr.next == len(tr.ring) {
		tr.next = 0
		tr.filled = true
	}
	if line != nil {
		_, _ = tr.cfg.Output.Write(append(line, '\n'))
	}
	tr.mu.Unlock()
}

// observePhase feeds the per-phase latency histogram, creating it on
// first use.
func (tr *Tracer) observePhase(phase string, seconds float64) {
	if tr.cfg.Registry == nil {
		return
	}
	tr.mu.Lock()
	h, ok := tr.phaseHists[phase]
	if !ok {
		h = tr.cfg.Registry.Histogram("trace_phase_"+sanitize(phase)+"_seconds",
			"wall seconds spent in the "+phase+" phase", metrics.LatencyBuckets())
		tr.phaseHists[phase] = h
	}
	tr.mu.Unlock()
	h.Observe(seconds)
}

// sanitize maps a phase name onto the Prometheus metric-name alphabet.
func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '_':
		case c >= 'A' && c <= 'Z':
			b[i] = c + 'a' - 'A'
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// newID returns a 16-hex-character trace or request identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; fall back
		// to a time-derived ID rather than panicking in the hot path.
		now := time.Now().UnixNano()
		for i := range b {
			b[i] = byte(now >> (8 * i))
		}
	}
	return hex.EncodeToString(b[:])
}

// NewID exposes ID allocation for request-ID generation at the API edge.
func NewID() string { return newID() }
