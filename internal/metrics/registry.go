package metrics

// registry.go extends the package beyond the paper's per-point metric
// structs with the serving-side observability layer: concurrency-safe
// counters, gauges and histograms collected in a Registry and exported in
// the Prometheus text exposition format. The gateway uses these to report
// queue depth, admission rejects, TTFT/TPOT/E2E percentiles and batch-size
// distributions under live load.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which must be non-negative) to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous integer value that can go up and down.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds delta (possibly negative) to the gauge.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates observations into cumulative buckets, the
// Prometheus histogram shape. Quantiles are estimated by linear
// interpolation within the owning bucket, so they are approximate but
// cheap and mergeable.
type Histogram struct {
	name, help string
	mu         sync.Mutex
	bounds     []float64 // upper bounds, ascending; +Inf implicit
	counts     []uint64  // len(bounds)+1, last is the +Inf bucket
	sum        float64
	count      uint64
}

// Observe records one sample.
func (h *Histogram) Observe(x float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, x) // first bound >= x
	h.counts[i]++
	h.sum += x
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) by interpolating within
// the bucket that holds the target rank. Samples beyond the last finite
// bound report that bound. Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(h.bounds) { // +Inf bucket: clamp to last finite bound
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets is a log-spaced bucket layout covering 100 µs to ~100 s,
// suitable for TTFT/TPOT/E2E observations in seconds.
func LatencyBuckets() []float64 {
	return ExponentialBuckets(1e-4, 2, 21)
}

// ExponentialBuckets returns n bounds starting at start, each factor
// times the previous.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// LinearBuckets returns n bounds starting at start, stepping by width.
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// Registry holds a named set of instruments and renders them for
// scraping. Instrument lookups are idempotent: asking for an existing
// name returns the existing instrument.
type Registry struct {
	mu    sync.Mutex
	order []string
	byN   map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: map[string]any{}}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byN[name]; ok {
		c, ok := m.(*Counter)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as %T, not Counter", name, m))
		}
		return c
	}
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byN[name]; ok {
		g, ok := m.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as %T, not Gauge", name, m))
		}
		return g
	}
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (ascending) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byN[name]; ok {
		h, ok := m.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("metrics: %q registered as %T, not Histogram", name, m))
		}
		return h
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{name: name, help: help,
		bounds: bs, counts: make([]uint64, len(bs)+1)}
	r.register(name, h)
	return h
}

func (r *Registry) register(name string, m any) {
	r.byN[name] = m
	r.order = append(r.order, name)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	byN := make(map[string]any, len(r.byN))
	for k, v := range r.byN {
		byN[k] = v
	}
	r.mu.Unlock()

	for _, name := range names {
		switch m := byN[name].(type) {
		case *Counter:
			if err := writeHeader(w, name, m.help, "counter"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if err := writeHeader(w, name, m.help, "gauge"); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", name, m.Value()); err != nil {
				return err
			}
		case *Histogram:
			if err := writeHeader(w, name, m.help, "histogram"); err != nil {
				return err
			}
			m.mu.Lock()
			var cum uint64
			for i, b := range m.bounds {
				cum += m.counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n",
					name, formatBound(b), cum); err != nil {
					m.mu.Unlock()
					return err
				}
			}
			cum += m.counts[len(m.bounds)]
			_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
				name, cum, name, m.sum, name, m.count)
			m.mu.Unlock()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", b)
}
