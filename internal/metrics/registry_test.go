package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "total requests")
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("queue_depth", "queued requests")
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %d, want 5", g.Value())
	}
	// Idempotent lookup returns the same instrument.
	if r.Counter("reqs_total", "") != c {
		t.Error("counter lookup not idempotent")
	}
	if r.Gauge("queue_depth", "") != g {
		t.Error("gauge lookup not idempotent")
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", LinearBuckets(0.1, 0.1, 10))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 1.00 uniform
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); math.Abs(got-0.5) > 0.1 {
		t.Errorf("p50 = %g, want ~0.5", got)
	}
	if got := h.Quantile(0.95); math.Abs(got-0.95) > 0.1 {
		t.Errorf("p95 = %g, want ~0.95", got)
	}
	if got := h.sum / float64(h.count); math.Abs(got-0.505) > 1e-9 {
		t.Errorf("mean = %g, want 0.505", got)
	}
	if h.Quantile(0) > h.Quantile(1) {
		t.Error("quantiles not monotone")
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "", []float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	h.Observe(100) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Errorf("overflow quantile = %g, want clamp to 2", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		r.Counter("a_total", "a help").Inc()
	}
	r.Gauge("b", "").Set(-2)
	h := r.Histogram("c_seconds", "c help", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP a_total a help",
		"# TYPE a_total counter",
		"a_total 3",
		"# TYPE b gauge",
		"b -2",
		"# TYPE c_seconds histogram",
		`c_seconds_bucket{le="0.5"} 1`,
		`c_seconds_bucket{le="1"} 2`,
		`c_seconds_bucket{le="+Inf"} 3`,
		"c_seconds_sum 9.9",
		"c_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("n_total", "").Inc()
				r.Gauge("g", "").Add(1)
				r.Histogram("h", "", LatencyBuckets()).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if r.Counter("n_total", "").Value() != 8000 {
		t.Errorf("counter = %d, want 8000", r.Counter("n_total", "").Value())
	}
	if r.Histogram("h", "", nil).Count() != 8000 {
		t.Errorf("histogram count = %d", r.Histogram("h", "", nil).Count())
	}
}

func TestBucketHelpers(t *testing.T) {
	e := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if e[i] != want[i] {
			t.Fatalf("exp buckets %v", e)
		}
	}
	l := LinearBuckets(0, 0.5, 3)
	if l[2] != 1 {
		t.Fatalf("lin buckets %v", l)
	}
	if n := len(LatencyBuckets()); n != 21 {
		t.Fatalf("latency buckets %d", n)
	}
}

// TestReadThroughSums: a read-through series is the sum of every fn
// registered under its name, read at scrape time without the registry
// lock (an fn that touches the registry would deadlock otherwise).
func TestReadThroughSums(t *testing.T) {
	r := NewRegistry()
	free := []int64{54, 63}
	for i := range free {
		r.GaugeFunc("kv_free", "free blocks", func() int64 { return free[i] })
	}
	r.CounterFunc("hits_total", "hits", func() int64 { return int64(r.Counter("backing_total", "").Value()) })
	for i := 0; i < 7; i++ {
		r.Counter("backing_total", "").Inc()
	}
	free[1] = 60

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE kv_free gauge\nkv_free 114\n", "# TYPE hits_total counter\nhits_total 7\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a read-through gauge reused as a counter must panic")
		}
	}()
	r.CounterFunc("kv_free", "", func() int64 { return 0 })
}

// TestRetireReadThrough: a retired gauge registration leaves its series'
// sum; a retired counter registration keeps the value it had when retired,
// so the series never goes backwards; retiring twice changes nothing.
func TestRetireReadThrough(t *testing.T) {
	r := NewRegistry()
	hits := []int64{5, 9}
	var gauges, counters []*Func
	for i := range hits {
		gauges = append(gauges, r.GaugeFunc("kv_free", "", func() int64 { return 10 * hits[i] }))
		counters = append(counters, r.CounterFunc("hits_total", "", func() int64 { return hits[i] }))
	}
	gauges[0].Retire()
	counters[0].Retire()
	counters[0].Retire()
	hits[0], hits[1] = 100, 11 // the retired owner's fn is not read again

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nkv_free 110\n", "\nhits_total 16\n"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}

// TestRetireDuringScrape retires read-throughs while other goroutines
// scrape and register (meaningful under -race): a scrape reads a
// consistent set of registrations, and once every owner but the last has
// retired, the sums are the last owner's plus the retired counters' values.
func TestRetireDuringScrape(t *testing.T) {
	r := NewRegistry()
	const owners = 16
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := r.WritePrometheus(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var retire sync.WaitGroup
	for i := range owners {
		g := r.GaugeFunc("live", "", func() int64 { return 1 })
		c := r.CounterFunc("done_total", "", func() int64 { return int64(i) })
		if i == owners-1 {
			continue
		}
		retire.Add(1)
		go func() {
			defer retire.Done()
			g.Retire()
			c.Retire()
		}()
	}
	retire.Wait()
	close(stop)
	wg.Wait()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nlive 1\n", fmt.Sprintf("\ndone_total %d\n", owners*(owners-1)/2)} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, sb.String())
		}
	}
}
