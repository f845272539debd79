package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// fakeCost prices iterations with fixed constants.
type fakeCost struct{ pre, dec float64 }

func (f fakeCost) PrefillCost(batch, in int) (float64, error) {
	return f.pre * float64(in) / 128, nil
}
func (f fakeCost) DecodeStepCost(batch, ctx int) (float64, error) { return f.dec, nil }
func (fakeCost) Cached(bool, int, int) (serve.Quote, bool)        { return serve.Quote{}, false }

// gatedCost blocks prefills until the gate is closed or fed.
type gatedCost struct{ gate chan struct{} }

func (g gatedCost) PrefillCost(batch, in int) (float64, error) {
	<-g.gate
	return 0.01, nil
}
func (g gatedCost) DecodeStepCost(batch, ctx int) (float64, error) { return 0.001, nil }
func (gatedCost) Cached(bool, int, int) (serve.Quote, bool)        { return serve.Quote{}, false }

func fixedResolver(c serve.CostModel) Resolver {
	return func(string) (serve.CostModel, error) { return c, nil }
}

// latchCost blocks the scheduler's first prefill until released, letting a
// test pile up a known backlog before any iteration runs.
type latchCost struct {
	fakeCost
	once  sync.Once
	ready chan struct{}
}

func (l *latchCost) PrefillCost(batch, in int) (float64, error) {
	l.once.Do(func() { <-l.ready })
	return l.fakeCost.PrefillCost(batch, in)
}

func TestGenerateCompletesConcurrentLoad(t *testing.T) {
	reg := metrics.NewRegistry()
	cost := &latchCost{fakeCost: fakeCost{pre: 0.010, dec: 0.001}, ready: make(chan struct{})}
	g := New(Config{MaxQueue: 256, MaxBatch: 8, Workers: 2, Registry: reg},
		fixedResolver(cost))

	const n = 64
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Generate(context.Background(),
				Request{Lane: "spr/OPT-13B", InputLen: 128, OutputLen: 8})
		}(i)
	}
	// Hold the scheduler on its first prefill until the backlog is real: at
	// most MaxBatch are admitted before the latch, so the queue must reach
	// n-MaxBatch. Releasing then guarantees multi-sequence decode batches.
	waitFor(t, func() bool { return g.QueueDepth() >= n-8 })
	close(cost.ready)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		r := results[i]
		if r.TTFTSeconds <= 0 || r.E2ESeconds < r.TTFTSeconds || r.TPOTSeconds <= 0 {
			t.Errorf("request %d: degenerate metrics %+v", i, r)
		}
		if r.BatchAtAdmission < 1 || r.BatchAtAdmission > 8 {
			t.Errorf("request %d: batch at admission %d", i, r.BatchAtAdmission)
		}
	}
	if got := g.Registry().Counter("gateway_completed_total", "").Value(); got != n {
		t.Errorf("completed counter %d, want %d", got, n)
	}
	if g.QueueDepth() != 0 {
		t.Errorf("queue depth %d after drain", g.QueueDepth())
	}
	if c := g.Registry().Histogram("gateway_ttft_seconds", "", nil).Count(); c != n {
		t.Errorf("ttft histogram count %d", c)
	}
	// Batching actually happened: with 64 arrivals and MaxBatch 8 the
	// decode batch-size histogram must have seen multi-sequence batches.
	bs := g.Registry().Histogram("gateway_batch_size", "", nil)
	if bs.Count() == 0 || bs.Quantile(1) < 2 {
		t.Errorf("no multi-sequence decode batches observed (count=%d max=%g)",
			bs.Count(), bs.Quantile(1))
	}
}

func TestBackpressureQueueFull(t *testing.T) {
	gate := make(chan struct{})
	g := New(Config{MaxQueue: 2, MaxBatch: 1, Workers: 1},
		fixedResolver(gatedCost{gate: gate}))

	errCh := make(chan error, 8)
	// First request is admitted and blocks inside the gated prefill.
	go func() {
		_, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 16, OutputLen: 2})
		errCh <- err
	}()
	waitFor(t, func() bool {
		return g.Registry().Gauge("gateway_inflight", "").Value() == 1
	})
	// Two more fill the bounded queue.
	for i := 0; i < 2; i++ {
		go func() {
			_, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 16, OutputLen: 2})
			errCh <- err
		}()
	}
	waitFor(t, func() bool { return g.QueueDepth() == 2 })
	// The next submission must be rejected immediately.
	if _, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 16, OutputLen: 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expected ErrQueueFull, got %v", err)
	}
	if got := g.Registry().Counter("gateway_rejected_total", "").Value(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
	close(gate) // release everything
	for i := 0; i < 3; i++ {
		if err := <-errCh; err != nil {
			t.Errorf("queued request failed: %v", err)
		}
	}
}

func TestQueuedCancellation(t *testing.T) {
	gate := make(chan struct{})
	g := New(Config{MaxQueue: 8, MaxBatch: 1, Workers: 1},
		fixedResolver(gatedCost{gate: gate}))

	first := make(chan error, 1)
	go func() {
		_, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 16, OutputLen: 2})
		first <- err
	}()
	waitFor(t, func() bool {
		return g.Registry().Gauge("gateway_inflight", "").Value() == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() {
		_, err := g.Generate(ctx, Request{Lane: "l", InputLen: 16, OutputLen: 2})
		queued <- err
	}()
	waitFor(t, func() bool { return g.QueueDepth() == 1 })
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled request returned %v", err)
	}
	close(gate)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	waitFor(t, func() bool {
		return g.Registry().Counter("gateway_canceled_total", "").Value() == 1
	})
	if g.QueueDepth() != 0 {
		t.Errorf("queue depth %d after cancellation drain", g.QueueDepth())
	}
}

func TestDeadlineExpiryReturnsEarly(t *testing.T) {
	g := New(Config{MaxQueue: 4, MaxBatch: 1, Workers: 1, Timescale: 1},
		fixedResolver(fakeCost{pre: 0.05, dec: 0.05}))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := g.Generate(ctx, Request{Lane: "l", InputLen: 128, OutputLen: 64})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected deadline exceeded, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("deadline return took %v", time.Since(start))
	}
}

func TestShutdownDrains(t *testing.T) {
	g := New(Config{MaxQueue: 128, MaxBatch: 4, Workers: 2},
		fixedResolver(fakeCost{pre: 0.01, dec: 0.001}))

	const n = 24
	var completed, drained atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 64, OutputLen: 4})
			switch {
			case err == nil:
				completed.Add(1)
			case errors.Is(err, ErrDraining):
				drained.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	wg.Wait()
	if completed.Load()+drained.Load() != n {
		t.Fatalf("lost requests: %d completed + %d drain-rejected != %d",
			completed.Load(), drained.Load(), n)
	}
	if completed.Load() == 0 {
		t.Error("shutdown dropped every in-flight request")
	}
	// Post-drain submissions are rejected.
	if _, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 8, OutputLen: 2}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown submit returned %v", err)
	}
}

func TestChunkedPolicy(t *testing.T) {
	g := New(Config{MaxQueue: 64, MaxBatch: 4, Workers: 1,
		Policy: Chunked, PrefillChunk: 32},
		fixedResolver(fakeCost{pre: 0.010, dec: 0.001}))
	var wg sync.WaitGroup
	errs := make([]error, 8)
	results := make([]Result, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Generate(context.Background(),
				Request{Lane: "l", InputLen: 128, OutputLen: 4})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if results[i].TTFTSeconds <= 0 || results[i].E2ESeconds < results[i].TTFTSeconds {
			t.Errorf("request %d: %+v", i, results[i])
		}
	}
	if Policy(0).String() != "continuous" || Chunked.String() != "chunked" {
		t.Error("policy names")
	}
}

func TestResolverErrorRejects(t *testing.T) {
	g := New(Config{}, func(lane string) (serve.CostModel, error) {
		return nil, fmt.Errorf("no such lane %q", lane)
	})
	if _, err := g.Generate(context.Background(), Request{Lane: "x", InputLen: 1, OutputLen: 1}); err == nil {
		t.Fatal("expected resolver error")
	}
	if _, err := g.Generate(context.Background(), Request{Lane: "x", InputLen: 0, OutputLen: 1}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestMetricsExposition(t *testing.T) {
	g := New(Config{}, fixedResolver(fakeCost{pre: 0.01, dec: 0.001}))
	if _, err := g.Generate(context.Background(), Request{Lane: "l", InputLen: 32, OutputLen: 4}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := g.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"gateway_admitted_total 1",
		"gateway_completed_total 1",
		"gateway_ttft_seconds_count 1",
		"gateway_queue_depth 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
