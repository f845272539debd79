package gateway

// chaos_test.go drives the resilience machinery with the fault injector:
// every fault class is injected under 64-client concurrent load and the
// suite asserts the serving invariants — exactly one outcome per request
// (nothing lost, nothing duplicated), error counts bounded by the armed
// fault budget, the process never crashes, and availability returns to
// 100% once the faults are disarmed.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/serve"
)

const chaosClients = 64

// chaosConfig is a gateway tuned for fast chaos iterations: tiny restart
// backoff, a crash limit high enough that restart tests never quarantine,
// and modeled costs that finish a 64-client wave in milliseconds.
func chaosConfig(inj *faults.Injector) Config {
	return Config{
		MaxQueue:          256,
		MaxBatch:          8,
		Workers:           2,
		Registry:          metrics.NewRegistry(),
		Injector:          inj,
		RestartBackoff:    time.Millisecond,
		RestartBackoffMax: 5 * time.Millisecond,
		CrashLimit:        100,
		BreakerThreshold:  100,
	}
}

// runWave fires n concurrent requests and waits for every outcome.
func runWave(t *testing.T, g *Gateway, n int) ([]Result, []error) {
	t.Helper()
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = g.Generate(context.Background(),
				Request{Lane: "chaos", InputLen: 64, OutputLen: 4})
		}(i)
	}
	wg.Wait()
	return results, errs
}

func TestChaosFaultClasses(t *testing.T) {
	cases := []struct {
		name         string
		rules        []faults.Rule
		tune         func(*Config)
		fallback     bool
		maxErrors    int
		errOK        func(error) bool
		wantDegraded bool
		check        func(*testing.T, *Gateway)
	}{
		{
			// Lane-worker panics: the supervisor recovers each one, fails
			// only the in-flight batch, and restarts the lane. With 3
			// fires and MaxBatch 8, at most 24 requests may fail.
			name:      "panic",
			rules:     []faults.Rule{{Class: faults.Panic, Site: "lane", Every: 9, Count: 3}},
			maxErrors: 24,
			errOK:     func(err error) bool { return errors.Is(err, ErrLanePanic) },
			check: func(t *testing.T, g *Gateway) {
				if got := g.Registry().Counter("gateway_lane_panics_total", "").Value(); got < 1 {
					t.Errorf("no recovered panics counted (got %d)", got)
				}
			},
		},
		{
			// Latency spikes slow iterations but break nothing.
			name: "latency",
			rules: []faults.Rule{{Class: faults.Latency, Site: "cost.decode",
				Every: 3, Count: 10, DelayMillis: 2}},
			maxErrors: 0,
		},
		{
			// A stalled primary cost model overruns the watchdog; with a
			// fallback armed the lane keeps serving, marked degraded.
			name: "stall with fallback",
			rules: []faults.Rule{{Class: faults.Stall, Site: "cost.prefill",
				Every: 2, Count: 4, DelayMillis: 100}},
			tune:         func(c *Config) { c.WatchdogBudget = 15 * time.Millisecond },
			fallback:     true,
			maxErrors:    0,
			wantDegraded: true,
			check: func(t *testing.T, g *Gateway) {
				if got := g.Registry().Counter("gateway_watchdog_timeouts_total", "").Value(); got < 1 {
					t.Errorf("no watchdog timeouts counted (got %d)", got)
				}
			},
		},
		{
			// Without a fallback a watchdog-cancelled batch is requeued to
			// the queue front; two fires stay inside every job's requeue
			// budget, so all 64 requests still complete.
			name: "stall requeues without fallback",
			rules: []faults.Rule{{Class: faults.Stall, Site: "cost.prefill",
				Every: 1, Count: 2, DelayMillis: 100}},
			tune:      func(c *Config) { c.WatchdogBudget = 15 * time.Millisecond },
			maxErrors: 0,
			check: func(t *testing.T, g *Gateway) {
				if got := g.Registry().Counter("gateway_requeued_total", "").Value(); got < 1 {
					t.Errorf("no requeues counted (got %d)", got)
				}
			},
		},
		{
			// A failing cost model with a fallback serves every request,
			// the poisoned iterations priced degraded.
			name: "cost error with fallback",
			rules: []faults.Rule{{Class: faults.CostError, Site: "cost.decode",
				Every: 3}},
			fallback:     true,
			maxErrors:    0,
			wantDegraded: true,
		},
		{
			// A failing cost model without a fallback fails the in-flight
			// batch with the injected error: at most fires x MaxBatch.
			name: "cost error without fallback",
			rules: []faults.Rule{{Class: faults.CostError, Site: "cost.decode",
				Every: 5, Count: 3}},
			maxErrors: 24,
			errOK: func(err error) bool {
				var inj *faults.Injected
				return errors.As(err, &inj)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inj := faults.New(1)
			cfg := chaosConfig(inj)
			if tc.tune != nil {
				tc.tune(&cfg)
			}
			if tc.fallback {
				cfg.Fallback = fixedResolver(fakeCost{pre: 0.001, dec: 0.0005})
			}
			if err := inj.Arm(tc.rules...); err != nil {
				t.Fatal(err)
			}
			g := New(cfg, fixedResolver(fakeCost{pre: 0.002, dec: 0.0005}))

			results, errs := runWave(t, g, chaosClients)
			var failed, degraded int
			for i, err := range errs {
				switch {
				case err == nil:
					if results[i].Degraded {
						degraded++
					}
				case tc.errOK != nil && tc.errOK(err):
					failed++
				default:
					t.Errorf("request %d: unexpected error %v", i, err)
					failed++
				}
			}
			if failed > tc.maxErrors {
				t.Errorf("%d requests failed, fault budget allows at most %d", failed, tc.maxErrors)
			}
			if tc.wantDegraded && degraded == 0 {
				t.Error("expected degraded completions, saw none")
			}
			if tc.check != nil {
				tc.check(t, g)
			}

			// No lost or duplicated completions: the counters must account
			// for exactly one outcome per request.
			reg := g.Registry()
			completed := reg.Counter("gateway_completed_total", "").Value()
			counted := reg.Counter("gateway_failed_total", "").Value()
			if completed != uint64(chaosClients-failed) || counted != uint64(failed) {
				t.Errorf("outcome accounting: completed=%d failed=%d, want %d and %d",
					completed, counted, chaosClients-failed, failed)
			}

			// Recovery: disarm and the next 64-client wave is fault-free.
			inj.Disarm()
			recResults, recErrs := runWave(t, g, chaosClients)
			recFailed := 0
			for i, err := range recErrs {
				if err != nil {
					recFailed++
					t.Errorf("post-disarm request %d failed: %v", i, err)
				} else if recResults[i].Degraded && !tc.fallback {
					t.Errorf("post-disarm request %d degraded without a fallback", i)
				}
			}
			if got := reg.Counter("gateway_completed_total", "").Value(); got != completed+uint64(chaosClients-recFailed) {
				t.Errorf("recovery wave lost completions: counter %d", got)
			}
			if g.QueueDepth() != 0 {
				t.Errorf("queue depth %d after recovery wave", g.QueueDepth())
			}
		})
	}
}

func TestChaosQuarantineAfterRepeatedCrashes(t *testing.T) {
	inj := faults.New(1)
	cfg := chaosConfig(inj)
	cfg.CrashLimit = 3
	cfg.QuarantinePeriod = 60 * time.Millisecond
	if err := inj.Arm(faults.Rule{Class: faults.Panic, Site: "lane", Every: 1}); err != nil {
		t.Fatal(err)
	}
	g := New(cfg, fixedResolver(fakeCost{pre: 0.002, dec: 0.0005}))

	// Every scheduler iteration panics, so the lane crash-loops into
	// quarantine and everything queued fails fast with the typed error.
	_, errs := runWave(t, g, 16)
	for i, err := range errs {
		if !errors.Is(err, ErrLaneQuarantined) && !errors.Is(err, ErrLanePanic) {
			t.Errorf("request %d: got %v, want quarantine or panic error", i, err)
		}
	}
	reg := g.Registry()
	if got := reg.Counter("gateway_lane_quarantines_total", "").Value(); got != 1 {
		t.Errorf("quarantine counter %d, want 1", got)
	}
	if got := reg.Gauge("gateway_quarantined_lanes", "").Value(); got != 1 {
		t.Errorf("quarantined lanes gauge %d, want 1", got)
	}
	// While quarantined, new submissions are rejected immediately.
	if _, err := g.Generate(context.Background(),
		Request{Lane: "chaos", InputLen: 64, OutputLen: 4}); !errors.Is(err, ErrLaneQuarantined) {
		t.Fatalf("submission during quarantine returned %v", err)
	}

	// After the cool-off, with the fault gone, the lane serves again.
	inj.Disarm()
	time.Sleep(80 * time.Millisecond)
	results, errs2 := runWave(t, g, 16)
	for i, err := range errs2 {
		if err != nil {
			t.Errorf("post-quarantine request %d failed: %v", i, err)
		} else if results[i].OutputLen != 4 {
			t.Errorf("post-quarantine request %d: bad result %+v", i, results[i])
		}
	}
	if got := reg.Gauge("gateway_quarantined_lanes", "").Value(); got != 0 {
		t.Errorf("quarantined lanes gauge %d after recovery, want 0", got)
	}
}

// flakyCost is a primary cost model whose failure mode is togglable, for
// driving the circuit breaker through trip and heal.
type flakyCost struct {
	mu   sync.Mutex
	fail bool
	fakeCost
}

func (f *flakyCost) setFail(v bool) { f.mu.Lock(); f.fail = v; f.mu.Unlock() }
func (f *flakyCost) failing() bool  { f.mu.Lock(); defer f.mu.Unlock(); return f.fail }

func (f *flakyCost) PrefillCost(batch, in int) (float64, error) {
	if f.failing() {
		return 0, errors.New("engine wedged")
	}
	return f.fakeCost.PrefillCost(batch, in)
}

func (f *flakyCost) DecodeStepCost(batch, ctx int) (float64, error) {
	if f.failing() {
		return 0, errors.New("engine wedged")
	}
	return f.fakeCost.DecodeStepCost(batch, ctx)
}
func (*flakyCost) Cached(bool, int, int) (serve.Quote, bool) { return serve.Quote{}, false }

func TestChaosBreakerTripsAndHeals(t *testing.T) {
	primary := &flakyCost{fakeCost: fakeCost{pre: 0.002, dec: 0.0005}}
	primary.setFail(true)
	cfg := chaosConfig(nil)
	cfg.BreakerThreshold = 2
	cfg.BreakerOpenPeriod = 40 * time.Millisecond
	cfg.Fallback = fixedResolver(fakeCost{pre: 0.001, dec: 0.0005})
	g := New(cfg, fixedResolver(primary))

	// Failing primary: every request still completes, transparently served
	// by the analytic fallback and marked degraded — never a 5xx.
	results, errs := runWave(t, g, 16)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d failed despite fallback: %v", i, err)
		}
		if !results[i].Degraded {
			t.Errorf("request %d not marked degraded while primary is down", i)
		}
	}
	reg := g.Registry()
	if got := reg.Counter("gateway_breaker_opened_total", "").Value(); got < 1 {
		t.Errorf("breaker never opened (counter %d)", got)
	}
	if got := reg.Counter("gateway_degraded_total", "").Value(); got != 16 {
		t.Errorf("degraded counter %d, want 16", got)
	}

	// Heal the primary: after the open period a half-open probe succeeds,
	// the breaker closes, and service returns to non-degraded pricing.
	primary.setFail(false)
	time.Sleep(cfg.BreakerOpenPeriod + 10*time.Millisecond)
	waitFor(t, func() bool {
		r, err := g.Generate(context.Background(),
			Request{Lane: "chaos", InputLen: 64, OutputLen: 4})
		return err == nil && !r.Degraded
	})
	if got := reg.Counter("gateway_breaker_closed_total", "").Value(); got < 1 {
		t.Errorf("breaker never closed after heal (counter %d)", got)
	}
}

func TestChunkedDeadlineEvictsMidBatch(t *testing.T) {
	// Chunked policy with real-time pacing: the victim's deadline expires
	// while its prefill is still chunking, and the lane must evict it
	// without stalling the rest of the batch.
	g := New(Config{MaxQueue: 16, MaxBatch: 4, Workers: 1,
		Policy: Chunked, PrefillChunk: 16, Timescale: 1,
		Registry: metrics.NewRegistry()},
		fixedResolver(fakeCost{pre: 0.2, dec: 0.02}))

	victimCtx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	victim := make(chan error, 1)
	go func() {
		_, err := g.Generate(victimCtx, Request{Lane: "l", InputLen: 128, OutputLen: 8})
		victim <- err
	}()
	waitFor(t, func() bool {
		return g.Registry().Gauge("gateway_inflight", "").Value() == 1
	})

	const others = 2
	done := make(chan error, others)
	for i := 0; i < others; i++ {
		go func() {
			_, err := g.Generate(context.Background(),
				Request{Lane: "l", InputLen: 32, OutputLen: 4})
			done <- err
		}()
	}

	// The victim must come back with its own deadline error promptly —
	// not wait for the whole batch to finish.
	select {
	case err := <-victim:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("victim returned %v, want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("victim not released after its deadline expired")
	}
	for i := 0; i < others; i++ {
		if err := <-done; err != nil {
			t.Errorf("survivor request failed: %v", err)
		}
	}
	reg := g.Registry()
	if got := reg.Counter("gateway_canceled_total", "").Value(); got != 1 {
		t.Errorf("canceled counter %d, want 1", got)
	}
	if got := reg.Counter("gateway_completed_total", "").Value(); got != others {
		t.Errorf("completed counter %d, want %d", got, others)
	}
	waitFor(t, func() bool { return g.QueueDepth() == 0 })
}

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		depth int
		rate  float64
		want  int
	}{
		{0, 5, 1},      // empty queue: retry immediately
		{-3, 5, 1},     // defensive: negative depth
		{10, 5, 2},     // 10 queued at 5/s drains in 2s
		{9, 10, 1},     // sub-second drain rounds up to the 1s floor
		{1000, 5, 30},  // deep backlog clamps at the cap
		{100, 0, 4},    // no rate observed yet: depth heuristic
		{10000, 0, 30}, // depth heuristic also clamps
		{1, 1000, 1},   // fast drain still answers at least 1
		{64, 0.5, 30},  // slow drain clamps
		{30, 10, 3},    // exact division
	}
	for _, tc := range cases {
		if got := RetryAfterHint(tc.depth, tc.rate); got != tc.want {
			t.Errorf("RetryAfterHint(%d, %g) = %d, want %d", tc.depth, tc.rate, got, tc.want)
		}
	}
}

// TestChaosStreamingStallRequeues runs streaming clients through decode
// stalls that trip the watchdog into cancel-and-requeue, with a quarter
// of the clients disconnecting mid-stream. The invariant under test is
// exactly-once token delivery: whatever the scheduler does behind the
// scenes (requeue, re-prefill, drop), each sink must observe a gap-free,
// strictly increasing prefix of token indices with no duplicates, and
// completed requests must see every token exactly once.
func TestChaosStreamingStallRequeues(t *testing.T) {
	inj := faults.New(7)
	cfg := chaosConfig(inj)
	cfg.WatchdogBudget = 15 * time.Millisecond
	if err := inj.Arm(faults.Rule{Class: faults.Stall, Site: "cost.decode",
		Every: 4, Count: 4, DelayMillis: 100}); err != nil {
		t.Fatal(err)
	}
	g := New(cfg, fixedResolver(fakeCost{pre: 0.002, dec: 0.0005}))

	const out = 8
	sinks := make([]*collector, chaosClients)
	errs := make([]error, chaosClients)
	var wg sync.WaitGroup
	for i := 0; i < chaosClients; i++ {
		sinks[i] = &collector{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx := context.Background()
			record := sinks[i].sink()
			sink := record
			if i%4 == 3 {
				// Every fourth client walks away after its second token.
				cctx, cancel := context.WithCancel(ctx)
				defer cancel()
				ctx = cctx
				sink = func(ev TokenEvent) {
					record(ev)
					if ev.Index == 1 {
						cancel()
					}
				}
			}
			_, errs[i] = g.Generate(ctx,
				Request{Lane: "chaos", InputLen: 64, OutputLen: out, Sink: sink})
		}(i)
	}
	wg.Wait()
	// Let the scheduler finish dropping canceled sequences so no sink is
	// still being fed while we inspect it.
	waitFor(t, func() bool {
		return g.QueueDepth() == 0 &&
			g.Registry().Gauge("gateway_inflight", "").Value() == 0
	})
	time.Sleep(20 * time.Millisecond)

	var failed, canceled int
	for i, err := range errs {
		events := sinks[i].snapshot()
		// Exactly-once, in-order delivery regardless of requeues: the
		// sink's view is a gap-free prefix of 0..out-1.
		for k, ev := range events {
			if ev.Index != k {
				t.Fatalf("request %d: event %d has index %d (duplicate or gap)", i, k, ev.Index)
			}
			if got, want := ev.Final, ev.Index == out-1; got != want {
				t.Errorf("request %d event %d: Final=%v, want %v", i, k, got, want)
			}
		}
		switch {
		case err == nil:
			if len(events) != out {
				t.Errorf("request %d completed with %d/%d tokens streamed", i, len(events), out)
			}
		case errors.Is(err, context.Canceled):
			canceled++
			if len(events) > out {
				t.Errorf("request %d canceled but saw %d tokens", i, len(events))
			}
		case errors.Is(err, ErrWatchdogTimeout):
			failed++
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
			failed++
		}
	}
	if canceled == 0 {
		t.Error("no mid-stream disconnects took effect")
	}
	// 4 stall fires x MaxBatch 8 bounds the requeue-budget casualties.
	if failed > 32 {
		t.Errorf("%d requests failed, fault budget allows at most 32", failed)
	}
	// Exactly one outcome per request across the counters: completed,
	// failed, or dropped after cancellation.
	reg := g.Registry()
	total := reg.Counter("gateway_completed_total", "").Value() +
		reg.Counter("gateway_failed_total", "").Value() +
		reg.Counter("gateway_canceled_total", "").Value()
	if total != chaosClients {
		t.Errorf("outcome accounting: %d outcomes for %d requests", total, chaosClients)
	}
	if got := reg.Counter("gateway_requeued_total", "").Value(); got < 1 {
		t.Errorf("no requeues counted (got %d) — stall fault did not exercise the path", got)
	}
}
