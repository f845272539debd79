package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/serve"
)

// fakeCost prices iterations with fixed constants (modeled seconds).
type fakeCost struct{ pre, dec float64 }

func (f fakeCost) PrefillCost(batch, in int) (float64, error)     { return f.pre, nil }
func (f fakeCost) DecodeStepCost(batch, ctx int) (float64, error) { return f.dec, nil }
func (fakeCost) Cached(bool, int, int) (serve.Quote, bool)        { return serve.Quote{}, false }

// latchCost blocks every prefill on a gate, letting a test wedge one
// replica's lane while others serve. It signals entered when a prefill
// begins, so tests know the lane is occupied rather than idle.
type latchCost struct {
	fakeCost
	entered chan struct{}
	gate    chan struct{}
}

func (l *latchCost) PrefillCost(batch, in int) (float64, error) {
	select {
	case l.entered <- struct{}{}:
	default:
	}
	<-l.gate
	return l.fakeCost.PrefillCost(batch, in)
}

func fastResolver() gateway.Resolver {
	return func(string) (serve.CostModel, error) {
		return fakeCost{pre: 0.001, dec: 0.0001}, nil
	}
}

// testCluster bundles a router with the knobs tests flip.
type testCluster struct {
	r   *Router
	inj *faults.Injector
	reg *metrics.Registry
}

func newTestCluster(t *testing.T, n int, mutate func(*Config)) *testCluster {
	t.Helper()
	reg := metrics.NewRegistry()
	inj := faults.New(1)
	inj.Instrument(reg)
	cfg := Config{
		Replicas: n,
		Factory: func(id string) (*gateway.Gateway, error) {
			return gateway.New(gateway.Config{
				MaxQueue: 256, MaxBatch: 8, Workers: 2, Registry: reg, Injector: inj,
			}, fastResolver()), nil
		},
		Registry:      reg,
		Injector:      inj,
		ProbeInterval: 5 * time.Millisecond,
		EjectCooloff:  50 * time.Millisecond,
		RetryWindow:   time.Minute,
		BackoffBase:   time.Millisecond,
		BackoffMax:    5 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = r.Shutdown(ctx)
	})
	return &testCluster{r: r, inj: inj, reg: reg}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func genReq() gateway.Request {
	return gateway.Request{Lane: "spr/OPT-13B", InputLen: 64, OutputLen: 4}
}

func TestRouterServesAndAttributesReplica(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	seen := map[string]int{}
	for i := 0; i < 9; i++ {
		res, err := tc.r.Generate(context.Background(), genReq())
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Replica == "" {
			t.Fatalf("request %d: no replica attribution", i)
		}
		seen[res.Replica]++
	}
	// Round-robin over three healthy replicas: an even 3/3/3 spread.
	for _, id := range []string{"r0", "r1", "r2"} {
		if seen[id] != 3 {
			t.Fatalf("round-robin spread %v, want 3 each", seen)
		}
	}
}

func TestAllUnhealthyRejectsWithNoHealthyReplicas(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	mustArm(t, tc.inj,
		faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: "r0"},
		faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: "r1"},
	)
	waitFor(t, "both replicas down", func() bool { return tc.r.Snapshot().Healthy == 0 })
	_, err := tc.r.Generate(context.Background(), genReq())
	if !errors.Is(err, ErrNoHealthyReplicas) {
		t.Fatalf("err = %v, want ErrNoHealthyReplicas", err)
	}
	// Readiness follows: an all-down cluster reports memory-pressure-like
	// unavailability and still offers a Retry-After hint.
	if !tc.r.MemoryPressure() {
		t.Error("all-down cluster should report no shed-free capacity")
	}
	if tc.r.RetryAfterSeconds() < 1 {
		t.Error("all-down cluster must still hint a retry delay")
	}
}

func mustArm(t *testing.T, inj *faults.Injector, rules ...faults.Rule) {
	t.Helper()
	if err := inj.Arm(rules...); err != nil {
		t.Fatal(err)
	}
}

// TestFailoverRescuesInterruptedRequest is the acceptance scenario: a
// non-streamed request caught on a replica when it dies succeeds via
// failover, within its retry budget, and reports the rescue.
func TestFailoverRescuesInterruptedRequest(t *testing.T) {
	lc := &latchCost{
		fakeCost: fakeCost{pre: 0.001, dec: 0.0001},
		entered:  make(chan struct{}, 4),
		gate:     make(chan struct{}),
	}
	gate := lc.gate
	tc := newTestCluster(t, 2, func(cfg *Config) {
		reg, inj := cfg.Registry, cfg.Injector
		cfg.Factory = func(id string) (*gateway.Gateway, error) {
			resolve := fastResolver()
			if id == "r0" {
				// r0's lane wedges in prefill until the gate opens, so work
				// lands in its queue and stays there. MaxBatch 1 keeps the
				// victim out of the decoy's batch: it must queue behind it.
				resolve = func(string) (serve.CostModel, error) { return lc, nil }
			}
			return gateway.New(gateway.Config{
				MaxQueue: 256, MaxBatch: 1, Workers: 1, Registry: reg, Injector: inj,
			}, resolve), nil
		}
	})
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(gate) }) }
	defer openGate()

	// Wedge r0: a decoy submitted directly to its gateway blocks the lane.
	decoyDone := make(chan struct{})
	go func() {
		defer close(decoyDone)
		_, _ = tc.r.replicas[0].gateway().Generate(context.Background(), genReq())
	}()
	select {
	case <-lc.entered: // decoy is inside prefill, holding r0's only lane
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the decoy to occupy r0's lane")
	}

	// The victim routes to r0 (fresh round-robin cursor) and queues
	// behind the wedged decoy.
	type outcome struct {
		res gateway.Result
		err error
	}
	victim := make(chan outcome, 1)
	go func() {
		res, err := tc.r.Generate(context.Background(), genReq())
		victim <- outcome{res, err}
	}()
	waitFor(t, "victim queued on r0", func() bool {
		return tc.r.replicas[0].gateway().QueueDepth() >= 1
	})

	// Kill r0. The health loop marks it down and cancels in-flight work;
	// the victim — zero tokens streamed — retries on r1 and succeeds.
	mustArm(t, tc.inj, faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: "r0"})
	out := <-victim
	if out.err != nil {
		t.Fatalf("victim should be rescued by failover, got %v", out.err)
	}
	if out.res.Replica != "r1" {
		t.Fatalf("victim served by %q, want r1", out.res.Replica)
	}
	if out.res.Failovers < 1 {
		t.Fatalf("victim reports %d failovers, want >= 1", out.res.Failovers)
	}
	if got := tc.r.Snapshot().Failovers; got < 1 {
		t.Fatalf("cluster failover counter = %d, want >= 1", got)
	}
	// Release the wedged decoy so the test does not ride out the lane
	// watchdog before the router's cleanup drain.
	openGate()
	<-decoyDone
}

func TestReplicaRecoversThroughHalfOpen(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	mustArm(t, tc.inj, faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: "r0"})
	waitFor(t, "r0 down", func() bool {
		return tc.r.replicas[0].stateNow() == down
	})
	tc.inj.Disarm()
	waitFor(t, "r0 half-open after outage clears", func() bool {
		return tc.r.replicas[0].stateNow() == halfOpen
	})
	// The next successful request through r0 readmits it.
	waitFor(t, "r0 readmitted", func() bool {
		_, _ = tc.r.Generate(context.Background(), genReq())
		return tc.r.replicas[0].stateNow() == healthy
	})
	if got := tc.r.m.readmissions.Value(); got < 1 {
		t.Fatalf("readmissions = %d, want >= 1", got)
	}
}

// TestHalfOpenTrialReleasedOnAnyOutcome: a half-open replica's trial
// slot is freed by every outcome of the trial, and an outcome that is
// not charged to health (cancel, a load rejection, a hedge arm that lost
// the race) leaves the replica half-open for the next trial rather than
// unroutable for good or readmitted on another replica's success.
func TestHalfOpenTrialReleasedOnAnyOutcome(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
		probe    int // the replica taken through an outage to half-open
		// latched, when set, builds every replica gateway from it with
		// prefills waiting on the case's latch.
		latched *gateway.Config
		mutate  func(*Config)
		trial   func(t *testing.T, tc *testCluster, lc *latchCost)
	}{
		{
			name: "cancel", replicas: 1,
			latched: &gateway.Config{MaxQueue: 8, MaxBatch: 8, Workers: 1},
			trial: func(t *testing.T, tc *testCluster, lc *latchCost) {
				defer close(lc.gate)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				errc := make(chan error, 1)
				go func() { _, err := tc.r.Generate(ctx, genReq()); errc <- err }()
				select {
				case <-lc.entered:
				case err := <-errc:
					t.Fatalf("trial ended before its prefill: %v", err)
				}
				cancel()
				if err := <-errc; !errors.Is(err, context.Canceled) {
					t.Fatalf("trial err = %v, want context.Canceled", err)
				}
			},
		},
		{
			name: "queue-full", replicas: 1,
			latched: &gateway.Config{MaxQueue: 1, MaxBatch: 1, Workers: 1},
			mutate:  func(cfg *Config) { cfg.MaxFailovers = -1 },
			trial: func(t *testing.T, tc *testCluster, lc *latchCost) {
				// Fill the replica's gateway directly: one request holds
				// the lane in its prefill, a second fills the queue.
				gw := tc.r.replicas[0].gateway()
				var wg sync.WaitGroup
				defer wg.Wait()
				defer close(lc.gate)
				for i := 0; i < 2; i++ {
					wg.Add(1)
					go func() { defer wg.Done(); _, _ = gw.Generate(context.Background(), genReq()) }()
					if i == 0 {
						<-lc.entered
					}
				}
				waitFor(t, "replica queue full", func() bool { return gw.QueueDepth() == 1 })
				if _, err := tc.r.Generate(context.Background(), genReq()); !errors.Is(err, gateway.ErrQueueFull) {
					t.Fatalf("trial err = %v, want ErrQueueFull", err)
				}
			},
		},
		{
			name: "hedge-loser", replicas: 2, probe: 1,
			mutate: func(cfg *Config) { cfg.HedgeAfter = 5 * time.Millisecond },
			trial: func(t *testing.T, tc *testCluster, _ *latchCost) {
				// Both replicas are slow, r1 (half-open) ten times more:
				// whichever is primary, the r0 arm wins and r1's loses.
				mustArm(t, tc.inj,
					faults.Rule{Class: faults.ReplicaSlow, Site: FaultSite, Lane: "r0", DelayMillis: 30},
					faults.Rule{Class: faults.ReplicaSlow, Site: FaultSite, Lane: "r1", DelayMillis: 300},
				)
				waitFor(t, "slow conditions visible", func() bool {
					return tc.r.replicas[0].slowNs.Load() > 0 && tc.r.replicas[1].slowNs.Load() > 0
				})
				res, err := tc.r.Generate(context.Background(), genReq())
				if err != nil || res.Replica != "r0" {
					t.Fatalf("hedged request: replica %q err %v, want a win on r0", res.Replica, err)
				}
				if tc.r.m.hedges.Value() != 1 {
					t.Fatalf("hedges = %d, want 1", tc.r.m.hedges.Value())
				}
				tc.inj.Disarm()
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			lc := &latchCost{fakeCost: fakeCost{pre: 0.001, dec: 0.0001},
				entered: make(chan struct{}, 1), gate: make(chan struct{})}
			tc := newTestCluster(t, c.replicas, func(cfg *Config) {
				if c.latched != nil {
					cfg.Factory = func(string) (*gateway.Gateway, error) {
						gw := *c.latched
						gw.Registry, gw.Injector = cfg.Registry, cfg.Injector
						return gateway.New(gw, func(string) (serve.CostModel, error) { return lc, nil }), nil
					}
				}
				if c.mutate != nil {
					c.mutate(cfg)
				}
			})
			rep := tc.r.replicas[c.probe]
			mustArm(t, tc.inj, faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: rep.id})
			waitFor(t, "replica down", func() bool { return rep.stateNow() == down })
			tc.inj.Disarm()
			waitFor(t, "replica half-open", func() bool { return rep.stateNow() == halfOpen })

			c.trial(t, tc, lc)
			waitFor(t, "trial slot released", func() bool {
				rep.mu.Lock()
				defer rep.mu.Unlock()
				return !rep.trial
			})
			if st := rep.stateNow(); st != halfOpen {
				t.Fatalf("state after an uncharged trial = %v, want half-open", st)
			}
			// The next trial reaches the replica and readmits it.
			waitFor(t, "replica readmitted", func() bool {
				if _, err := tc.r.Generate(context.Background(), genReq()); err != nil {
					t.Fatalf("request after the trial: %v", err)
				}
				return rep.stateNow() == healthy
			})
		})
	}
}

func TestRetryBudgetExhaustionStopsFailover(t *testing.T) {
	tc := newTestCluster(t, 2, func(cfg *Config) {
		cfg.RetryBudget = 1
		cfg.MaxFailovers = 5
	})
	// Kill both replicas but keep routing: force states down post-probe,
	// then disarm so routable sees them half-open (accepting trials that
	// will fail fast... simpler: keep one down and one up, then exhaust
	// the budget with repeated kills). Instead: down r0, requests land on
	// r1; kill r1 mid-flight repeatedly is timing-fragile. Exhaust the
	// bucket directly: it has 1 token and a slow refill.
	if !tc.r.allowRetry("c1") {
		t.Fatal("first retry should fit the budget")
	}
	if tc.r.allowRetry("c1") {
		t.Fatal("second retry should exceed the 1-token budget")
	}
	if !tc.r.allowRetry("c2") {
		t.Fatal("budgets are per client; c2 has its own bucket")
	}
}

func TestDeadlineStopsRetries(t *testing.T) {
	tc := newTestCluster(t, 2, func(cfg *Config) {
		cfg.BackoffBase = 50 * time.Millisecond
		cfg.BackoffMax = 100 * time.Millisecond
	})
	mustArm(t, tc.inj,
		faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: "r0"},
		faults.Rule{Class: faults.ReplicaDown, Site: FaultSite, Lane: "r1"},
	)
	waitFor(t, "both replicas down", func() bool { return tc.r.Snapshot().Healthy == 0 })
	// A request with 20ms left cannot afford a 50ms+ backoff: the router
	// must fail promptly rather than sleep past the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := tc.r.Generate(ctx, genReq())
	if err == nil {
		t.Fatal("expected failure with an all-down cluster")
	}
	if elapsed := time.Since(start); elapsed > 40*time.Millisecond {
		t.Fatalf("router slept %v retrying past a 20ms deadline", elapsed)
	}
}

func TestHedgedRequestWinsOnSlowPrimary(t *testing.T) {
	tc := newTestCluster(t, 2, func(cfg *Config) {
		cfg.HedgeAfter = 10 * time.Millisecond
	})
	// r0 is slow-injected: every dispatch through the router eats a
	// standing 300ms delay. The hedge fires at 10ms on r1 and wins.
	mustArm(t, tc.inj, faults.Rule{
		Class: faults.ReplicaSlow, Site: FaultSite, Lane: "r0",
		DelayMillis: 300,
	})
	waitFor(t, "slow condition visible to router", func() bool {
		return tc.r.replicas[0].slowNs.Load() > 0
	})
	res, err := tc.r.Generate(context.Background(), genReq())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hedged || res.Replica != "r1" {
		t.Fatalf("res = {replica %q hedged %v}, want hedge win on r1", res.Replica, res.Hedged)
	}
	if tc.r.m.hedges.Value() < 1 || tc.r.m.hedgeWins.Value() < 1 {
		t.Fatalf("hedge counters = %d/%d, want >= 1",
			tc.r.m.hedges.Value(), tc.r.m.hedgeWins.Value())
	}
}

func TestLifecycleDrainAndRollingRestart(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	ctx := context.Background()
	if err := tc.r.DrainReplica(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	if st := tc.r.replicas[1].stateNow(); st != draining {
		t.Fatalf("r1 state = %v, want draining", st)
	}
	// A drained replica takes no traffic; the rest keep serving.
	for i := 0; i < 6; i++ {
		res, err := tc.r.Generate(ctx, genReq())
		if err != nil {
			t.Fatal(err)
		}
		if res.Replica == "r1" {
			t.Fatal("drained replica r1 must not receive traffic")
		}
	}
	if err := tc.r.RestartReplica(ctx, "r1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restarted r1 takes traffic again", func() bool {
		res, err := tc.r.Generate(ctx, genReq())
		return err == nil && res.Replica == "r1"
	})
	if err := tc.r.RollingRestart(ctx); err != nil {
		t.Fatal(err)
	}
	if got := tc.r.Snapshot().Healthy; got != 3 {
		t.Fatalf("healthy after rolling restart = %d, want 3", got)
	}
	if _, err := tc.r.Generate(ctx, genReq()); err != nil {
		t.Fatalf("post-restart request: %v", err)
	}
	if err := tc.r.DrainReplica(ctx, "nope"); !errors.Is(err, ErrUnknownReplica) {
		t.Fatalf("draining unknown replica: %v, want ErrUnknownReplica", err)
	}
}

func TestEjectionAfterConsecutiveErrors(t *testing.T) {
	tc := newTestCluster(t, 2, nil)
	rep := tc.r.replicas[0]
	boom := fmt.Errorf("kaput: %w", gateway.ErrLanePanic)
	for i := 0; i < ejectThreshold; i++ {
		tc.r.observeOutcome(rep, boom, time.Millisecond)
	}
	if st := rep.stateNow(); st != ejected {
		t.Fatalf("after %d consecutive errors state = %v, want ejected",
			ejectThreshold, st)
	}
	// Load rejections never eject: they are backpressure, not sickness.
	rep2 := tc.r.replicas[1]
	for i := 0; i < 10; i++ {
		tc.r.observeOutcome(rep2, gateway.ErrQueueFull, time.Millisecond)
	}
	if st := rep2.stateNow(); st != healthy {
		t.Fatalf("queue-full streak ejected a healthy replica (state %v)", st)
	}
	// Cooloff expiry probes half-open; a successful trial readmits.
	waitFor(t, "r0 half-open after cooloff", func() bool {
		return rep.stateNow() == halfOpen
	})
	tc.r.observeOutcome(rep, nil, time.Millisecond)
	if st := rep.stateNow(); st != healthy {
		t.Fatalf("successful trial left state %v, want healthy", st)
	}
}

// TestSharedRegistryAcrossReplicas guards the aggregate-metrics
// contract: replica gateways share one registry without panicking or
// double-registering, and cluster_* instruments coexist with gateway_*.
func TestSharedRegistryAcrossReplicas(t *testing.T) {
	tc := newTestCluster(t, 3, nil)
	if _, err := tc.r.Generate(context.Background(), genReq()); err != nil {
		t.Fatal(err)
	}
	var buf syncBuffer
	if err := tc.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cluster_replicas", "cluster_healthy_replicas",
		"gateway_admitted_total", "cluster_requests_routed_total"} {
		if !contains(out, want) {
			t.Fatalf("metrics output missing %s", want)
		}
	}
}

type syncBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && indexOf(haystack, needle) >= 0
}

func indexOf(haystack, needle string) int {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return i
		}
	}
	return -1
}
