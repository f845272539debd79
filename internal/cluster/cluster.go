// Package cluster is the fault-tolerant multi-replica layer over the
// serving gateway: N in-process gateway replicas — each with its own
// lanes, KV governor and supervision — behind a front router that keeps
// serving while individual replicas are slow, wedged, flapping or dead.
//
// The router owns four concerns:
//
//   - Health. An active checker polls every replica on a fixed interval:
//     it queries the fault injector's standing replica conditions
//     (replica-down, replica-slow, replica-flap at site "replica", the
//     rule's lane field naming the replica ID) and the replica's own
//     drain state. Passively, dispatch outcomes feed consecutive-error
//     counts and a latency EWMA; a replica that errors repeatedly or
//     whose EWMA drifts far above the healthiest replica's is ejected.
//     Ejected and recovered replicas re-enter through a half-open state:
//     one real request probes them before full readmission.
//
//   - Routing. Pluggable policies — round-robin, least-loaded (queue
//     depth plus KV-pool pressure), and SLO-class weighted — choose among
//     routable replicas only. With zero routable replicas submissions
//     fail fast with ErrNoHealthyReplicas (HTTP 503).
//
//   - Failover. A request that fails with a replica-level error before
//     any token has been streamed retries on the next replica, under a
//     per-client retry budget (token bucket) and exponential backoff with
//     jitter, never past the request's context deadline. Requests that
//     already streamed tokens are never re-dispatched — the mid-stream
//     failure terminates with the uniform error envelope exactly as the
//     streaming layer specifies — and a cross-attempt token filter keeps
//     delivery exactly-once even if an attempt raced its own failure.
//
//   - Hedging. Optionally, short non-streamed requests that have not
//     completed within a hedge delay are duplicated on a second replica;
//     the first outcome wins, the loser is cancelled, and the wasted
//     compute is accounted in cluster metrics.
//
// Every routing decision is observable: per-replica cluster_* metrics,
// route/failover/hedge trace spans on the request's trace, and the
// State document the API serves at GET /v1/debug/state.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/gateway"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Sentinel errors the API layer maps to HTTP statuses.
var (
	// ErrNoHealthyReplicas rejects a submission when every replica is
	// ejected, down or draining (HTTP 503).
	ErrNoHealthyReplicas = errors.New("cluster: no healthy replicas")
	// ErrReplicaDown marks a dispatch terminated because its replica was
	// forced down (fault injection or lifecycle) mid-flight; it is
	// retryable on another replica when nothing was streamed yet.
	ErrReplicaDown = errors.New("cluster: replica down")
	// ErrUnknownReplica rejects lifecycle operations naming no replica.
	ErrUnknownReplica = errors.New("cluster: unknown replica")
)

// FaultSite is the injection-site name the router polls for standing
// replica conditions; rules target one replica via their Lane field.
const FaultSite = "replica"

// Config tunes the router. Replicas and Factory are required.
type Config struct {
	// Replicas is the number of gateway replicas to build via Factory.
	Replicas int
	// Factory builds (or rebuilds, on restart) the gateway behind one
	// replica ID. Replica IDs are "r0".."rN-1".
	Factory func(id string) (*gateway.Gateway, error)
	// Weights are per-replica relative capacities for the weighted
	// policy (heterogeneous platforms: an AMX/HBM box outserves a DDR
	// one). Missing or non-positive entries default to 1.
	Weights []int
	// Policy selects the routing policy. Default RoundRobin.
	Policy Policy

	// Registry receives cluster instruments; a private registry is
	// created when nil. Replica gateways should share it.
	Registry *metrics.Registry
	// Tracer records route/failover/hedge spans; a default tracer over
	// Registry is created when nil.
	Tracer *trace.Tracer
	// Logger receives structured router events (ejections, readmissions,
	// failovers, lifecycle). Nil discards them.
	Logger *slog.Logger
	// Injector, when non-nil, is polled for standing replica outage
	// conditions (replica-down / replica-slow / replica-flap).
	Injector *faults.Injector

	// ProbeInterval is the active health-check period. Default 100ms.
	ProbeInterval time.Duration
	// EjectCooloff is how long a passively ejected replica waits before
	// half-open probing. Default 2s.
	EjectCooloff time.Duration
	// SlowFactor ejects a replica whose success-latency EWMA exceeds
	// SlowFactor times the best healthy replica's EWMA. Default 4.
	SlowFactor float64

	// MaxFailovers bounds re-dispatch attempts per request beyond the
	// first. Default 2; negative disables failover.
	MaxFailovers int
	// RetryBudget is the per-client failover token bucket: at most this
	// many retries per RetryWindow, burstable to the same cap. Default 8;
	// negative disables the budget (unlimited retries within
	// MaxFailovers).
	RetryBudget int
	// RetryWindow is the budget refill window. Default 10s.
	RetryWindow time.Duration
	// BackoffBase and BackoffMax bound the exponential inter-attempt
	// backoff (full jitter). Defaults 5ms / 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// HedgeAfter, when positive, duplicates an eligible request on a
	// second replica if the first has not resolved within this delay.
	// 0 disables hedging.
	HedgeAfter time.Duration
	// Seed drives backoff jitter. Default 1.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = RoundRobin()
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = trace.New(trace.Config{SampleRate: 1, Registry: c.Registry})
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Millisecond
	}
	if c.EjectCooloff <= 0 {
		c.EjectCooloff = 2 * time.Second
	}
	if c.SlowFactor <= 0 {
		c.SlowFactor = 4
	}
	if c.MaxFailovers == 0 {
		c.MaxFailovers = 2
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 8
	}
	if c.RetryWindow <= 0 {
		c.RetryWindow = 10 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 5 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// health is one replica's routability state.
type health int

const (
	// healthy replicas take policy-routed traffic.
	healthy health = iota
	// ejected replicas took too many consecutive errors or drifted too
	// slow; they wait out a cooloff before half-open probing.
	ejected
	// halfOpen replicas accept exactly one trial request; its outcome
	// readmits or re-ejects.
	halfOpen
	// down replicas are forced dead by a standing fault or lifecycle
	// action; in-flight work is terminated.
	down
	// draining replicas are gracefully finishing in-flight work and take
	// no new requests.
	draining
)

func (h health) String() string {
	switch h {
	case healthy:
		return "healthy"
	case ejected:
		return "ejected"
	case halfOpen:
		return "half-open"
	case down:
		return "down"
	case draining:
		return "draining"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// replica is one gateway instance plus the router's view of its health.
type replica struct {
	id     string
	weight int

	mu           sync.Mutex
	gw           *gateway.Gateway
	state        health
	downCh       chan struct{} // closed while forced down
	consec       int           // consecutive replica-level errors
	ewmaMs       float64       // success-latency EWMA
	samples      int
	ejectedUntil time.Time
	trial        bool // half-open trial request in flight

	slowNs atomic.Int64 // standing replica-slow delay, set by the checker

	served atomic.Uint64
	failed atomic.Uint64
}

// gateway returns the replica's current gateway (swapped on restart).
func (r *replica) gateway() *gateway.Gateway {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gw
}

// downChan returns the channel closed while the replica is forced down.
func (r *replica) downChan() chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.downCh
}

func (r *replica) stateNow() health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Router fronts the replica set. It satisfies the API layer's Backend
// contract, so one llmperfd process serves either a bare gateway or a
// cluster through the same HTTP surface.
type Router struct {
	cfg      Config
	log      *slog.Logger
	inj      *faults.Injector
	m        instruments
	replicas []*replica

	rngMu sync.Mutex
	rng   *rand.Rand

	budgetMu sync.Mutex
	budgets  map[string]*retryBudget

	drainFlag atomic.Bool
	done      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New builds cfg.Replicas gateways through cfg.Factory and starts the
// router's health checker.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 1 {
		return nil, errors.New("cluster: need at least one replica")
	}
	if cfg.Factory == nil {
		return nil, errors.New("cluster: config needs a replica Factory")
	}
	r := &Router{
		cfg:     cfg,
		log:     cfg.Logger,
		inj:     cfg.Injector,
		m:       newInstruments(cfg.Registry),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		budgets: map[string]*retryBudget{},
		done:    make(chan struct{}),
	}
	for i := 0; i < cfg.Replicas; i++ {
		id := fmt.Sprintf("r%d", i)
		gw, err := cfg.Factory(id)
		if err != nil {
			return nil, fmt.Errorf("cluster: building replica %s: %w", id, err)
		}
		w := 1
		if i < len(cfg.Weights) && cfg.Weights[i] > 0 {
			w = cfg.Weights[i]
		}
		r.replicas = append(r.replicas, &replica{
			id: id, weight: w, gw: gw, downCh: make(chan struct{}),
		})
	}
	r.m.replicas.Set(int64(len(r.replicas)))
	r.m.healthyReplicas.Set(int64(len(r.replicas)))
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

func (r *Router) replicaByID(id string) *replica {
	for _, rep := range r.replicas {
		if rep.id == id {
			return rep
		}
	}
	return nil
}

// Backend surface shared with gateway.Gateway -------------------------

// Registry exposes the shared metric registry (for /metrics).
func (r *Router) Registry() *metrics.Registry { return r.cfg.Registry }

// Tracer exposes the shared tracer (for /v1/traces).
func (r *Router) Tracer() *trace.Tracer { return r.cfg.Tracer }

// Injector exposes the shared fault injector (for /v1/admin/faults).
func (r *Router) Injector() *faults.Injector { return r.inj }

// State is the cluster's operator state document (GET
// /v1/debug/state): the routing Snapshot with each replica's own
// gateway State nested in its entry. Nothing is merged across replicas.
func (r *Router) State() gateway.State {
	st := r.Snapshot()
	for i, rep := range r.replicas {
		gs := rep.gateway().State()
		st.Replicas[i].Gateway = &gs
	}
	return gateway.State{Cluster: st}
}

// FlushCache flushes every replica's prefix cache and returns the total
// number of KV blocks released; ok is false when no replica caches.
func (r *Router) FlushCache() (released int, ok bool) {
	for _, rep := range r.replicas {
		n, caches := rep.gateway().FlushCache()
		released += n
		ok = ok || caches
	}
	return released, ok
}

// Draining reports whether Shutdown has begun.
func (r *Router) Draining() bool { return r.drainFlag.Load() }

// MemoryPressure reports whether the cluster has no shed-free capacity:
// every routable replica is above its KV high watermark (or nothing is
// routable at all). A single pressured replica does not flip cluster
// readiness — the router routes around it.
func (r *Router) MemoryPressure() bool {
	routable, shedding := 0, 0
	for _, rep := range r.replicas {
		st := rep.stateNow()
		if st != healthy && st != halfOpen {
			continue
		}
		routable++
		if rep.gateway().MemoryPressure() {
			shedding++
		}
	}
	return routable == 0 || shedding == routable
}

// Saturated reports whether the cluster has no unsaturated capacity:
// every routable replica's admission queue has been pinned at capacity
// past its saturation window (or nothing is routable). One saturated
// replica does not flip cluster readiness — the router routes around it.
func (r *Router) Saturated() bool {
	routable, saturated := 0, 0
	for _, rep := range r.replicas {
		st := rep.stateNow()
		if st != healthy && st != halfOpen {
			continue
		}
		routable++
		if rep.gateway().Saturated() {
			saturated++
		}
	}
	return routable == 0 || saturated == routable
}

// BrownoutLevel is the cluster's effective degradation level: the
// minimum across routable replicas, because the policies steer new work
// toward the least-degraded replica — the X-Brownout-Level a client
// sees should describe the service it will actually get. With nothing
// routable it reports the worst replica instead.
func (r *Router) BrownoutLevel() int {
	min, max, routable := 0, 0, 0
	for _, rep := range r.replicas {
		lvl := rep.gateway().BrownoutLevel()
		if lvl > max {
			max = lvl
		}
		st := rep.stateNow()
		if st != healthy && st != halfOpen {
			continue
		}
		if routable == 0 || lvl < min {
			min = lvl
		}
		routable++
	}
	if routable == 0 {
		return max
	}
	return min
}

// RetryAfterSeconds aggregates the backpressure hint across replicas:
// the soonest any routable replica expects capacity.
func (r *Router) RetryAfterSeconds() int {
	best := 0
	for _, rep := range r.replicas {
		if st := rep.stateNow(); st != healthy && st != halfOpen {
			continue
		}
		if s := rep.gateway().RetryAfterSeconds(); best == 0 || s < best {
			best = s
		}
	}
	if best == 0 {
		best = 5 // nothing routable: suggest a modest cool-off
	}
	return best
}

// runOnReplica executes fn under the replica's forced-down watch: if the
// replica is forced down mid-call the work is cancelled and the error is
// rewritten to ErrReplicaDown so callers can fail over.
func (r *Router) runOnReplica(ctx context.Context, rep *replica, fn func(context.Context) error) error {
	if d := time.Duration(rep.slowNs.Load()); d > 0 {
		select { // standing replica-slow condition
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	downc := rep.downChan()
	go func() {
		select {
		case <-downc:
			cancel()
		case <-dctx.Done():
		}
	}()
	err := fn(dctx)
	if err != nil && ctx.Err() == nil {
		select {
		case <-downc:
			err = fmt.Errorf("%w: %s: %v", ErrReplicaDown, rep.id, err)
		default:
		}
	}
	return err
}

// Shutdown stops the health checker and drains every replica.
func (r *Router) Shutdown(ctx context.Context) error {
	r.drainFlag.Store(true)
	r.stopOnce.Do(func() { close(r.done) })
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, rep := range r.replicas {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			if err := rep.gateway().Shutdown(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("cluster: draining %s: %w", rep.id, err)
				}
				mu.Unlock()
			}
		}(rep)
	}
	wg.Wait()
	r.wg.Wait()
	return firstErr
}

// Lifecycle -----------------------------------------------------------

// DrainReplica gracefully removes one replica from rotation: it stops
// receiving traffic immediately and finishes in-flight work within ctx.
func (r *Router) DrainReplica(ctx context.Context, id string) error {
	rep := r.replicaByID(id)
	if rep == nil {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, id)
	}
	rep.mu.Lock()
	rep.state = draining
	gw := rep.gw
	rep.mu.Unlock()
	r.log.Info("cluster: draining replica", "replica", id)
	r.refreshHealthyGauge()
	return gw.Shutdown(ctx)
}

// RestartReplica drains one replica, rebuilds its gateway through the
// factory, and readmits it healthy with a clean slate.
func (r *Router) RestartReplica(ctx context.Context, id string) error {
	rep := r.replicaByID(id)
	if rep == nil {
		return fmt.Errorf("%w: %q", ErrUnknownReplica, id)
	}
	if err := r.DrainReplica(ctx, id); err != nil {
		return err
	}
	gw, err := r.cfg.Factory(id)
	if err != nil {
		return fmt.Errorf("cluster: rebuilding replica %s: %w", id, err)
	}
	rep.mu.Lock()
	old := rep.gw
	rep.gw = gw
	rep.state = healthy
	rep.consec, rep.ewmaMs, rep.samples = 0, 0, 0
	rep.trial = false
	if rep.downCh == nil || isClosed(rep.downCh) {
		rep.downCh = make(chan struct{})
	}
	rep.mu.Unlock()
	// The replaced governor's series leave the shared registry, or its
	// gauges would go on counting next to its successor's.
	old.Governor().Retire()
	r.m.restarts.Inc()
	r.log.Info("cluster: restarted replica", "replica", id)
	r.refreshHealthyGauge()
	return nil
}

// RollingRestart restarts every replica in sequence, waiting for each to
// drain and rejoin before moving on — the cluster keeps serving from the
// remaining replicas throughout.
func (r *Router) RollingRestart(ctx context.Context) error {
	for _, rep := range r.replicas {
		if err := r.RestartReplica(ctx, rep.id); err != nil {
			return err
		}
	}
	return nil
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Snapshot ------------------------------------------------------------

// ReplicaStatus is one replica's routing and health state.
type ReplicaStatus struct {
	ID                string  `json:"id"`
	Weight            int     `json:"weight"`
	State             string  `json:"state"`
	QueueDepth        int     `json:"queue_depth"`
	EWMAMillis        float64 `json:"latency_ewma_ms"`
	ConsecutiveErrors int     `json:"consecutive_errors,omitempty"`
	Served            uint64  `json:"served"`
	Failed            uint64  `json:"failed,omitempty"`
	Shedding          bool    `json:"shedding,omitempty"`
	// BrownoutLevel is the replica's degradation-ladder rung (0 nominal);
	// routing policies steer interactive traffic away from non-zero rungs.
	BrownoutLevel int `json:"brownout_level,omitempty"`
	// Gateway is the replica's own operator state (KV pools, prefix
	// cache, overload control); State fills it, Snapshot leaves it nil.
	Gateway *gateway.State `json:"gateway,omitempty"`
}

// Status is the router's observable state, served by State at GET
// /v1/debug/state.
type Status struct {
	Policy               string          `json:"policy"`
	Healthy              int             `json:"healthy"`
	Replicas             []ReplicaStatus `json:"replicas"`
	Failovers            uint64          `json:"failovers"`
	RetryBudgetExhausted uint64          `json:"retry_budget_exhausted"`
	Hedges               uint64          `json:"hedges"`
	HedgeWins            uint64          `json:"hedge_wins"`
	Ejections            uint64          `json:"ejections"`
	Readmissions         uint64          `json:"readmissions"`
}

// Snapshot returns the current cluster state.
func (r *Router) Snapshot() Status {
	st := Status{
		Policy:               r.cfg.Policy.Name(),
		Failovers:            r.m.failovers.Value(),
		RetryBudgetExhausted: r.m.budgetExhausted.Value(),
		Hedges:               r.m.hedges.Value(),
		HedgeWins:            r.m.hedgeWins.Value(),
		Ejections:            r.m.ejections.Value(),
		Readmissions:         r.m.readmissions.Value(),
	}
	for _, rep := range r.replicas {
		rep.mu.Lock()
		gw, state := rep.gw, rep.state
		rs := ReplicaStatus{
			ID: rep.id, Weight: rep.weight, State: state.String(),
			EWMAMillis:        rep.ewmaMs,
			ConsecutiveErrors: rep.consec,
			Served:            rep.served.Load(),
			Failed:            rep.failed.Load(),
		}
		rep.mu.Unlock()
		rs.QueueDepth = gw.QueueDepth()
		rs.Shedding = gw.MemoryPressure()
		rs.BrownoutLevel = gw.BrownoutLevel()
		if state == healthy || state == halfOpen {
			st.Healthy++
		}
		st.Replicas = append(st.Replicas, rs)
	}
	return st
}
