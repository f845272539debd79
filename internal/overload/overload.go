// Package overload is the gateway's overload-control layer: SLO-class
// admission priorities, an AIMD adaptive concurrency limiter, and a
// graceful-degradation (brownout) ladder.
//
// The paper's context makes the need concrete: CPU inference is hard
// throughput-limited (prefill compute-bound, decode memory-bandwidth-
// bound), so past the saturation knee queueing delay balloons and blunt
// backpressure — queue-full 429s, KV-watermark 503s — collapses goodput
// for all traffic equally. This package keeps SLO-met throughput near
// its peak when offered load exceeds capacity by (a) prioritizing
// latency-sensitive classes at admission, (b) shrinking the front-door
// concurrency limit when observed TTFT busts per-class SLO targets,
// before requests time out deep in a lane, and (c) stepping through
// reversible service degradations under sustained pressure instead of
// failing over a cliff.
//
// The Controller is the single object the gateway wires in: Acquire/
// Release gate admission, Observe feeds the limiter's latency signal,
// and Evaluate advances the brownout ladder from a pressure sample.
// All methods are safe for concurrent use.
package overload

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// Config tunes the controller. The zero value is usable: withDefaults
// fills every field the caller leaves unset.
type Config struct {
	// InteractiveTTFT, StandardTTFT and BatchTTFT are the per-class
	// wall-clock TTFT SLO targets the limiter steers toward (at the
	// deployment's timescale). Defaults 500ms / 2s / 10s.
	InteractiveTTFT time.Duration
	StandardTTFT    time.Duration
	BatchTTFT       time.Duration

	// MinLimit and MaxLimit clamp the adaptive concurrency limit;
	// InitialLimit is the starting point. Defaults 4 / 256 / 32.
	MinLimit, MaxLimit, InitialLimit int
	// DecreaseFactor is the multiplicative backoff applied to the limit
	// on an SLO-busting sample (default 0.9); DecreaseCooldown bounds
	// how often a burst of late samples may shrink it (default 100ms).
	DecreaseFactor   float64
	DecreaseCooldown time.Duration

	// UpThreshold and DownThreshold bound the brownout hysteresis band:
	// pressure at or above UpThreshold sustained for StepUp climbs one
	// rung; pressure at or below DownThreshold sustained for StepDown
	// descends one rung; in between the ladder holds. Defaults 0.9 /
	// 0.5 and 250ms / 1s.
	UpThreshold, DownThreshold float64
	StepUp, StepDown           time.Duration

	// BatchTokenCap is the max_tokens clamp applied to batch-class
	// requests at LevelCapBatch and above (finish_reason "brownout").
	// Default 16.
	BatchTokenCap int

	// Registry receives the controller's instruments; a private registry
	// is created when nil.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.InteractiveTTFT <= 0 {
		c.InteractiveTTFT = 500 * time.Millisecond
	}
	if c.StandardTTFT <= 0 {
		c.StandardTTFT = 2 * time.Second
	}
	if c.BatchTTFT <= 0 {
		c.BatchTTFT = 10 * time.Second
	}
	if c.MinLimit <= 0 {
		c.MinLimit = 4
	}
	if c.MaxLimit <= 0 {
		c.MaxLimit = 256
	}
	if c.MaxLimit < c.MinLimit {
		c.MaxLimit = c.MinLimit
	}
	if c.InitialLimit <= 0 {
		c.InitialLimit = 32
	}
	if c.InitialLimit < c.MinLimit {
		c.InitialLimit = c.MinLimit
	}
	if c.InitialLimit > c.MaxLimit {
		c.InitialLimit = c.MaxLimit
	}
	if c.DecreaseFactor <= 0 || c.DecreaseFactor >= 1 {
		c.DecreaseFactor = 0.9
	}
	if c.DecreaseCooldown <= 0 {
		c.DecreaseCooldown = 100 * time.Millisecond
	}
	if c.UpThreshold <= 0 || c.UpThreshold > 1 {
		c.UpThreshold = 0.9
	}
	if c.DownThreshold <= 0 || c.DownThreshold >= c.UpThreshold {
		c.DownThreshold = 0.5
	}
	if c.StepUp <= 0 {
		c.StepUp = 250 * time.Millisecond
	}
	if c.StepDown <= 0 {
		c.StepDown = time.Second
	}
	if c.BatchTokenCap <= 0 {
		c.BatchTokenCap = 16
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// Target returns the TTFT SLO for a class.
func (c Config) Target(cls Class) time.Duration {
	switch cls {
	case Interactive:
		return c.InteractiveTTFT
	case Batch:
		return c.BatchTTFT
	default:
		return c.StandardTTFT
	}
}

// classStats is per-class bookkeeping, guarded by the controller mutex.
type classStats struct {
	admitted, limited, shed uint64
	ttftEWMA                float64 // seconds; 0 until the first sample
}

// Controller combines the limiter and the brownout ladder.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	limit    float64
	inflight int
	lastDec  time.Time
	classes  [numClasses]classStats

	level        int
	upSince      time.Time
	downSince    time.Time
	lastPressure float64
	steps        uint64 // total ladder transitions, up or down

	m instruments
}

// New returns a controller with the limit at cfg.InitialLimit and the
// ladder at LevelNominal.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:   cfg,
		limit: float64(cfg.InitialLimit),
		m:     newInstruments(cfg.Registry),
	}
}

// Config returns the controller's effective (defaulted) configuration.
func (c *Controller) Config() Config { return c.cfg }

// Acquire requests one admission slot for a class. Lower-priority
// classes see the front door close first: a class may only admit while
// the live concurrency is inside its share of the adaptive limit
// (interactive 100%, standard 85%, batch 60%), so when the limiter
// shrinks under SLO pressure, batch is rejected while interactive still
// fits. The caller must Release the slot at the request's terminal
// outcome when Acquire returns true.
func (c *Controller) Acquire(cls Class) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	allowed := c.limit * cls.share()
	if allowed < 1 {
		allowed = 1
	}
	if float64(c.inflight+1) > allowed {
		c.classes[cls].limited++
		c.m.limited.Inc()
		return false
	}
	c.inflight++
	c.classes[cls].admitted++
	c.m.inflight.Set(int64(c.inflight))
	return true
}

// Release returns a slot taken by a successful Acquire.
func (c *Controller) Release(cls Class) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if c.inflight > 0 {
		c.inflight--
	}
	c.m.inflight.Set(int64(c.inflight))
	c.mu.Unlock()
}

// Observe feeds one completed request's wall-clock TTFT into the AIMD
// loop: a sample inside the class SLO target nudges the limit up
// additively (gradient-style, ~1/limit per good sample); a late sample
// shrinks it multiplicatively, at most once per DecreaseCooldown so one
// burst of queued stale samples cannot collapse the limit to the floor.
func (c *Controller) Observe(cls Class, ttft time.Duration, now time.Time) {
	if c == nil {
		return
	}
	target := c.cfg.Target(cls)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := &c.classes[cls]
	s := ttft.Seconds()
	if st.ttftEWMA == 0 {
		st.ttftEWMA = s
	} else {
		st.ttftEWMA = 0.8*st.ttftEWMA + 0.2*s
	}
	if ttft > target {
		if now.Sub(c.lastDec) >= c.cfg.DecreaseCooldown {
			c.limit *= c.cfg.DecreaseFactor
			c.lastDec = now
		}
	} else {
		c.limit += 1.0 / c.limit
	}
	if c.limit < float64(c.cfg.MinLimit) {
		c.limit = float64(c.cfg.MinLimit)
	}
	if c.limit > float64(c.cfg.MaxLimit) {
		c.limit = float64(c.cfg.MaxLimit)
	}
	c.m.limit.Set(int64(c.limit))
}

// ExpectedTTFT is the smoothed wall-clock TTFT recently observed for a
// class (0 before any sample) — the deadline-eviction estimate for
// whether a queued request can still meet its deadline.
func (c *Controller) ExpectedTTFT(cls Class) time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.classes[cls].ttftEWMA * float64(time.Second))
}

// NoteShed counts one class-ordered shed (a queued victim evicted for a
// higher class, or a batch request refused at LevelShedBatch).
func (c *Controller) NoteShed(cls Class) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.classes[cls].shed++
	c.mu.Unlock()
	c.m.shed.Inc()
}

// Snapshot reports the controller's observable state for GET
// /v1/debug/state. It does not advance the ladder; callers that can
// compute a live pressure sample should Evaluate first.
func (c *Controller) Snapshot() Status {
	if c == nil {
		return Status{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:       true,
		BrownoutLevel: c.level,
		Actions:       Actions(c.level),
		Pressure:      c.lastPressure,
		Limit:         c.limit,
		Inflight:      c.inflight,
		BrownoutSteps: c.steps,
	}
	for cls := Interactive; cls < numClasses; cls++ {
		cs := c.classes[cls]
		st.Classes = append(st.Classes, ClassStatus{
			Class:        cls.String(),
			Share:        cls.share(),
			TTFTSLOMs:    float64(c.cfg.Target(cls)) / float64(time.Millisecond),
			TTFTEWMAMs:   cs.ttftEWMA * 1e3,
			Admitted:     cs.admitted,
			Limited:      cs.limited,
			Shed:         cs.shed,
			MaxTokensCap: c.capFor(cls),
		})
	}
	return st
}

// capFor is the active max_tokens clamp for a class (0 = uncapped).
// Callers hold c.mu.
func (c *Controller) capFor(cls Class) int {
	if cls == Batch && c.level >= LevelCapBatch {
		return c.cfg.BatchTokenCap
	}
	return 0
}

// Status is the observable controller state (the overload section of
// GET /v1/debug/state).
type Status struct {
	Enabled       bool          `json:"enabled"`
	BrownoutLevel int           `json:"brownout_level"`
	Actions       []string      `json:"actions,omitempty"`
	Pressure      float64       `json:"pressure"`
	Limit         float64       `json:"concurrency_limit"`
	Inflight      int           `json:"inflight"`
	BrownoutSteps uint64        `json:"brownout_steps_total"`
	Classes       []ClassStatus `json:"classes,omitempty"`
}

// ClassStatus is one SLO class's view in Status.
type ClassStatus struct {
	Class        string  `json:"class"`
	Share        float64 `json:"share"`
	TTFTSLOMs    float64 `json:"ttft_slo_ms"`
	TTFTEWMAMs   float64 `json:"ttft_ewma_ms"`
	Admitted     uint64  `json:"admitted"`
	Limited      uint64  `json:"limited"`
	Shed         uint64  `json:"shed"`
	MaxTokensCap int     `json:"max_tokens_cap,omitempty"`
}

// instruments is the controller's metric set.
type instruments struct {
	level, limit, inflight *metrics.Gauge
	limited, shed          *metrics.Counter
	stepsUp, stepsDown     *metrics.Counter
}

func newInstruments(r *metrics.Registry) instruments {
	return instruments{
		level:     r.Gauge("overload_brownout_level", "current brownout ladder level (0 = nominal)"),
		limit:     r.Gauge("overload_concurrency_limit", "adaptive admission concurrency limit (AIMD)"),
		inflight:  r.Gauge("overload_inflight", "requests holding an overload admission slot"),
		limited:   r.Counter("overload_limited_total", "admissions rejected by the adaptive concurrency limiter"),
		shed:      r.Counter("overload_shed_total", "requests shed class-ordered under overload"),
		stepsUp:   r.Counter("overload_brownout_steps_up_total", "brownout ladder steps up (degrading)"),
		stepsDown: r.Counter("overload_brownout_steps_down_total", "brownout ladder steps down (recovering)"),
	}
}
