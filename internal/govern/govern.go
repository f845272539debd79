// Package govern is the live gateway's KV-memory governor. The paper's
// Fig 7 story (§III) is that KV-cache demand — batch × sequence length —
// caps serving throughput before compute does; internal/serve models that
// offline over internal/kvpool. This package brings the same finite-budget
// discipline to the live serving path: every gateway lane owns a paged
// kvpool.Pool sized from its platform's memory tiers, requests reserve
// blocks at admission (conservative full-context or vLLM-style optimistic
// prompt-only reservation — decided by the scheduler core, serve.Batch,
// which both the simulator and the lanes run), and memory exhaustion
// becomes a first-class, recoverable serving condition instead
// of silent oversubscription:
//
//   - watermark load shedding: above HighWatermark of the effective pool
//     the lane sheds new admissions with ErrShedding (HTTP 503 +
//     Retry-After) and recovers below LowWatermark (hysteresis);
//   - per-client token quotas: one tenant cannot hold more than
//     QuotaTokens of KV context in flight (ErrQuotaExceeded, HTTP 429);
//   - preemption accounting for the gateway's evict-youngest-and-recompute
//     path, exported per lane through the metrics registry;
//   - a standing mem-pressure hook (SetPressure) the fault injector drives
//     to shrink a lane's effective pool at runtime.
package govern

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/kvpool"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/prefixcache"
	"repro/internal/tensor"
)

// Sentinel errors the API layer maps to HTTP statuses.
var (
	// ErrShedding rejects a submission while its lane is above the high
	// watermark (HTTP 503 + Retry-After; /readyz reports not-ready).
	ErrShedding = errors.New("govern: KV memory pressure, shedding new work")
	// ErrQuotaExceeded rejects a submission that would push its client
	// over the per-client in-flight token quota (HTTP 429 + Retry-After).
	ErrQuotaExceeded = errors.New("govern: per-client KV token quota exceeded")
	// ErrNeverFits rejects a request whose full context exceeds the
	// lane's entire pool — it could never complete, only deadlock or
	// thrash (HTTP 422).
	ErrNeverFits = errors.New("govern: request context can never fit the lane's KV pool")
	// ErrKVExhausted fails a request that was preempted more times than
	// its requeue budget allows while the pool stayed exhausted
	// (HTTP 503 + Retry-After).
	ErrKVExhausted = errors.New("govern: KV pool exhausted, requeue budget spent")
)

// PoolSpec sizes one lane's KV pool.
type PoolSpec struct {
	// Model provides the KV-bytes-per-token geometry.
	Model model.Config
	// DType is the cache element type (typically tensor.BF16).
	DType tensor.DType
	// BlockSize is the paged-allocation granularity in tokens; 0 takes
	// DefaultBlockSize.
	BlockSize int
	// BudgetBytes is the lane's KV budget, typically the platform's
	// HBM/DDR capacity minus resident weights.
	BudgetBytes int64
}

// DefaultBlockSize is the paged-attention block granularity in tokens.
const DefaultBlockSize = 16

// SpecResolver maps a lane key to its pool sizing on first use.
type SpecResolver func(lane string) (PoolSpec, error)

// Config tunes the governor.
type Config struct {
	// Specs resolves per-lane pool sizing. Required.
	Specs SpecResolver
	// Conservative reserves a request's full context (in + out) at
	// admission, so decode can never exhaust the pool mid-flight. The
	// default (false) is vLLM-style optimistic admission: prompt-only
	// reservation, per-token growth, preemption-by-recompute of the
	// youngest sequence on exhaustion.
	Conservative bool
	// HighWatermark is the effective-pool utilization at or above which a
	// lane sheds new admissions. Default 0.95.
	HighWatermark float64
	// LowWatermark is the utilization at or below which a shedding lane
	// recovers. Default 0.75.
	LowWatermark float64
	// QuotaTokens bounds one client's in-flight KV context (in + out
	// tokens summed over its unfinished requests) across all lanes.
	// 0 disables quotas.
	QuotaTokens int
	// EnableCache gives every lane a prefix-cache radix tree over its
	// pool: finished prefills donate their prompt blocks, and later
	// requests sharing a token prefix adopt them copy-on-write instead
	// of recomputing prefill. Retained blocks are charged against the
	// same budget as live sequences and evicted LRU-first when the lane
	// crosses its high watermark, before any shedding.
	EnableCache bool
	// Registry receives the governor's instruments; a private registry is
	// created when nil.
	Registry *metrics.Registry
}

func (c Config) withDefaults() Config {
	if c.HighWatermark <= 0 || c.HighWatermark > 1 {
		c.HighWatermark = 0.95
	}
	if c.LowWatermark <= 0 || c.LowWatermark >= c.HighWatermark {
		c.LowWatermark = 0.75 * c.HighWatermark / 0.95
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
	return c
}

// laneState is one lane's pool with its governance bookkeeping. The
// fields below the tree are the lane's own facts, counted where they are
// decided and read under Governor.mu; the pool and the tree keep theirs.
type laneState struct {
	key  string
	pool *kvpool.Pool
	tree *prefixcache.Tree // nil unless Config.EnableCache

	pressure    float64
	shedding    bool
	preemptions int
	// Cache outcomes of successful reservations (ReserveWithPrefix).
	hits, misses, hitTokens uint64
}

// Governor places every lane of a gateway under a finite KV budget.
type Governor struct {
	cfg Config

	mu        sync.Mutex
	lanes     map[string]*laneState
	clients   map[string]int // client → in-flight KV tokens
	shedCount int            // lanes currently shedding

	shedTotal, quotaRejects *metrics.Counter
	series                  []*metrics.Func // the read-throughs, until Retire
	retired                 bool
}

// New returns a governor. It panics if cfg.Specs is nil — a governor
// without pool sizing cannot admit anything.
//
// Every series but the two admission-reject counters is a read-through
// (metrics.Registry.CounterFunc / GaugeFunc) of the counter that keeps
// its fact, so /metrics and Snapshot cannot disagree, and governors
// sharing a registry (cluster replicas) report sums.
func New(cfg Config) *Governor {
	if cfg.Specs == nil {
		panic("govern: Config.Specs is required")
	}
	cfg = cfg.withDefaults()
	r := cfg.Registry
	g := &Governor{
		cfg:     cfg,
		lanes:   map[string]*laneState{},
		clients: map[string]int{},

		shedTotal:    r.Counter("govern_shed_total", "admissions shed above the KV high watermark (503)"),
		quotaRejects: r.Counter("govern_quota_rejected_total", "admissions rejected by per-client token quotas (429)"),
	}
	g.series = []*metrics.Func{
		r.CounterFunc("govern_preemptions_total", "KV preemptions across lanes, whether requeued or failed", g.sum(func(ls *laneState) int64 { return int64(ls.preemptions) })),
		r.GaugeFunc("govern_shedding_lanes", "lanes currently above the KV high watermark", g.locked(func() int64 { return int64(g.shedCount) })),
		r.GaugeFunc("govern_lanes", "lanes under KV governance", g.locked(func() int64 { return int64(len(g.lanes)) })),
	}
	if cfg.EnableCache {
		g.series = append(g.series,
			r.CounterFunc("govern_cache_hits_total", "reservations that adopted a cached prefix", g.sum(func(ls *laneState) int64 { return int64(ls.hits) })),
			r.CounterFunc("govern_cache_misses_total", "cache-eligible reservations that adopted nothing", g.sum(func(ls *laneState) int64 { return int64(ls.misses) })),
			r.CounterFunc("govern_cache_hit_tokens_total", "prompt tokens adopted from the prefix cache", g.sum(func(ls *laneState) int64 { return int64(ls.hitTokens) })),
			r.CounterFunc("govern_cache_evictions_total", "prefix-cache blocks evicted", g.sum(func(ls *laneState) int64 { return int64(ls.tree.Stats().Evictions) })))
	}
	return g
}

// locked wraps a read of governor state for a read-through series.
func (g *Governor) locked(read func() int64) func() int64 {
	return func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return read()
	}
}

// sum is a read-through of one lane fact summed over the lanes.
func (g *Governor) sum(read func(*laneState) int64) func() int64 {
	return g.locked(func() int64 {
		var n int64
		for _, ls := range g.lanes {
			n += read(ls)
		}
		return n
	})
}

// Conservative reports the admission mode (see Config.Conservative).
func (g *Governor) Conservative() bool { return g != nil && g.cfg.Conservative }

// Mode names the admission mode for status output.
func (g *Governor) Mode() string {
	if g.Conservative() {
		return "conservative"
	}
	return "optimistic"
}

// sanitizeMetric maps a lane key onto a Prometheus-legal metric suffix:
// the flat registry has no label support, so per-lane series embed the
// lane in the metric name.
func sanitizeMetric(lane string) string {
	b := []byte(lane)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// laneLocked resolves (or creates) a lane's governed pool. Callers hold g.mu.
func (g *Governor) laneLocked(lane string) (*laneState, error) {
	if ls := g.lanes[lane]; ls != nil {
		return ls, nil
	}
	spec, err := g.cfg.Specs(lane)
	if err != nil {
		return nil, err
	}
	if spec.BlockSize <= 0 {
		spec.BlockSize = DefaultBlockSize
	}
	pool, err := kvpool.New(spec.Model, spec.DType, spec.BlockSize, spec.BudgetBytes)
	if err != nil {
		return nil, fmt.Errorf("govern: sizing lane %s: %w", lane, err)
	}
	ls := &laneState{key: lane, pool: pool}
	if g.cfg.EnableCache {
		ls.tree = prefixcache.New(pool)
	}
	g.lanes[lane] = ls
	g.registerLane(ls)
	g.evalLocked(ls)
	return ls, nil
}

// registerLane publishes a lane's series as read-throughs of the pool's
// and the tree's stats and of the lane's own fields, unless the governor
// is retired. The flat registry has no labels, so names embed the lane
// key. Callers hold g.mu.
func (g *Governor) registerLane(ls *laneState) {
	if g.retired {
		return
	}
	r, sfx, of := g.cfg.Registry, "_"+sanitizeMetric(ls.key), ", lane "+ls.key
	keep := func(f *metrics.Func) { g.series = append(g.series, f) }
	pool := func(read func(kvpool.Stats) int) func() int64 {
		return func() int64 { return int64(read(ls.pool.Stats())) }
	}
	keep(r.GaugeFunc("govern_kv_blocks_total"+sfx, "KV pool capacity in blocks"+of, pool(func(s kvpool.Stats) int { return s.TotalBlocks })))
	keep(r.GaugeFunc("govern_kv_blocks_free"+sfx, "free KV blocks"+of, pool(func(s kvpool.Stats) int { return s.FreeBlocks })))
	keep(r.GaugeFunc("govern_kv_blocks_effective"+sfx, "usable KV blocks under mem-pressure"+of, pool(func(s kvpool.Stats) int { return s.EffectiveBlocks })))
	keep(r.CounterFunc("govern_kv_allocs_total"+sfx, "KV block allocations"+of, pool(func(s kvpool.Stats) int { return s.Allocations })))
	keep(r.CounterFunc("govern_kv_preemptions_total"+sfx, "KV preemptions, whether requeued or failed"+of, g.locked(func() int64 { return int64(ls.preemptions) })))
	keep(r.GaugeFunc("govern_kv_shedding"+sfx, "1 while the lane sheds above the high watermark"+of, g.locked(func() int64 {
		if ls.shedding {
			return 1
		}
		return 0
	})))
	if ls.tree == nil {
		return
	}
	keep(r.CounterFunc("govern_cache_hits_total"+sfx, "reservations that adopted a cached prefix"+of, g.locked(func() int64 { return int64(ls.hits) })))
	keep(r.CounterFunc("govern_cache_misses_total"+sfx, "cache-eligible reservations that adopted nothing"+of, g.locked(func() int64 { return int64(ls.misses) })))
	keep(r.CounterFunc("govern_cache_hit_tokens_total"+sfx, "prompt tokens adopted from the prefix cache"+of, g.locked(func() int64 { return int64(ls.hitTokens) })))
	keep(r.CounterFunc("govern_cache_evictions_total"+sfx, "prefix-cache blocks evicted"+of, func() int64 { return int64(ls.tree.Stats().Evictions) }))
	keep(r.GaugeFunc("govern_cache_retained_blocks"+sfx, "pool blocks retained by the prefix cache"+of, func() int64 { return int64(ls.tree.Stats().RetainedBlocks) }))
}

// Retire takes the governor's read-through series off its registry, for
// a governor being replaced (a cluster replica's restart): its gauges stop
// counting and its counters keep their last values, so a registry shared
// with other governors goes on reporting sums over the live ones. Lanes
// the governor opens afterwards publish nothing. Safe on nil.
func (g *Governor) Retire() {
	if g == nil {
		return
	}
	g.mu.Lock()
	series := g.series
	g.series, g.retired = nil, true
	g.mu.Unlock()
	for _, f := range series { // a counter's last read takes g.mu
		f.Retire()
	}
}

// utilization is the share of a pool's effective (pressure-shrunk)
// capacity in use. A pool with no effective capacity is saturated by
// definition, so a lane under total pressure sheds until it lifts.
func utilization(st kvpool.Stats) float64 {
	if st.EffectiveBlocks <= 0 {
		return 1
	}
	return float64(st.TotalBlocks-st.FreeBlocks) / float64(st.EffectiveBlocks)
}

// evalLocked applies the watermark hysteresis after a pool change:
// utilization at or above HighWatermark starts shedding, at or below
// LowWatermark stops it. A caching lane first evicts cold cache down to
// the low mark, before it sheds live traffic (pinned paths are skipped,
// and adopted prefixes keep their blocks via pool refcounts, so eviction
// never breaks an in-flight request). Callers hold g.mu.
func (g *Governor) evalLocked(ls *laneState) {
	st := ls.pool.Stats()
	util := utilization(st)
	if ls.tree != nil && st.EffectiveBlocks > 0 && util >= g.cfg.HighWatermark {
		target := int(g.cfg.LowWatermark * float64(st.EffectiveBlocks))
		if excess := st.TotalBlocks - st.FreeBlocks - target; excess > 0 && ls.tree.EvictLRU(excess) > 0 {
			util = utilization(ls.pool.Stats())
		}
	}
	switch {
	case !ls.shedding && util >= g.cfg.HighWatermark:
		ls.shedding = true
		g.shedCount++
	case ls.shedding && util <= g.cfg.LowWatermark:
		ls.shedding = false
		g.shedCount--
	}
}

// Admit runs the admission checks for one request and, when they pass,
// charges the client's quota and returns the request's Lease. The checks,
// in order: the context must structurally fit the lane's pool
// (ErrNeverFits), the client must have quota headroom (ErrQuotaExceeded),
// and the lane must be below its shedding watermark (ErrShedding). A nil
// governor admits everything with a nil lease.
func (g *Governor) Admit(lane, client string, in, out int) (*Lease, error) {
	if g == nil {
		return nil, nil
	}
	if client == "" {
		client = "anonymous"
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ls, err := g.laneLocked(lane)
	if err != nil {
		return nil, err
	}
	need := in + out
	bs := ls.pool.BlockSize()
	if (need+bs-1)/bs > ls.pool.TotalBlocks() {
		return nil, fmt.Errorf("%w: lane %s context %d tokens, pool capacity %d",
			ErrNeverFits, lane, need, ls.pool.TotalBlocks()*bs)
	}
	if q := g.cfg.QuotaTokens; q > 0 && g.clients[client]+need > q {
		g.quotaRejects.Inc()
		return nil, fmt.Errorf("%w: client %q holds %d tokens in flight, quota %d",
			ErrQuotaExceeded, client, g.clients[client], q)
	}
	g.evalLocked(ls)
	if ls.shedding {
		g.shedTotal.Inc()
		return nil, fmt.Errorf("%w: lane %s", ErrShedding, lane)
	}
	g.clients[client] += need
	return &Lease{g: g, ls: ls, client: client, tokens: need}, nil
}

// SetPressure applies the fault injector's standing mem-pressure to a
// lane: frac of the pool's capacity is withheld from allocation. The
// lane's shedding state re-evaluates immediately in both directions, so
// deleting the fault rule starts recovery at the next scheduler pass.
func (g *Governor) SetPressure(lane string, frac float64) {
	if g == nil {
		return
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	ls := g.lanes[lane]
	if ls == nil || ls.pressure == frac {
		return
	}
	ls.pressure = frac
	total := ls.pool.TotalBlocks()
	ls.pool.SetEffectiveCapacity(total - int(frac*float64(total)))
	g.evalLocked(ls)
}

// Shedding reports whether any lane is above its high watermark (for
// /readyz). Nil-safe.
func (g *Governor) Shedding() bool {
	if g == nil {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.shedCount > 0
}

// LaneStatus is one lane's governance snapshot.
type LaneStatus struct {
	Lane            string  `json:"lane"`
	BlockSize       int     `json:"block_size"`
	TotalBlocks     int     `json:"total_blocks"`
	FreeBlocks      int     `json:"free_blocks"`
	EffectiveBlocks int     `json:"effective_blocks"`
	Utilization     float64 `json:"utilization"`
	Pressure        float64 `json:"pressure,omitempty"`
	Shedding        bool    `json:"shedding,omitempty"`
	Allocations     int     `json:"allocations"`
	Preemptions     int     `json:"preemptions"`
}

// Status is the governor's observable state (the kv section of GET
// /v1/debug/state).
type Status struct {
	Mode          string         `json:"mode"`
	HighWatermark float64        `json:"high_watermark"`
	LowWatermark  float64        `json:"low_watermark"`
	Shedding      bool           `json:"shedding"`
	QuotaTokens   int            `json:"quota_tokens_per_client,omitempty"`
	Clients       map[string]int `json:"clients_in_flight,omitempty"`
	Lanes         []LaneStatus   `json:"lanes"`
}

// Snapshot returns the current per-lane pool state, lanes sorted by key.
func (g *Governor) Snapshot() Status {
	if g == nil {
		return Status{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := Status{
		Mode:          g.Mode(),
		HighWatermark: g.cfg.HighWatermark,
		LowWatermark:  g.cfg.LowWatermark,
		Shedding:      g.shedCount > 0,
		QuotaTokens:   g.cfg.QuotaTokens,
		Lanes:         make([]LaneStatus, 0, len(g.lanes)),
	}
	if len(g.clients) > 0 {
		st.Clients = make(map[string]int, len(g.clients))
		for c, t := range g.clients {
			st.Clients[c] = t
		}
	}
	for _, ls := range g.lanes {
		ps := ls.pool.Stats()
		st.Lanes = append(st.Lanes, LaneStatus{
			Lane: ls.key, BlockSize: ls.pool.BlockSize(),
			TotalBlocks: ps.TotalBlocks, FreeBlocks: ps.FreeBlocks,
			EffectiveBlocks: ps.EffectiveBlocks, Utilization: utilization(ps),
			Pressure: ls.pressure, Shedding: ls.shedding,
			Allocations: ps.Allocations, Preemptions: ls.preemptions,
		})
	}
	sort.Slice(st.Lanes, func(a, b int) bool { return st.Lanes[a].Lane < st.Lanes[b].Lane })
	return st
}

// Utilization is the highest lane utilization (as in Snapshot), 0 for a
// nil governor or one without lanes — the cluster router's KV load.
func (g *Governor) Utilization() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var max float64
	for _, ls := range g.lanes {
		if u := utilization(ls.pool.Stats()); u > max {
			max = u
		}
	}
	return max
}

// CacheEnabled reports whether lanes carry prefix-cache trees. Nil-safe.
func (g *Governor) CacheEnabled() bool { return g != nil && g.cfg.EnableCache }

// CacheLaneStatus is one lane's prefix-cache snapshot (the cache
// section of GET /v1/debug/state): the tree's size and churn, and the
// lane's reservation outcomes.
type CacheLaneStatus struct {
	Lane           string  `json:"lane"`
	Nodes          int     `json:"nodes"`
	RetainedBlocks int     `json:"retained_blocks"`
	PinnedBlocks   int     `json:"pinned_blocks"`
	Hits           uint64  `json:"hits"`
	Misses         uint64  `json:"misses"`
	HitTokens      uint64  `json:"hit_tokens"`
	Insertions     uint64  `json:"insertions"`
	Evictions      uint64  `json:"evictions"`
	HitRate        float64 `json:"hit_rate"`
}

// CacheStatus aggregates prefix-cache state across lanes.
type CacheStatus struct {
	Enabled        bool              `json:"enabled"`
	Nodes          int               `json:"nodes"`
	RetainedBlocks int               `json:"retained_blocks"`
	Hits           uint64            `json:"hits"`
	Misses         uint64            `json:"misses"`
	HitTokens      uint64            `json:"hit_tokens"`
	Evictions      uint64            `json:"evictions"`
	HitRate        float64           `json:"hit_rate"`
	Lanes          []CacheLaneStatus `json:"lanes,omitempty"`
}

// CacheSnapshot returns the prefix-cache state, lanes sorted by key.
func (g *Governor) CacheSnapshot() CacheStatus {
	if g == nil {
		return CacheStatus{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := CacheStatus{Enabled: g.cfg.EnableCache}
	for _, ls := range g.lanes {
		if ls.tree == nil {
			continue
		}
		ts := ls.tree.Stats()
		st.Nodes += ts.Nodes
		st.RetainedBlocks += ts.RetainedBlocks
		st.Hits += ls.hits
		st.Misses += ls.misses
		st.HitTokens += ls.hitTokens
		st.Evictions += ts.Evictions
		st.Lanes = append(st.Lanes, CacheLaneStatus{
			Lane: ls.key, Nodes: ts.Nodes, RetainedBlocks: ts.RetainedBlocks,
			PinnedBlocks: ts.PinnedBlocks, Hits: ls.hits, Misses: ls.misses,
			HitTokens: ls.hitTokens, Insertions: ts.Insertions,
			Evictions: ts.Evictions, HitRate: hitRate(ls.hits, ls.misses),
		})
	}
	st.HitRate = hitRate(st.Hits, st.Misses)
	sort.Slice(st.Lanes, func(a, b int) bool { return st.Lanes[a].Lane < st.Lanes[b].Lane })
	return st
}

// hitRate is hits over cache-eligible reservations, 0 before any.
func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// FlushCache drops every unpinned cache entry across all lanes and
// returns how many pool blocks were released (POST /v1/admin/cache/flush).
func (g *Governor) FlushCache() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	released := 0
	for _, ls := range g.lanes {
		if ls.tree == nil {
			continue
		}
		released += ls.tree.Flush()
		g.evalLocked(ls)
	}
	return released
}

// Lease is one admitted request's claim on its lane's pool and its
// client's quota. It is the scheduler core's memory seam (serve.Memory):
// the core calls Reserve at lane admission, Grow per decoded token
// (optimistic mode) and ReleaseBlocks when the sequence leaves the batch;
// the gateway adds Preempt when that was an eviction and Release exactly
// once when the request reaches any terminal outcome. All methods
// are nil-safe and Release is idempotent, so every gateway exit path may
// call it unconditionally.
type Lease struct {
	g      *Governor
	ls     *laneState
	client string
	tokens int

	mu       sync.Mutex
	alloc    *kvpool.Sequence
	released bool
}

// note re-evaluates the lane's watermarks and stats after a pool change.
func (l *Lease) note() {
	l.g.mu.Lock()
	l.g.evalLocked(l.ls)
	l.g.mu.Unlock()
}

// Reserve allocates blocks for tokens of context (the prompt, or the full
// context under conservative admission). On exhaustion it returns
// kvpool.ErrOutOfBlocks with nothing held.
func (l *Lease) Reserve(tokens int) error {
	if l == nil {
		return nil
	}
	_, err := l.reserve(nil, tokens, 0, 0)
	l.note()
	return err
}

// ReserveWithPrefix is Reserve with a prefix-cache lookup: the request's
// prompt, described as hashable segments, is matched against the lane's
// radix tree, matched blocks are adopted, and only the remainder is
// freshly allocated. tokens is the reservation size (prompt, or full
// context under conservative admission); promptTokens is the prompt
// length the segments describe. It returns how many prompt tokens the
// cache covered (0 on a miss, on a match shorter than minPrefix, or when
// caching is off). At least one prompt token is always left to prefill —
// the last position's logits seed decode — so cached < promptTokens
// always holds. On exhaustion it evicts LRU cache entries once and
// retries; a reservation that still fails holds nothing.
//
// This is where a cache outcome is decided, so it is counted here: a
// successful reservation of a cache-eligible request (caching on, a
// non-empty prefix) is a hit when it adopted a prefix and a miss when
// it did not.
func (l *Lease) ReserveWithPrefix(segs []prefixcache.Segment, tokens, promptTokens, minPrefix int) (int, error) {
	if l == nil {
		return 0, nil
	}
	if l.ls.tree == nil || len(segs) == 0 {
		return 0, l.Reserve(tokens)
	}
	if promptTokens > tokens {
		promptTokens = tokens
	}
	keys := prefixcache.BlockKeys(segs, l.ls.pool.BlockSize())
	cached, err := l.reserve(keys, tokens, promptTokens, minPrefix)
	l.g.mu.Lock()
	if err == nil && cached > 0 {
		l.ls.hits++
		l.ls.hitTokens += uint64(cached)
	} else if err == nil {
		l.ls.misses++
	}
	l.g.evalLocked(l.ls)
	l.g.mu.Unlock()
	return cached, err
}

// reserve allocates the lease's sequence: tokens of context, of which
// the longest cached prefix of keys (whole blocks, below promptTokens and
// at least minPrefix) is adopted rather than allocated. With keys, an
// exhausted pool first reclaims cold cache and retries once. It returns
// the adopted token count; a failed reservation holds nothing.
func (l *Lease) reserve(keys []uint64, tokens, promptTokens, minPrefix int) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released {
		return 0, fmt.Errorf("govern: reserve on a released lease")
	}
	if l.alloc != nil {
		return 0, fmt.Errorf("govern: lease already holds a reservation")
	}
	pool, tree, bs := l.ls.pool, l.ls.tree, l.ls.pool.BlockSize()
	cached := 0
	var s *kvpool.Sequence
	if len(keys) > 0 {
		m := tree.Lookup(keys)
		defer m.Release() // the path stays pinned through the allocation
		if m != nil {
			nblocks := min(len(m.Blocks), (promptTokens-1)/bs)
			if nblocks > 0 && nblocks*bs >= minPrefix {
				if adopted, err := pool.AdoptPrefix(m.Blocks[:nblocks], nblocks*bs); err == nil {
					s, cached = adopted, nblocks*bs
				}
			}
		}
	}
	if s == nil {
		s = pool.NewSequence()
	}
	err := s.Append(tokens - cached)
	if err != nil && len(keys) > 0 && tree.EvictLRU((tokens+bs-1)/bs) > 0 {
		err = s.Append(tokens - cached) // reclaimed cold cache: retry once
	}
	if err != nil {
		if cached > 0 {
			_ = s.Free() // drop the adopted references; hold nothing
		}
		return 0, err
	}
	l.alloc = s
	return cached, nil
}

// DonatePrefix offers the reservation's prompt blocks to the lane's
// prefix cache under the same segment hashing ReserveWithPrefix matches
// on. Only whole blocks covered by the shareable segment prefix are
// indexed; the tree takes its own pool references, so the donor's later
// Free leaves cached blocks alive. Returns how many new blocks the tree
// retained (0 when caching is off or everything was already cached).
func (l *Lease) DonatePrefix(segs []prefixcache.Segment) int {
	if l == nil || l.ls.tree == nil || len(segs) == 0 {
		return 0
	}
	bs := l.ls.pool.BlockSize()
	keys := prefixcache.BlockKeys(segs, bs)
	if len(keys) == 0 {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.released || l.alloc == nil {
		return 0
	}
	blocks := l.alloc.Blocks()
	n := len(keys)
	if n > len(blocks) {
		n = len(blocks)
	}
	if n == 0 {
		return 0
	}
	return l.ls.tree.Insert(keys[:n], blocks[:n])
}

// Grow extends the reservation by n tokens (one per decode step under
// optimistic admission). A failed grow holds what it held before.
func (l *Lease) Grow(n int) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	if l.alloc == nil {
		l.mu.Unlock()
		return fmt.Errorf("govern: grow without a reservation")
	}
	err := l.alloc.Append(n)
	l.mu.Unlock()
	l.note()
	return err
}

// Held reports whether the lease currently holds blocks.
func (l *Lease) Held() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.alloc != nil
}

// releaseBlocks frees the reservation, keeping the lease (and its quota
// charge) alive for readmission. Releasing nothing changes nothing in the
// pool and skips the re-evaluation: the scheduler core releases a
// sequence's blocks the moment it leaves the batch, so the gateway's own
// Preempt / Release that follows usually finds them gone.
func (l *Lease) releaseBlocks() {
	l.mu.Lock()
	held := l.alloc != nil
	if held {
		_ = l.alloc.Free()
		l.alloc = nil
	}
	l.mu.Unlock()
	if held {
		l.note()
	}
}

// ReleaseBlocks frees the reservation without a terminal outcome — the
// watchdog-requeue path, where the request restarts from prefill later.
func (l *Lease) ReleaseBlocks() {
	if l == nil {
		return
	}
	l.releaseBlocks()
}

// Preempt frees the reservation and counts a preemption — the
// KV-exhaustion eviction path (recompute on readmission).
func (l *Lease) Preempt() {
	if l == nil {
		return
	}
	l.releaseBlocks()
	l.g.mu.Lock()
	l.ls.preemptions++
	l.g.mu.Unlock()
}

// Release frees the reservation and refunds the client's quota. It is
// idempotent; every terminal path of the gateway calls it.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return
	}
	l.released = true
	held := l.alloc != nil
	if held {
		_ = l.alloc.Free()
		l.alloc = nil
	}
	l.mu.Unlock()

	l.g.mu.Lock()
	if rem := l.g.clients[l.client] - l.tokens; rem > 0 {
		l.g.clients[l.client] = rem
	} else {
		delete(l.g.clients, l.client)
	}
	if held {
		l.g.evalLocked(l.ls)
	}
	l.g.mu.Unlock()
}
