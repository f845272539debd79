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

// laneState is one lane's pool with its governance bookkeeping.
type laneState struct {
	key         string
	pool        *kvpool.Pool
	tree        *prefixcache.Tree // nil unless Config.EnableCache
	pressure    float64
	shedding    bool
	preemptions int

	// Per-lane instruments with delta cursors for the pool's monotonic
	// counters (the registry has no labels, so names embed the lane key).
	total, free, effective, shedGauge    *metrics.Gauge
	allocsC, cowC, preemptsC             *metrics.Counter
	lastAllocs, lastCoW                  int
	cacheHitsC, cacheMissC               *metrics.Counter
	cacheTokC, cacheEvictC               *metrics.Counter
	cacheRetainedG                       *metrics.Gauge
	lastHits, lastMiss, lastTok, lastEvt uint64
}

// Governor places every lane of a gateway under a finite KV budget.
type Governor struct {
	cfg Config

	mu        sync.Mutex
	lanes     map[string]*laneState
	clients   map[string]int // client → in-flight KV tokens
	shedCount int            // lanes currently shedding

	shedTotal, quotaRejects, preemptTotal *metrics.Counter
	sheddingLanes, governedLanes          *metrics.Gauge
}

// New returns a governor. It panics if cfg.Specs is nil — a governor
// without pool sizing cannot admit anything.
func New(cfg Config) *Governor {
	if cfg.Specs == nil {
		panic("govern: Config.Specs is required")
	}
	cfg = cfg.withDefaults()
	r := cfg.Registry
	return &Governor{
		cfg:     cfg,
		lanes:   map[string]*laneState{},
		clients: map[string]int{},

		shedTotal:     r.Counter("govern_shed_total", "admissions shed above the KV high watermark (503)"),
		quotaRejects:  r.Counter("govern_quota_rejected_total", "admissions rejected by per-client token quotas (429)"),
		preemptTotal:  r.Counter("govern_preemptions_total", "sequences preempted back to the queue on KV exhaustion"),
		sheddingLanes: r.Gauge("govern_shedding_lanes", "lanes currently above the KV high watermark"),
		governedLanes: r.Gauge("govern_lanes", "lanes under KV governance"),
	}
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
	r := g.cfg.Registry
	sfx := sanitizeMetric(lane)
	ls := &laneState{
		key:       lane,
		pool:      pool,
		total:     r.Gauge("govern_kv_blocks_total_"+sfx, "KV pool capacity in blocks, lane "+lane),
		free:      r.Gauge("govern_kv_blocks_free_"+sfx, "free KV blocks, lane "+lane),
		effective: r.Gauge("govern_kv_blocks_effective_"+sfx, "usable KV blocks under mem-pressure, lane "+lane),
		shedGauge: r.Gauge("govern_kv_shedding_"+sfx, "1 while the lane sheds above the high watermark, lane "+lane),
		allocsC:   r.Counter("govern_kv_allocs_total_"+sfx, "KV block allocations, lane "+lane),
		cowC:      r.Counter("govern_kv_cow_copies_total_"+sfx, "copy-on-write block copies, lane "+lane),
		preemptsC: r.Counter("govern_kv_preemptions_total_"+sfx, "sequences preempted on KV exhaustion, lane "+lane),
	}
	if g.cfg.EnableCache {
		ls.tree = prefixcache.New(pool)
		ls.cacheHitsC = r.Counter("govern_cache_hits_total_"+sfx, "prefix-cache lookup hits, lane "+lane)
		ls.cacheMissC = r.Counter("govern_cache_misses_total_"+sfx, "prefix-cache lookup misses, lane "+lane)
		ls.cacheTokC = r.Counter("govern_cache_hit_tokens_total_"+sfx, "prompt tokens served from the prefix cache, lane "+lane)
		ls.cacheEvictC = r.Counter("govern_cache_evictions_total_"+sfx, "prefix-cache blocks evicted, lane "+lane)
		ls.cacheRetainedG = r.Gauge("govern_cache_retained_blocks_"+sfx, "pool blocks retained by the prefix cache, lane "+lane)
	}
	g.lanes[lane] = ls
	g.governedLanes.Inc()
	g.evalLocked(ls)
	return ls, nil
}

// evalLocked refreshes a lane's exported pool statistics and applies the
// watermark hysteresis: utilization of the *effective* (pressure-shrunk)
// capacity at or above HighWatermark starts shedding; at or below
// LowWatermark it stops. Callers hold g.mu.
func (g *Governor) evalLocked(ls *laneState) {
	st := ls.pool.Stats()
	ls.total.Set(int64(st.TotalBlocks))
	ls.free.Set(int64(st.FreeBlocks))
	ls.effective.Set(int64(st.EffectiveBlocks))
	if d := st.Allocations - ls.lastAllocs; d > 0 {
		ls.allocsC.Add(uint64(d))
		ls.lastAllocs = st.Allocations
	}
	if d := st.CoWCopies - ls.lastCoW; d > 0 {
		ls.cowC.Add(uint64(d))
		ls.lastCoW = st.CoWCopies
	}
	if ls.tree != nil {
		// Watermark pressure evicts cold cache before it sheds live
		// traffic: above the high mark, drop LRU retained blocks until
		// usage would fall to the low mark (pinned paths are skipped,
		// and adopted forks keep their blocks via pool refcounts, so
		// eviction never breaks an in-flight request).
		used := st.TotalBlocks - st.FreeBlocks
		if st.EffectiveBlocks > 0 &&
			float64(used)/float64(st.EffectiveBlocks) >= g.cfg.HighWatermark {
			target := int(g.cfg.LowWatermark * float64(st.EffectiveBlocks))
			if excess := used - target; excess > 0 {
				if ls.tree.EvictLRU(excess) > 0 {
					st = ls.pool.Stats()
				}
			}
		}
		cs := ls.tree.Stats()
		if d := cs.Hits - ls.lastHits; d > 0 {
			ls.cacheHitsC.Add(d)
			ls.lastHits = cs.Hits
		}
		if d := cs.Misses - ls.lastMiss; d > 0 {
			ls.cacheMissC.Add(d)
			ls.lastMiss = cs.Misses
		}
		if d := cs.HitTokens - ls.lastTok; d > 0 {
			ls.cacheTokC.Add(d)
			ls.lastTok = cs.HitTokens
		}
		if d := cs.Evictions - ls.lastEvt; d > 0 {
			ls.cacheEvictC.Add(d)
			ls.lastEvt = cs.Evictions
		}
		ls.cacheRetainedG.Set(int64(cs.RetainedBlocks))
	}

	used := st.TotalBlocks - st.FreeBlocks
	util := 1.0 // a zero effective pool is saturated by definition
	if st.EffectiveBlocks > 0 {
		util = float64(used) / float64(st.EffectiveBlocks)
	} else if used == 0 && st.TotalBlocks > 0 {
		// Nothing held and nothing usable: stay shedding until pressure
		// lifts, except a lane that never admitted anything.
		util = 1.0
	}
	switch {
	case !ls.shedding && util >= g.cfg.HighWatermark:
		ls.shedding = true
		ls.shedGauge.Set(1)
		g.shedCount++
		g.sheddingLanes.Inc()
	case ls.shedding && util <= g.cfg.LowWatermark:
		ls.shedding = false
		ls.shedGauge.Set(0)
		g.shedCount--
		g.sheddingLanes.Dec()
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
	CoWCopies       int     `json:"cow_copies"`
	Preemptions     int     `json:"preemptions"`
}

// Status is the governor's observable state (GET /v1/kv).
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
		used := ps.TotalBlocks - ps.FreeBlocks
		var util float64
		if ps.EffectiveBlocks > 0 {
			util = float64(used) / float64(ps.EffectiveBlocks)
		} else if used > 0 {
			util = 1
		}
		lst := LaneStatus{
			Lane: ls.key, BlockSize: ls.pool.BlockSize(),
			TotalBlocks: ps.TotalBlocks, FreeBlocks: ps.FreeBlocks,
			EffectiveBlocks: ps.EffectiveBlocks, Utilization: util,
			Pressure: ls.pressure, Shedding: ls.shedding,
			Allocations: ps.Allocations, CoWCopies: ps.CoWCopies,
			Preemptions: ls.preemptions,
		}
		st.Lanes = append(st.Lanes, lst)
	}
	sort.Slice(st.Lanes, func(a, b int) bool { return st.Lanes[a].Lane < st.Lanes[b].Lane })
	return st
}

// CacheEnabled reports whether lanes carry prefix-cache trees. Nil-safe.
func (g *Governor) CacheEnabled() bool { return g != nil && g.cfg.EnableCache }

// CacheLaneStatus is one lane's prefix-cache snapshot (GET /v1/cache).
type CacheLaneStatus struct {
	Lane string `json:"lane"`
	prefixcache.Stats
	HitRate float64 `json:"hit_rate"`
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
		cs := ls.tree.Stats()
		st.Nodes += cs.Nodes
		st.RetainedBlocks += cs.RetainedBlocks
		st.Hits += cs.Hits
		st.Misses += cs.Misses
		st.HitTokens += cs.HitTokens
		st.Evictions += cs.Evictions
		st.Lanes = append(st.Lanes, CacheLaneStatus{
			Lane: ls.key, Stats: cs, HitRate: cs.HitRate(),
		})
	}
	if n := st.Hits + st.Misses; n > 0 {
		st.HitRate = float64(st.Hits) / float64(n)
	}
	sort.Slice(st.Lanes, func(a, b int) bool { return st.Lanes[a].Lane < st.Lanes[b].Lane })
	return st
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
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return fmt.Errorf("govern: reserve on a released lease")
	}
	if l.alloc != nil {
		l.mu.Unlock()
		return fmt.Errorf("govern: lease already holds a reservation")
	}
	s := l.ls.pool.NewSequence()
	err := s.Append(tokens)
	if err == nil {
		l.alloc = s
	}
	l.mu.Unlock()
	l.note()
	return err
}

// ReserveWithPrefix is Reserve with a prefix-cache lookup: the request's
// prompt, described as hashable segments, is matched against the lane's
// radix tree, matched blocks are adopted copy-on-write, and only the
// remainder is freshly allocated. tokens is the reservation size (prompt,
// or full context under conservative admission); promptTokens is the
// prompt length the segments describe. It returns how many prompt tokens
// the cache covered (0 on a miss, on a match shorter than minPrefix, or
// when caching is off). At least one prompt token is always left to
// prefill — the last position's logits seed decode — so cached <
// promptTokens always holds. On exhaustion it evicts LRU cache entries
// once and retries; a reservation that still fails holds nothing.
func (l *Lease) ReserveWithPrefix(segs []prefixcache.Segment, tokens, promptTokens, minPrefix int) (int, error) {
	if l == nil {
		return 0, nil
	}
	tree := l.ls.tree
	if tree == nil || len(segs) == 0 {
		return 0, l.Reserve(tokens)
	}
	if promptTokens > tokens {
		promptTokens = tokens
	}
	bs := l.ls.pool.BlockSize()
	keys := prefixcache.BlockKeys(segs, bs)
	if len(keys) == 0 {
		return 0, l.Reserve(tokens)
	}
	l.mu.Lock()
	if l.released {
		l.mu.Unlock()
		return 0, fmt.Errorf("govern: reserve on a released lease")
	}
	if l.alloc != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("govern: lease already holds a reservation")
	}
	m := tree.Lookup(keys)
	cached := 0
	var s *kvpool.Sequence
	if m != nil {
		nblocks := len(m.Blocks)
		if limit := (promptTokens - 1) / bs; nblocks > limit {
			nblocks = limit
		}
		if nblocks > 0 && nblocks*bs >= minPrefix {
			adopted, err := l.ls.pool.AdoptPrefix(m.Blocks[:nblocks], nblocks*bs)
			if err == nil {
				s = adopted
				cached = nblocks * bs
			}
		}
	}
	if s == nil {
		s = l.ls.pool.NewSequence()
	}
	err := s.Append(tokens - cached)
	if err != nil {
		// Exhaustion with cold cache retained: reclaim and retry once.
		if tree.EvictLRU((tokens+bs-1)/bs) > 0 {
			err = s.Append(tokens - cached)
		}
	}
	if err != nil && cached > 0 {
		_ = s.Free() // drop the adopted references; hold nothing
		cached = 0
	} else if err == nil {
		l.alloc = s
	}
	m.Release()
	l.mu.Unlock()
	l.note()
	return cached, err
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
	l.ls.preemptsC.Inc()
	l.g.preemptTotal.Inc()
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
