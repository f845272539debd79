package govern

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/kvpool"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/prefixcache"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// specFor returns a resolver sizing every lane to exactly blocks blocks of
// blockSize tokens over the tiny OPT shape.
func specFor(blocks, blockSize int) SpecResolver {
	m := model.Tiny(model.OPT)
	per := m.KVBytesPerTokenPerLayer(tensor.BF16) * int64(m.Layers) * int64(blockSize)
	return func(lane string) (PoolSpec, error) {
		return PoolSpec{Model: m, DType: tensor.BF16, BlockSize: blockSize,
			BudgetBytes: per * int64(blocks)}, nil
	}
}

func TestAdmitNeverFits(t *testing.T) {
	g := New(Config{Specs: specFor(4, 16), Registry: metrics.NewRegistry()})
	// 4 blocks × 16 tokens = 64-token capacity; a 100-token context can
	// never complete.
	if _, err := g.Admit("l", "c", 90, 10); !errors.Is(err, ErrNeverFits) {
		t.Fatalf("Admit(100 tokens into 64-token pool) = %v, want ErrNeverFits", err)
	}
	// Exactly at capacity is admissible.
	lease, err := g.Admit("l", "c", 54, 10)
	if err != nil {
		t.Fatalf("Admit(64 tokens) failed: %v", err)
	}
	lease.Release()
}

func TestAdmitQuota(t *testing.T) {
	g := New(Config{Specs: specFor(64, 16), QuotaTokens: 100,
		Registry: metrics.NewRegistry()})
	first, err := g.Admit("l", "alice", 60, 20) // 80 in flight
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if _, err := g.Admit("l", "alice", 30, 10); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota admit = %v, want ErrQuotaExceeded", err)
	}
	// Quotas are per client: another tenant is unaffected.
	other, err := g.Admit("l", "bob", 30, 10)
	if err != nil {
		t.Fatalf("other client admit: %v", err)
	}
	other.Release()
	// Releasing refunds the charge, reopening headroom.
	first.Release()
	lease, err := g.Admit("l", "alice", 30, 10)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	lease.Release()
	first.Release() // idempotent: must not double-refund
	if _, err := g.Admit("l", "alice", 60, 40); err != nil {
		t.Fatalf("quota accounting drifted after double release: %v", err)
	}
}

func TestWatermarkHysteresis(t *testing.T) {
	g := New(Config{Specs: specFor(10, 16), HighWatermark: 0.8, LowWatermark: 0.4,
		Registry: metrics.NewRegistry()})
	hold, err := g.Admit("l", "c", 100, 28) // fits: 128 tokens = 8 blocks
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := hold.Reserve(128); err != nil { // 8 of 10 blocks: util 0.8
		t.Fatalf("reserve: %v", err)
	}
	if !g.Shedding() {
		t.Fatal("not shedding at util 0.8 with high watermark 0.8")
	}
	if _, err := g.Admit("l", "c2", 16, 16); !errors.Is(err, ErrShedding) {
		t.Fatalf("admit while shedding = %v, want ErrShedding", err)
	}
	// Hysteresis: recovery needs util <= low, and releasing everything
	// gets there.
	hold.Release()
	if g.Shedding() {
		t.Fatal("still shedding after pool drained below low watermark")
	}
	lease, err := g.Admit("l", "c2", 16, 16)
	if err != nil {
		t.Fatalf("admit after recovery: %v", err)
	}
	lease.Release()
}

func TestSetPressureShrinksAndRecovers(t *testing.T) {
	g := New(Config{Specs: specFor(10, 16), HighWatermark: 0.8, LowWatermark: 0.5,
		Registry: metrics.NewRegistry()})
	hold, err := g.Admit("l", "c", 48, 16) // 64 tokens = 4 blocks
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := hold.Reserve(64); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	if g.Shedding() {
		t.Fatal("shedding at util 0.4")
	}
	// 80% pressure withholds 8 of 10 blocks: 4 used of 2 effective.
	g.SetPressure("l", 0.8)
	if !g.Shedding() {
		t.Fatal("not shedding with effective capacity below current usage")
	}
	st := g.Snapshot()
	if len(st.Lanes) != 1 || st.Lanes[0].EffectiveBlocks != 2 || !st.Lanes[0].Shedding {
		t.Fatalf("snapshot under pressure: %+v", st.Lanes)
	}
	// A grow beyond the effective cap must fail even with free blocks.
	if err := hold.Grow(64); !errors.Is(err, kvpool.ErrOutOfBlocks) {
		t.Fatalf("grow under pressure = %v, want ErrOutOfBlocks", err)
	}
	// Lifting the pressure recovers: util back to 4/10 <= 0.5.
	g.SetPressure("l", 0)
	if g.Shedding() {
		t.Fatal("still shedding after pressure lifted")
	}
	hold.Release()
	if st := g.Snapshot(); st.Lanes[0].FreeBlocks != st.Lanes[0].TotalBlocks {
		t.Fatalf("pool not fully free after release: %+v", st.Lanes[0])
	}
}

func TestLeasePreemptReleasesBlocksKeepsQuota(t *testing.T) {
	g := New(Config{Specs: specFor(8, 16), QuotaTokens: 200,
		Registry: metrics.NewRegistry()})
	lease, err := g.Admit("l", "c", 64, 36)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if err := lease.Reserve(64); err != nil {
		t.Fatalf("reserve: %v", err)
	}
	lease.Preempt()
	if lease.Held() {
		t.Fatal("lease still holds blocks after preemption")
	}
	st := g.Snapshot()
	if st.Lanes[0].FreeBlocks != st.Lanes[0].TotalBlocks {
		t.Fatalf("blocks not returned on preempt: %+v", st.Lanes[0])
	}
	if st.Lanes[0].Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", st.Lanes[0].Preemptions)
	}
	// The quota charge survives preemption (the request is still live):
	// the client holds 100 of 200, so 120 more must be rejected.
	if _, err := g.Admit("l", "c", 100, 20); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("quota dropped across preemption: %v", err)
	}
	// Readmission re-reserves on the same lease.
	if err := lease.Reserve(64); err != nil {
		t.Fatalf("re-reserve after preempt: %v", err)
	}
	lease.Release()
	if _, ok := g.Snapshot().Clients["c"]; ok {
		t.Fatal("client quota entry not cleared after terminal release")
	}
}

// TestAdmitTokensByMode: the scheduler core sizes the admission
// reservation from the governor's mode and takes it through the lease —
// the prompt only under optimistic mode, the full context under
// conservative mode.
func TestAdmitTokensByMode(t *testing.T) {
	for _, tc := range []struct {
		conservative bool
		tokens       int
	}{{false, 100}, {true, 128}} {
		g := New(Config{Specs: specFor(8, 16), Conservative: tc.conservative,
			Registry: metrics.NewRegistry()})
		lease, err := g.Admit("l", "c", 100, 28)
		if err != nil {
			t.Fatal(err)
		}
		b := serve.Batch[struct{}]{MaxBatch: 1, Optimistic: !g.Conservative()}
		if err := b.Admit(&serve.Seq[struct{}]{In: 100, Out: 28, Mem: lease}); err != nil {
			t.Fatal(err)
		}
		st := g.Snapshot().Lanes[0]
		if held, want := st.TotalBlocks-st.FreeBlocks, (tc.tokens+15)/16; held != want {
			t.Errorf("%s admission holds %d blocks, want %d (%d tokens)",
				g.Mode(), held, want, tc.tokens)
		}
		b.Drain()
		if st := g.Snapshot().Lanes[0]; st.FreeBlocks != st.TotalBlocks {
			t.Errorf("%s: drain left %d blocks held", g.Mode(), st.TotalBlocks-st.FreeBlocks)
		}
	}
	var nilGov *Governor
	if nilGov.Conservative() || nilGov.Shedding() {
		t.Error("nil governor must report no mode and no shedding")
	}
	if lease, err := nilGov.Admit("l", "c", 1, 1); lease != nil || err != nil {
		t.Errorf("nil governor Admit = (%v, %v), want (nil, nil)", lease, err)
	}
}

// segsFor builds a shareable prompt description: one group segment plus a
// private per-request tail, the shape the gateway produces.
func segsFor(group string, shared, private int) []prefixcache.Segment {
	return []prefixcache.Segment{
		{ID: group, Tokens: shared},
		{ID: "tail", Tokens: private, Private: true},
	}
}

func TestCachedReserveDonateAndHit(t *testing.T) {
	g := New(Config{Specs: specFor(64, 16), EnableCache: true,
		Registry: metrics.NewRegistry()})
	if !g.CacheEnabled() {
		t.Fatal("cache should be enabled")
	}
	segs := segsFor("sys", 48, 16)

	// Cold request: miss, full reservation, then donation after prefill.
	l1, err := g.Admit("lane", "c1", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := l1.ReserveWithPrefix(segs, 64, 64, 0)
	if err != nil || cached != 0 {
		t.Fatalf("cold reserve: cached=%d err=%v", cached, err)
	}
	if n := l1.DonatePrefix(segs); n != 3 { // 48 shared tokens → 3 blocks
		t.Fatalf("donated %d blocks, want 3", n)
	}

	// Second request sharing the prefix: hit covering the 3 blocks.
	l2, err := g.Admit("lane", "c2", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	cached, err = l2.ReserveWithPrefix(segs, 64, 64, 0)
	if err != nil || cached != 48 {
		t.Fatalf("warm reserve: cached=%d err=%v", cached, err)
	}
	// min_prefix_tokens above the match turns it into a miss.
	l3, err := g.Admit("lane", "c3", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	cached, err = l3.ReserveWithPrefix(segs, 64, 64, 64)
	if err != nil || cached != 0 {
		t.Fatalf("min-prefix reserve: cached=%d err=%v", cached, err)
	}

	// Outcomes count what the reservations adopted: the min-prefix
	// request matched the tree but adopted nothing, so it is a miss.
	st := g.CacheSnapshot()
	if !st.Enabled || st.RetainedBlocks != 3 || st.Hits != 1 || st.Misses != 2 || st.HitTokens != 48 {
		t.Fatalf("cache snapshot %+v", st)
	}
	if len(st.Lanes) != 1 || st.Lanes[0].RetainedBlocks != 3 {
		t.Errorf("cache snapshot must carry per-lane stats when enabled: %+v", st.Lanes)
	}

	l1.Release()
	l2.Release()
	l3.Release()
	if n := g.FlushCache(); n != 3 {
		t.Fatalf("flush released %d, want 3", n)
	}
	if st := g.CacheSnapshot(); st.RetainedBlocks != 0 {
		t.Fatalf("retained %d after flush", st.RetainedBlocks)
	}
	// Everything released and flushed: the pool must be exactly full.
	if free := g.Snapshot().Lanes[0].FreeBlocks; free != 64 {
		t.Fatalf("free=%d at end, want 64", free)
	}
}

// TestCacheEvictionUnderWatermark drives the lane over its high watermark
// with cache-retained blocks present and checks the governor reclaims the
// cache instead of shedding live traffic.
func TestCacheEvictionUnderWatermark(t *testing.T) {
	g := New(Config{Specs: specFor(16, 16), EnableCache: true,
		HighWatermark: 0.8, LowWatermark: 0.4, Registry: metrics.NewRegistry()})
	// Donate 8 blocks of cache (two 64-token groups).
	for _, grp := range []string{"a", "b"} {
		l, err := g.Admit("lane", "c", 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.ReserveWithPrefix(segsFor(grp, 64, 0), 64, 64, 0); err != nil {
			t.Fatal(err)
		}
		l.DonatePrefix(segsFor(grp, 64, 0))
		l.Release()
	}
	if st := g.CacheSnapshot(); st.RetainedBlocks != 8 {
		t.Fatalf("retained %d, want 8", st.RetainedBlocks)
	}
	// A live request pushing usage to 14/16 (87%) crosses the high
	// watermark; admission must evict cache down to the low mark and
	// keep serving rather than shed.
	l, err := g.Admit("lane", "c", 96, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReserveWithPrefix(nil, 96, 96, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Admit("lane", "c", 16, 1); err != nil {
		t.Fatalf("admission after cache eviction: %v", err)
	}
	if st := g.CacheSnapshot(); st.Evictions == 0 {
		t.Error("watermark pressure should have evicted cache blocks")
	}
	if g.Shedding() {
		t.Error("lane must not shed while cold cache is reclaimable")
	}
}

// TestCachedReserveExhaustionRetry fills the pool with cache, then checks
// a miss-path reservation reclaims cache via the evict-and-retry path.
func TestCachedReserveExhaustionRetry(t *testing.T) {
	g := New(Config{Specs: specFor(8, 16), EnableCache: true,
		HighWatermark: 0.999, LowWatermark: 0.99, Registry: metrics.NewRegistry()})
	l, err := g.Admit("lane", "c", 112, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReserveWithPrefix(segsFor("big", 112, 0), 112, 112, 0); err != nil {
		t.Fatal(err)
	}
	l.DonatePrefix(segsFor("big", 112, 0))
	l.Release() // pool now mostly retained by the tree
	if st := g.CacheSnapshot(); st.RetainedBlocks != 7 {
		t.Fatalf("retained %d, want 7", st.RetainedBlocks)
	}
	l2, err := g.Admit("lane", "c", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := l2.ReserveWithPrefix(segsFor("other", 64, 0), 64, 64, 0)
	if err != nil {
		t.Fatalf("reserve should evict-and-retry: %v", err)
	}
	if cached != 0 {
		t.Fatalf("different group must miss, got %d cached", cached)
	}
	l2.Release()
}

// TestSharedRegistrySeriesAreSums puts two governors (two cluster
// replicas) on one registry, drives hits, misses, preemption, shedding
// and quota rejects through them, and holds every govern_* series on the
// scrape to the sum of the two governors' Snapshot and CacheSnapshot
// values; the two admission-reject counters, which no snapshot carries,
// are held to the rejects the test saw.
func TestSharedRegistrySeriesAreSums(t *testing.T) {
	reg := metrics.NewRegistry()
	var shed, quota int64
	govs := make([]*Governor, 2)
	for i := range govs {
		g := New(Config{Specs: specFor(32+16*i, 16), EnableCache: true, QuotaTokens: 500,
			HighWatermark: 0.5, LowWatermark: 0.25, Registry: reg})
		govs[i] = g
		admit := func(lane, client string, in, out int) *Lease {
			l, err := g.Admit(lane, client, in, out)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		// A miss that donates, then a hit on the donated prefix.
		for range 2 {
			l := admit("a|x", "c", 64, 8)
			if _, err := l.ReserveWithPrefix(segsFor("sys", 48, 16), 64, 64, 0); err != nil {
				t.Fatal(err)
			}
			l.DonatePrefix(segsFor("sys", 48, 16))
			l.Release()
		}
		if i == 1 {
			l := admit("b", "p", 32, 8)
			if err := l.Reserve(32); err != nil {
				t.Fatal(err)
			}
			l.Preempt()
			l.Release()
		}
		// Quota: 400 tokens in flight, another 400 is over 500.
		held := admit("a|x", "q", 400, 0)
		if _, err := g.Admit("a|x", "q", 400, 0); !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("governor %d: over-quota admit = %v", i, err)
		}
		quota++
		held.Release()
		// Lane b of the first governor holds 19 of 32 blocks: it sheds.
		if i == 0 {
			if err := admit("b", "s", 300, 0).Reserve(300); err != nil {
				t.Fatal(err)
			}
			if _, err := g.Admit("b", "t", 16, 0); !errors.Is(err, ErrShedding) {
				t.Fatalf("admit above the high watermark = %v, want ErrShedding", err)
			}
			shed++
		}
	}

	want := map[string]int64{"govern_shed_total": shed, "govern_quota_rejected_total": quota}
	add := func(name string, v int64) { want[name] += v }
	for _, g := range govs {
		st, cs := g.Snapshot(), g.CacheSnapshot()
		add("govern_lanes", int64(len(st.Lanes)))
		for _, l := range st.Lanes {
			sfx, shedding := "_"+sanitizeMetric(l.Lane), int64(0)
			if l.Shedding {
				shedding = 1
			}
			add("govern_kv_blocks_total"+sfx, int64(l.TotalBlocks))
			add("govern_kv_blocks_free"+sfx, int64(l.FreeBlocks))
			add("govern_kv_blocks_effective"+sfx, int64(l.EffectiveBlocks))
			add("govern_kv_allocs_total"+sfx, int64(l.Allocations))
			add("govern_kv_preemptions_total"+sfx, int64(l.Preemptions))
			add("govern_kv_shedding"+sfx, shedding)
			add("govern_preemptions_total", int64(l.Preemptions))
			add("govern_shedding_lanes", shedding)
		}
		for _, l := range cs.Lanes {
			sfx := "_" + sanitizeMetric(l.Lane)
			add("govern_cache_hits_total"+sfx, int64(l.Hits))
			add("govern_cache_misses_total"+sfx, int64(l.Misses))
			add("govern_cache_hit_tokens_total"+sfx, int64(l.HitTokens))
			add("govern_cache_evictions_total"+sfx, int64(l.Evictions))
			add("govern_cache_retained_blocks"+sfx, int64(l.RetainedBlocks))
		}
		add("govern_cache_hits_total", int64(cs.Hits))
		add("govern_cache_misses_total", int64(cs.Misses))
		add("govern_cache_hit_tokens_total", int64(cs.HitTokens))
		add("govern_cache_evictions_total", int64(cs.Evictions))
	}
	if want["govern_cache_hits_total"] != 2 || want["govern_preemptions_total"] != 1 || want["govern_shedding_lanes"] != 1 {
		t.Fatalf("scenario did not produce its hits, preemption and shedding lane: %v", want)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "govern_") {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got[name] = n
	}
	for name, v := range got {
		if w, ok := want[name]; !ok {
			t.Errorf("%s = %d on /metrics, but no snapshot field backs it", name, v)
		} else if v != w {
			t.Errorf("%s = %d on /metrics, snapshots sum to %d", name, v, w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s missing from /metrics", name)
		}
	}
}

// TestScrapeDuringTraffic scrapes the registry while leases reserve
// through the cache, grow, preempt and release on several goroutines
// (meaningful under -race: the read-through series read lane state and
// the pool and tree stats concurrently with governance). Once traffic
// stops, the scrape agrees with the snapshots.
func TestScrapeDuringTraffic(t *testing.T) {
	reg := metrics.NewRegistry()
	g := New(Config{Specs: specFor(64, 16), EnableCache: true, Registry: reg})
	stop := make(chan struct{})
	scraped := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
				if err := reg.WritePrometheus(io.Discard); err != nil {
					scraped <- err
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				l, err := g.Admit("lane", "c", 48, 16)
				if err != nil {
					continue // shedding under the burst is an outcome, not a failure
				}
				segs := segsFor(fmt.Sprintf("g%d", i%5), 32, 16)
				if _, err := l.ReserveWithPrefix(segs, 48, 48, 0); err == nil {
					l.DonatePrefix(segs)
					_ = l.Grow(8)
					if i%7 == 0 {
						l.Preempt()
					}
				}
				l.Release()
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	st, cs := g.Snapshot().Lanes[0], g.CacheSnapshot()
	for _, want := range []string{
		fmt.Sprintf("govern_kv_allocs_total_lane %d\n", st.Allocations),
		fmt.Sprintf("govern_preemptions_total %d\n", st.Preemptions),
		fmt.Sprintf("govern_cache_hits_total %d\n", cs.Hits),
		fmt.Sprintf("govern_cache_misses_total %d\n", cs.Misses),
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape after traffic lacks %q", want)
		}
	}
	if cs.Hits+cs.Misses == 0 || st.Preemptions == 0 {
		t.Fatalf("traffic produced no cache outcomes or preemptions: %+v %+v", cs, st)
	}
}
