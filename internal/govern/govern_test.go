package govern

import (
	"errors"
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

	st := g.CacheSnapshot()
	if !st.Enabled || st.RetainedBlocks != 3 || st.Hits != 2 || st.Misses != 1 {
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
