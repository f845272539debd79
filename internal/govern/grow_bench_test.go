package govern

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/prefixcache"
)

// growLane is a governor over a 4096-block pool whose prefix cache retains
// `retained` blocks (8-block chains no later request shares), and a way to
// get a fresh lease holding a 16-token reservation on it.
func growLane(tb testing.TB, retained int) func() *Lease {
	tb.Helper()
	g := New(Config{Specs: specFor(4096, 16), EnableCache: true, Registry: metrics.NewRegistry()})
	admit := func(id string, donate bool) *Lease {
		l, err := g.Admit("l", "c", 128, 256)
		if err != nil {
			tb.Fatal(err)
		}
		segs := []prefixcache.Segment{{ID: id, Tokens: 128}}
		if _, err := l.ReserveWithPrefix(segs, 128, 128, 0); err != nil {
			tb.Fatal(err)
		}
		if donate {
			l.DonatePrefix(segs)
		}
		return l
	}
	for i := 0; i < retained/8; i++ {
		admit(fmt.Sprintf("fill-%d", i), true).Release()
	}
	if got := g.CacheSnapshot().RetainedBlocks; got != retained {
		tb.Fatalf("%d retained blocks, want %d", got, retained)
	}
	n := 0
	return func() *Lease { n++; return admit(fmt.Sprintf("probe-%d", n), false) }
}

// growNs is the best-of-5 cost of one Lease.Grow(1) with `retained`
// blocks in the lane's prefix cache.
func growNs(tb testing.TB, retained int) float64 {
	lease := growLane(tb, retained)
	best := 0.0
	for batch := 0; batch < 5; batch++ {
		l := lease()
		start := time.Now()
		for i := 0; i < 256; i++ {
			if err := l.Grow(1); err != nil {
				tb.Fatal(err)
			}
		}
		ns := float64(time.Since(start).Nanoseconds()) / 256
		l.Release()
		if batch == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// TestGrowCostIndependentOfCacheSize: the per-token lease grow re-evaluates
// the lane's watermarks and cache counters, and must not walk the tree to
// do it.
func TestGrowCostIndependentOfCacheSize(t *testing.T) {
	empty, full := growNs(t, 0), growNs(t, 2048)
	t.Logf("grow: %.0f ns empty, %.0f ns with 2048 blocks retained", empty, full)
	if full > 2*empty {
		t.Errorf("grow with 2048 retained blocks costs %.0f ns, over 2x the %.0f ns of an empty cache", full, empty)
	}
}

// BenchmarkGrow2k is Lease.Grow(1) — once per decoded token per sequence
// under optimistic admission — with 2048 blocks retained by the cache.
func BenchmarkGrow2k(b *testing.B) {
	lease := growLane(b, 2048)
	l := lease()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%256 == 255 {
			b.StopTimer()
			l.Release()
			l = lease()
			b.StartTimer()
		}
		if err := l.Grow(1); err != nil {
			b.Fatal(err)
		}
	}
}
