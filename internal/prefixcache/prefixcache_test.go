package prefixcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kvpool"
	"repro/internal/model"
	"repro/internal/tensor"
)

func newPool(t *testing.T, blocks int) *kvpool.Pool {
	t.Helper()
	cfg := model.Tiny(model.OPT)
	probe, err := kvpool.New(cfg, tensor.BF16, 16, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kvpool.New(cfg, tensor.BF16, 16, probe.BytesPerBlock()*int64(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBlocks() != blocks {
		t.Fatalf("pool sized %d, want %d", p.TotalBlocks(), blocks)
	}
	return p
}

func seg(id string, tokens int) Segment { return Segment{ID: id, Tokens: tokens} }

func TestBlockKeysDeterministicAndDivergent(t *testing.T) {
	a := []Segment{seg("sys", 32), seg("u1", 20)}
	b := []Segment{seg("sys", 32), seg("u2", 20)}
	ka := BlockKeys(a, 16)
	kb := BlockKeys(b, 16)
	if len(ka) != 3 || len(kb) != 3 { // 52 tokens → 3 full blocks
		t.Fatalf("key counts %d/%d, want 3", len(ka), len(kb))
	}
	if k2 := BlockKeys(a, 16); len(k2) != 3 || k2[0] != ka[0] || k2[2] != ka[2] {
		t.Error("keys must be deterministic")
	}
	// Shared system prompt: first two blocks (32 tokens) agree, the
	// third (crossing into the divergent message) must differ.
	if ka[0] != kb[0] || ka[1] != kb[1] {
		t.Error("shared-prefix blocks must produce equal keys")
	}
	if ka[2] == kb[2] {
		t.Error("divergent content must produce a different key")
	}
	// Same bytes, different segmentation boundary → different keys: the
	// chain commits to segment identity, and "sys" vs "sy"+"s" are
	// different identities even if some tokenization made them equal.
	c := []Segment{seg("sy", 16), seg("s", 16), seg("u1", 20)}
	kc := BlockKeys(c, 16)
	if kc[0] == ka[0] {
		t.Error("different segmentation must not collide")
	}
}

func TestBlockKeysPrivateAndPartial(t *testing.T) {
	if got := BlockKeys([]Segment{seg("s", 15)}, 16); got != nil {
		t.Error("sub-block prefix must yield no keys")
	}
	if got := BlockKeys([]Segment{{ID: "p", Tokens: 64, Private: true}}, 16); got != nil {
		t.Error("private segment must yield no keys")
	}
	got := BlockKeys([]Segment{seg("s", 40), {ID: "p", Tokens: 64, Private: true}}, 16)
	if len(got) != 2 { // only the 2 full blocks before the private tail
		t.Errorf("keys before private tail: %d, want 2", len(got))
	}
	if BlockKeys(nil, 16) != nil || BlockKeys([]Segment{seg("s", 64)}, 0) != nil {
		t.Error("degenerate inputs must yield no keys")
	}
}

func TestInsertLookupEvict(t *testing.T) {
	p := newPool(t, 16)
	tree := New(p)

	donor := p.NewSequence()
	if err := donor.Append(64); err != nil { // 4 blocks
		t.Fatal(err)
	}
	keys := BlockKeys([]Segment{seg("sys", 64)}, 16)
	if n := tree.Insert(keys, donor.Blocks()); n != 4 {
		t.Fatalf("inserted %d, want 4", n)
	}
	if n := tree.Insert(keys, donor.Blocks()); n != 0 {
		t.Fatalf("re-insert retained %d, want 0", n)
	}
	if err := donor.Free(); err != nil {
		t.Fatal(err)
	}
	if free := p.Stats().FreeBlocks; free != 12 {
		t.Fatalf("free=%d with tree retaining 4, want 12", free)
	}

	// Longest-prefix match across a divergent tail.
	probe := BlockKeys([]Segment{seg("sys", 64), seg("u", 32)}, 16)
	m := tree.Lookup(probe)
	if m == nil || m.Tokens != 64 || len(m.Blocks) != 4 {
		t.Fatalf("match %+v, want 4 blocks / 64 tokens", m)
	}
	// Pinned path must survive eviction pressure.
	if n := tree.EvictLRU(100); n != 0 {
		t.Fatalf("evicted %d pinned blocks", n)
	}
	adopted, err := p.AdoptPrefix(m.Blocks, m.Tokens)
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	m.Release() // idempotent

	// Unpinned now: eviction drops the tree's references, but the
	// adopted fork keeps the blocks alive in the pool.
	if n := tree.EvictLRU(100); n != 4 {
		t.Fatalf("evicted %d, want 4", n)
	}
	if tree.RetainedBlocks() != 0 {
		t.Error("tree must be empty after eviction")
	}
	if err := adopted.Append(10); err != nil {
		t.Fatal(err)
	}
	if err := adopted.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 16 {
		t.Fatalf("free=%d at end, want 16 (leak)", p.Stats().FreeBlocks)
	}

	if st := tree.Stats(); st.Evictions != 4 || st.Insertions != 4 {
		t.Errorf("stats %+v", st)
	}
	if tree.Lookup(BlockKeys([]Segment{seg("other", 32)}, 16)) != nil {
		t.Error("miss expected")
	}
}

func TestLRUOrderAndFlush(t *testing.T) {
	p := newPool(t, 16)
	tree := New(p)
	mk := func(name string) []uint64 {
		keys := BlockKeys([]Segment{seg(name, 16)}, 16)
		s := p.NewSequence()
		if err := s.Append(16); err != nil {
			t.Fatal(err)
		}
		tree.Insert(keys, s.Blocks())
		if err := s.Free(); err != nil {
			t.Fatal(err)
		}
		return keys
	}
	ka := mk("a")
	kb := mk("b")
	tree.Lookup(ka).Release() // refresh a; b is now LRU
	if tree.EvictLRU(1) != 1 {
		t.Fatal("evict")
	}
	if tree.Lookup(kb) != nil {
		t.Error("b should have been evicted (LRU)")
	}
	if m := tree.Lookup(ka); m == nil {
		t.Error("a should survive")
	} else {
		m.Release()
	}
	if n := tree.Flush(); n != tree.Stats().Nodes+n-tree.RetainedBlocks() && tree.RetainedBlocks() != 0 {
		t.Errorf("flush left %d retained", tree.RetainedBlocks())
	}
	if p.Stats().FreeBlocks != 16 {
		t.Fatalf("free=%d after flush, want 16", p.Stats().FreeBlocks)
	}
}

// TestCacheAccountingProperty drives a random interleaving of
// insert / lookup(hit) / evict / fork(adopt) / free against one pool and
// checks, after every step, that block accounting stays exact and that
// no block with a live reader was ever recycled. This is the ISSUE's
// required testing/quick property.
func TestCacheAccountingProperty(t *testing.T) {
	const blocks = 24
	prop := func(seed int64, opsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := 30 + int(opsRaw)%60
		p := newPool(t, blocks)
		tree := New(p)
		type fork struct {
			s      *kvpool.Sequence
			shared []int
		}
		var forks []*fork
		groups := []string{"g0", "g1", "g2"}
		inserted := map[string][]uint64{}

		check := func() bool {
			// Exactness: every block the tree retains must be live.
			for _, f := range forks {
				for _, id := range f.shared {
					if p.BlockRef(id) < 1 {
						t.Logf("seed=%d: adopted block %d recycled under reader", seed, id)
						return false
					}
				}
			}
			return true
		}

		for i := 0; i < ops; i++ {
			switch rng.Intn(5) {
			case 0: // insert: prefill a group prompt and donate it
				g := groups[rng.Intn(len(groups))]
				ntok := (1 + rng.Intn(3)) * 16
				keys := BlockKeys([]Segment{seg(g, ntok)}, 16)
				s := p.NewSequence()
				if err := s.Append(ntok); err != nil {
					tree.EvictLRU(2) // pressure: make room and move on
					_ = s.Free()
					continue
				}
				tree.Insert(keys, s.Blocks()[:len(keys)])
				if err := s.Free(); err != nil {
					return false
				}
				inserted[g] = keys
			case 1: // hit + adopt (fork from cache)
				g := groups[rng.Intn(len(groups))]
				keys := inserted[g]
				if keys == nil {
					continue
				}
				m := tree.Lookup(keys)
				if m == nil {
					continue
				}
				s, err := p.AdoptPrefix(m.Blocks, m.Tokens)
				if err != nil {
					m.Release()
					return false
				}
				shared := append([]int(nil), m.Blocks...)
				m.Release()
				forks = append(forks, &fork{s: s, shared: shared})
			case 2: // evict under pressure
				tree.EvictLRU(1 + rng.Intn(4))
			case 3: // a fork decodes a little (fresh blocks)
				if len(forks) > 0 {
					f := forks[rng.Intn(len(forks))]
					_ = f.s.Append(1 + rng.Intn(8)) // exhaustion is fine
				}
			case 4: // a fork terminates (incl. preempt-before-decode)
				if len(forks) > 0 {
					i := rng.Intn(len(forks))
					f := forks[i]
					if err := f.s.Free(); err != nil {
						return false
					}
					forks = append(forks[:i], forks[i+1:]...)
				}
			}
			if !check() {
				return false
			}
			st := p.Stats()
			if st.FreeBlocks < 0 || st.FreeBlocks > blocks {
				return false
			}
		}
		// Drain: free every fork, flush the tree; the pool must be
		// exactly full again — accounting stayed exact.
		for _, f := range forks {
			if err := f.s.Free(); err != nil {
				return false
			}
		}
		tree.Flush()
		if p.Stats().FreeBlocks != blocks {
			t.Logf("seed=%d: %d free at drain, want %d", seed, p.Stats().FreeBlocks, blocks)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
