package prefixcache

import (
	"fmt"
	"math/rand"
	"testing"
)

// countingPool is a Pool that only counts the references the tree holds.
type countingPool struct{ refs map[int]int }

func (p *countingPool) BlockSize() int { return 16 }
func (p *countingPool) RetainBlocks(ids []int) {
	for _, id := range ids {
		p.refs[id]++
	}
}
func (p *countingPool) ReleaseBlockIDs(ids []int) {
	for _, id := range ids {
		if p.refs[id]--; p.refs[id] == 0 {
			delete(p.refs, id)
		}
	}
}

// recountPinned is the full walk Stats used to do per call, kept as the
// oracle for the incremental counter.
func (t *Tree) recountPinned() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, nd := range t.index {
		if nd.pins > 0 {
			n++
		}
	}
	return n
}

// TestStatsMatchRecount drives seeded random Lookup / Release (double
// releases included) / Insert / EvictLRU / Flush over chains that share a
// group prefix and chains that share nothing, and checks after every
// operation that the incremental pinned count equals a full recount and
// that the tree retains exactly the references the pool holds for it.
func TestStatsMatchRecount(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := &countingPool{refs: map[int]int{}}
		tree := New(pool)
		nextBlock := 0
		var chains [][]uint64
		var held, released []*Match

		check := func(op string, i int) {
			t.Helper()
			st := tree.Stats()
			if want := tree.recountPinned(); st.PinnedBlocks != want {
				t.Fatalf("seed %d op %d (%s): PinnedBlocks %d, recount %d", seed, i, op, st.PinnedBlocks, want)
			}
			if st.RetainedBlocks != len(pool.refs) || tree.RetainedBlocks() != len(pool.refs) {
				t.Fatalf("seed %d op %d (%s): RetainedBlocks %d, pool holds %d", seed, i, op, st.RetainedBlocks, len(pool.refs))
			}
		}
		for i := 0; i < 400; i++ {
			var op string
			switch r := rng.Intn(10); {
			case r < 3:
				op = "insert"
				// A shared group prefix of 1–3 blocks, then a tail that is
				// either one of a few reused ones (siblings under one
				// parent) or unique; group "solo" chains share nothing.
				segs := []Segment{seg(fmt.Sprintf("g%d", rng.Intn(3)), 16*(1+rng.Intn(3))),
					seg(fmt.Sprintf("tail%d", rng.Intn(6)), 16*(1+rng.Intn(4)))}
				if rng.Intn(4) == 0 {
					segs = []Segment{seg(fmt.Sprintf("solo%d", i), 16*(1+rng.Intn(5)))}
				}
				keys := BlockKeys(segs, 16)
				blocks := make([]int, len(keys))
				for b := range blocks {
					blocks[b] = nextBlock
					nextBlock++
				}
				tree.Insert(keys, blocks)
				chains = append(chains, keys)
			case r < 6:
				op = "lookup"
				if len(chains) == 0 {
					continue
				}
				if m := tree.Lookup(chains[rng.Intn(len(chains))]); m != nil {
					held = append(held, m)
				}
			case r < 8:
				op = "release"
				if len(held) == 0 {
					continue
				}
				j := rng.Intn(len(held))
				held[j].Release()
				released = append(released, held[j])
				held = append(held[:j], held[j+1:]...)
			case r == 8:
				op = "evict"
				tree.EvictLRU(1 + rng.Intn(6))
				// Releasing again after siblings were evicted must stay a no-op.
				if len(released) > 0 {
					released[rng.Intn(len(released))].Release()
				}
			default:
				op = "flush"
				if rng.Intn(4) == 0 {
					tree.Flush()
				}
			}
			check(op, i)
		}
		for _, m := range held {
			m.Release()
		}
		tree.Flush()
		check("drain", -1)
		if st := tree.Stats(); st.PinnedBlocks != 0 || st.RetainedBlocks != 0 {
			t.Fatalf("seed %d: drained tree still holds %+v", seed, st)
		}
	}
}

// BenchmarkStats2k is Tree.Stats on a 2048-block tree — the call the
// governor makes on every lease grow.
func BenchmarkStats2k(b *testing.B) {
	tree := New(&countingPool{refs: map[int]int{}})
	for c := 0; c < 256; c++ {
		keys := BlockKeys([]Segment{seg(fmt.Sprintf("c%d", c), 8*16)}, 16)
		blocks := make([]int, len(keys))
		for i := range blocks {
			blocks[i] = c*8 + i
		}
		tree.Insert(keys, blocks)
	}
	if n := tree.Stats().Nodes; n != 2048 {
		b.Fatalf("tree has %d nodes, want 2048", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st Stats
	for i := 0; i < b.N; i++ {
		st = tree.Stats()
	}
	statsSink = st
}

var statsSink Stats
