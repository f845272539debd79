package prefixcache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// releaseLog is a countingPool that also records the order blocks are
// released in: EvictLRU releases its victims in the order it chose them.
type releaseLog struct {
	countingPool
	released []int
}

func (p *releaseLog) ReleaseBlockIDs(ids []int) {
	p.released = append(p.released, ids...)
	p.countingPool.ReleaseBlockIDs(ids)
}

// shadowNode is the test's own record of one cached block: which chain
// key is its parent, when an Insert or a Lookup last touched it, and how
// many held matches pin it.
type shadowNode struct {
	parent  uint64 // 0: the root
	block   int
	lastUse int
	pins    int
}

// shadowTree replays every operation on plain maps, so that victim order
// can be recounted by brute force: the victim is the least recently used
// node that no match pins and no cached node hangs below.
type shadowTree struct {
	nodes map[uint64]*shadowNode
	clock int
}

// touch records an Insert of keys/blocks, or (blocks nil) a Lookup, and
// returns the keys the operation found or added, root first.
func (s *shadowTree) touch(keys []uint64, blocks []int) []uint64 {
	s.clock++
	var parent uint64
	var path []uint64
	for i, k := range keys {
		nd := s.nodes[k]
		if nd == nil {
			if blocks == nil || i >= len(blocks) {
				break
			}
			nd = &shadowNode{parent: parent, block: blocks[i]}
			s.nodes[k] = nd
		}
		nd.lastUse = s.clock
		path = append(path, k)
		parent = k
	}
	return path
}

// victims returns the keys EvictLRU may take next: the unpinned leaves of
// least lastUse (more than one only on a tie).
func (s *shadowTree) victims() []uint64 {
	inner := map[uint64]bool{}
	for _, nd := range s.nodes {
		inner[nd.parent] = true
	}
	var best []uint64
	oldest := 0
	for k, nd := range s.nodes {
		if nd.pins > 0 || inner[k] {
			continue
		}
		switch {
		case best == nil || nd.lastUse < oldest:
			best, oldest = []uint64{k}, nd.lastUse
		case nd.lastUse == oldest:
			best = append(best, k)
		}
	}
	return best
}

// TestEvictionOrderMatchesRecount drives seeded schedules of Insert,
// Lookup (which pins), Release and EvictLRU(n), and checks every block
// EvictLRU releases, in order, against a brute-force recount of the
// oldest unpinned leaves on the shadow — after the victims before it in
// the same call are gone, so that a parent left childless is a candidate
// for the next one. It also checks that the tree keeps exactly the
// shadow's keys. This is the oracle any faster victim index must match.
func TestEvictionOrderMatchesRecount(t *testing.T) {
	parentsTaken := 0 // victims that were inner nodes when their call began
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := &releaseLog{countingPool: countingPool{refs: map[int]int{}}}
		tree := New(pool)
		shadow := &shadowTree{nodes: map[uint64]*shadowNode{}}
		nextBlock := 0
		var chains [][]uint64
		type held struct {
			m    *Match
			path []uint64
		}
		var live []held

		for i := 0; i < 300; i++ {
			switch r := rng.Intn(10); {
			case r < 3:
				segs := []Segment{seg(fmt.Sprintf("g%d", rng.Intn(3)), 16*(1+rng.Intn(3))),
					seg(fmt.Sprintf("tail%d", rng.Intn(6)), 16*(1+rng.Intn(4)))}
				keys := BlockKeys(segs, 16)
				blocks := make([]int, len(keys))
				for b := range blocks {
					blocks[b] = nextBlock
					nextBlock++
				}
				tree.Insert(keys, blocks)
				shadow.touch(keys, blocks)
				chains = append(chains, keys)
			case r < 6 && len(chains) > 0:
				keys := chains[rng.Intn(len(chains))]
				m, path := tree.Lookup(keys), shadow.touch(keys, nil)
				if (m == nil) != (len(path) == 0) || m != nil && len(m.Blocks) != len(path) {
					t.Fatalf("seed %d op %d: lookup matched %v, the shadow %d blocks", seed, i, m, len(path))
				}
				if m != nil {
					for _, k := range path {
						shadow.nodes[k].pins++
					}
					live = append(live, held{m, path})
				}
			case r < 8 && len(live) > 0:
				j := rng.Intn(len(live))
				live[j].m.Release()
				for _, k := range live[j].path {
					shadow.nodes[k].pins--
				}
				live = append(live[:j], live[j+1:]...)
			case r >= 8:
				n := 1 + rng.Intn(8)
				inner := map[uint64]bool{}
				for _, nd := range shadow.nodes {
					inner[nd.parent] = true
				}
				pool.released = pool.released[:0]
				got := tree.EvictLRU(n)
				if got != len(pool.released) {
					t.Fatalf("seed %d op %d: EvictLRU(%d) = %d, released %d blocks", seed, i, n, got, len(pool.released))
				}
				for v := 0; v < n; v++ {
					want := shadow.victims()
					if v == got {
						if len(want) > 0 {
							t.Fatalf("seed %d op %d: EvictLRU(%d) stopped at %d with %d leaves evictable", seed, i, n, got, len(want))
						}
						break
					}
					k := slices.IndexFunc(want, func(k uint64) bool { return shadow.nodes[k].block == pool.released[v] })
					if k < 0 {
						t.Fatalf("seed %d op %d: victim %d of EvictLRU(%d) is block %d, the recount says one of %v",
							seed, i, v, n, pool.released[v], want)
					}
					if inner[want[k]] {
						parentsTaken++
					}
					delete(shadow.nodes, want[k])
				}
			}
			keys := make([]uint64, 0, len(shadow.nodes))
			for k := range shadow.nodes {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if got := tree.Keys(); !slices.Equal(got, keys) {
				t.Fatalf("seed %d op %d: tree holds %d keys, the shadow %d", seed, i, len(got), len(keys))
			}
		}
	}
	if parentsTaken == 0 {
		t.Error("no schedule evicted a parent its own call had left a leaf")
	}
}
