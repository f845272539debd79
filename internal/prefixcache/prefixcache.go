// Package prefixcache indexes kvpool blocks by token-prefix hash so
// concurrent requests sharing a system prompt or chat history reuse the
// cached KV instead of recomputing prefill. The paper (IISWC 2024) shows
// prefill is the compute-bound phase on CPUs, so every matched prefix
// token is prefill compute saved — the single biggest serving-throughput
// lever left once decode is batch-amortized.
//
// The index is a radix tree in the SGLang style, at block granularity:
// each node covers exactly one pool block (BlockSize tokens) and is keyed
// by the chained hash of the token prefix up to and including that block.
// A lookup walks the chain of block keys from the root and returns the
// longest matched path; an insert extends the tree with the blocks a
// finished prefill donates. The tree holds one kvpool reference per
// retained block, so eviction can never free a block out from under an
// in-flight fork — a request that adopted the block holds its own
// reference, and the pool only recycles a block when every holder has
// released it. LRU eviction walks unpinned leaves oldest-first; nodes on
// a path a request is still forking from are pinned until that request
// reaches a terminal state.
package prefixcache

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"repro/internal/kvpool"
)

// Segment is one hashable span of a request's token prefix. Requests
// describe their prompt as an ordered list of segments — a shared system
// prompt, each chat message, a prefix-group tag — and two requests share
// cache entries exactly as far as their segment lists agree. A segment
// with Private set ends key production: nothing at or beyond it is ever
// indexed (per-request unique tails, opted-out content).
type Segment struct {
	// ID identifies the segment content. Equal IDs must imply equal
	// token content; producers use content hashes or group names.
	ID string
	// Tokens is the segment's length in tokens.
	Tokens int
	// Private marks content that must not be shared across requests.
	Private bool
}

// BlockKeys chains the segment list into one 64-bit key per full block of
// blockSize tokens. Key i commits to every segment byte covering tokens
// [0, (i+1)*blockSize): a prefix match on keys is a prefix match on
// content. Only whole blocks are keyed — a trailing partial block is
// never shared, so adopted prefixes always fill their blocks exactly.
// Key production stops at the first private segment.
func BlockKeys(segments []Segment, blockSize int) []uint64 {
	if blockSize <= 0 {
		return nil
	}
	shareable := 0
	for _, s := range segments {
		if s.Private || s.Tokens < 0 {
			break
		}
		shareable += s.Tokens
	}
	nblocks := shareable / blockSize
	if nblocks == 0 {
		return nil
	}
	keys := make([]uint64, 0, nblocks)
	h := fnv.New64a()
	covered := 0 // tokens hashed so far
	next := blockSize
	for _, s := range segments {
		if len(keys) == nblocks {
			break
		}
		if s.Private {
			break
		}
		// Commit the segment's identity, then account its tokens;
		// every block boundary the segment crosses snapshots the
		// running hash. Writing the token count binds the key to the
		// tokenization, not just the ID list.
		fmt.Fprintf(h, "%s\x00%d\x1f", s.ID, s.Tokens)
		covered += s.Tokens
		for covered >= next && len(keys) < nblocks {
			fmt.Fprintf(h, "|%d", next)
			keys = append(keys, h.Sum64())
			next += blockSize
		}
	}
	return keys
}

// node is one block of cached prefix. Children are keyed by the chain
// hash of the prefix extended by their block.
type node struct {
	key      uint64
	parent   *node
	children map[uint64]*node
	block    int   // pool block ID this node retains
	depth    int   // 1-based block depth (root has 0)
	lastUse  int64 // logical clock of last lookup touch
	pins     int   // live readers forked from a path through this node
}

// Stats is a point-in-time summary of one tree. Lookups are not counted
// here: a matched prefix is a hit only once a reservation adopts it, so
// the governor counts hits and misses where it decides that.
type Stats struct {
	Nodes          int
	RetainedBlocks int
	PinnedBlocks   int
	Insertions     uint64
	Evictions      uint64
}

// Tree is one lane's prefix index over its kvpool. All methods are safe
// for concurrent use. Lock order: Tree.mu is taken before any pool lock
// (RetainBlocks / ReleaseBlockIDs acquire the pool mutex internally).
type Tree struct {
	pool Pool

	mu    sync.Mutex
	root  *node
	index map[uint64]*node // key → node, for O(1) chain walks
	clock int64
	// pinned counts nodes with pins > 0. Lookup and Release keep it on
	// the 0 ↔ 1 transitions; eviction and Flush only ever remove unpinned
	// nodes, so they leave it alone.
	pinned int

	insertions uint64
	evictions  uint64
}

// Pool is the slice of kvpool.Pool the tree needs; *kvpool.Pool satisfies
// it, and tests may substitute counters.
type Pool interface {
	BlockSize() int
	RetainBlocks(ids []int)
	ReleaseBlockIDs(ids []int)
}

var _ Pool = (*kvpool.Pool)(nil)

// New builds an empty tree over the pool.
func New(p Pool) *Tree {
	return &Tree{
		pool:  p,
		root:  &node{children: map[uint64]*node{}},
		index: map[uint64]*node{},
	}
}

// Match is a successful lookup: the longest cached prefix for a key
// chain. The path's nodes are pinned until Release is called; Blocks are
// NOT yet referenced for the caller — adopt them into a sequence (which
// takes its own references) before releasing the match if the KV will be
// used.
type Match struct {
	t      *Tree
	tip    *node
	Blocks []int // pool block IDs, root→tip order
	Tokens int   // prefix tokens covered
}

// Lookup walks the key chain and returns the longest matched path, or
// nil on a complete miss. A non-nil match pins its path against eviction
// until Release.
func (t *Tree) Lookup(keys []uint64) *Match {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	cur := t.root
	var blocks []int
	for _, k := range keys {
		next := cur.children[k]
		if next == nil {
			break
		}
		next.lastUse = t.clock
		blocks = append(blocks, next.block)
		cur = next
	}
	if cur == t.root {
		return nil
	}
	for n := cur; n != t.root; n = n.parent {
		if n.pins == 0 {
			t.pinned++
		}
		n.pins++
	}
	return &Match{t: t, tip: cur, Blocks: blocks, Tokens: cur.depth * t.pool.BlockSize()}
}

// Release unpins the match's path. Idempotent.
func (m *Match) Release() {
	if m == nil || m.t == nil {
		return
	}
	t := m.t
	t.mu.Lock()
	for n := m.tip; n != t.root; n = n.parent {
		if n.pins <= 0 {
			panic("prefixcache: unbalanced match release")
		}
		n.pins--
		if n.pins == 0 {
			t.pinned--
		}
	}
	t.mu.Unlock()
	m.t = nil
}

// Insert donates a finished prefill's blocks to the tree: keys[i] names
// the prefix through blocks[i]. Nodes already present are refreshed;
// new nodes retain their block in the pool. The donor keeps its own
// references — Insert never takes ownership of the caller's sequence.
// Returns how many new blocks the tree retained.
func (t *Tree) Insert(keys []uint64, blocks []int) int {
	n := len(keys)
	if len(blocks) < n {
		n = len(blocks)
	}
	if n == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock++
	cur := t.root
	var fresh []int
	for i := 0; i < n; i++ {
		k := keys[i]
		next := cur.children[k]
		if next == nil {
			next = &node{
				key:      k,
				parent:   cur,
				children: map[uint64]*node{},
				block:    blocks[i],
				depth:    cur.depth + 1,
			}
			cur.children[k] = next
			t.index[k] = next
			fresh = append(fresh, blocks[i])
			t.insertions++
		}
		next.lastUse = t.clock
		cur = next
	}
	if len(fresh) > 0 {
		// Take the tree's references while still under t.mu so a
		// concurrent eviction cannot race the retain.
		t.pool.RetainBlocks(fresh)
	}
	return len(fresh)
}

// EvictLRU releases up to n blocks, oldest-leaf-first, skipping pinned
// paths. Because the tree only ever drops its own references, a block a
// live request adopted survives in the pool even after its node is
// evicted. Returns how many blocks were released.
func (t *Tree) EvictLRU(n int) int {
	if n <= 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var released []int
	for len(released) < n {
		leaf := t.oldestEvictableLeafLocked()
		if leaf == nil {
			break
		}
		released = append(released, leaf.block)
		delete(leaf.parent.children, leaf.key)
		delete(t.index, leaf.key)
		leaf.parent = nil
		t.evictions++
	}
	if len(released) > 0 {
		t.pool.ReleaseBlockIDs(released)
	}
	return len(released)
}

// oldestEvictableLeafLocked scans for the least-recently-used unpinned
// leaf. A pinned node (live reader somewhere on its path) is never a
// candidate, which upholds the "eviction never breaks an in-flight fork"
// contract twice over: pins protect the path while a match is held, and
// pool refcounts protect already-adopted blocks afterwards.
func (t *Tree) oldestEvictableLeafLocked() *node {
	var best *node
	var walk func(*node)
	walk = func(nd *node) {
		for _, c := range nd.children {
			if len(c.children) == 0 {
				if c.pins == 0 && (best == nil || c.lastUse < best.lastUse) {
					best = c
				}
				continue
			}
			walk(c)
		}
	}
	walk(t.root)
	return best
}

// Flush evicts every unpinned node, bottom-up. Pinned paths survive; the
// caller can re-flush once readers drain. Returns blocks released.
func (t *Tree) Flush() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var released []int
	var walk func(*node)
	walk = func(nd *node) {
		for k, c := range nd.children {
			walk(c)
			if len(c.children) == 0 && c.pins == 0 {
				released = append(released, c.block)
				delete(nd.children, k)
				delete(t.index, k)
				c.parent = nil
				t.evictions++
			}
		}
	}
	walk(t.root)
	if len(released) > 0 {
		t.pool.ReleaseBlockIDs(released)
	}
	return len(released)
}

// RetainedBlocks returns how many blocks the tree currently holds
// references on.
func (t *Tree) RetainedBlocks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.index)
}

// Stats returns a snapshot of tree size and insertion/eviction counters.
func (t *Tree) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Nodes:          len(t.index),
		RetainedBlocks: len(t.index),
		PinnedBlocks:   t.pinned,
		Insertions:     t.insertions,
		Evictions:      t.evictions,
	}
}

// Keys returns the indexed keys in deterministic order (tests).
func (t *Tree) Keys() []uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]uint64, 0, len(t.index))
	for k := range t.index {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
