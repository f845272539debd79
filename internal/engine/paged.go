package engine

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// PagedKVCache is the engine's KV cache: the key and value vectors of one
// sequence for all layers, the de-facto decode optimization whose
// footprint the paper analyzes (§II-B). It is the functional counterpart
// of vLLM's PagedAttention storage (and of the allocation policy package
// kvpool models at fleet scale): a table of each layer's fixed-size
// blocks of positions, taken lazily from a free list as the sequence
// grows. A request that reserves a long maximum context but generates
// little holds only the blocks it touched — the property behind the Fig 7
// capacity argument. One block per layer is the dense layout. Blocks are
// reference-counted: AdoptPrefix shares them, a Put copies one another
// table holds (copy-on-write), and the last release frees it, unzeroed.
type PagedKVCache struct {
	layers, kvDim, blockSize, maxSeq int
	n, blocks                        int        // committed positions; blocks per layer
	table                            []*kvBlock // [layer·blocks + block]
	free                             *freeList[kvBlock]
}

// kvBlock is one page (a layer's keys, then values) and its holders.
type kvBlock struct {
	refs atomic.Int32
	kv   []float32
}

// freeList recycles values through a sync.Pool, so the collector bounds
// idle retention. Holding nothing, it skips the pool, which allocates on
// first use after each collection: allocations must not follow the GC.
type freeList[T any] struct {
	pool sync.Pool
	idle atomic.Int64
}

func (f *freeList[T]) get() *T {
	if f.idle.Add(-1) < 0 {
		f.idle.Add(1)
		return f.pool.New().(*T)
	}
	return f.pool.Get().(*T)
}

func (f *freeList[T]) put(v *T) {
	f.idle.Add(1)
	f.pool.Put(v)
}

// blockLists keys free lists by block length, per engine or standalone.
type blockLists struct {
	mu sync.Mutex
	m  map[int]*freeList[kvBlock]
}

var (
	standalone  = blockLists{m: map[int]*freeList[kvBlock]{}}
	poisonFreed bool // tests: fill freed blocks with NaN, so reading one shows
)

func (b *blockLists) of(n int) *freeList[kvBlock] {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m[n] == nil {
		b.m[n] = new(freeList[kvBlock])
		b.m[n].pool.New = func() any { return &kvBlock{kv: make([]float32, n)} }
	}
	return b.m[n]
}

// NewPagedKVCache builds an empty paged cache.
func NewPagedKVCache(layers, kvDim, maxSeq, blockSize int) *PagedKVCache {
	if blockSize <= 0 {
		panic(fmt.Sprintf("engine: non-positive KV block size %d", blockSize))
	}
	blocks := (maxSeq + blockSize - 1) / blockSize
	return &PagedKVCache{layers: layers, kvDim: kvDim, blockSize: blockSize, maxSeq: maxSeq,
		blocks: blocks, table: make([]*kvBlock, layers*blocks), free: standalone.of(2 * blockSize * kvDim)}
}

// Len returns the committed length; Cap the maximum.
func (c *PagedKVCache) Len() int { return c.n }

// Cap returns the maximum number of positions.
func (c *PagedKVCache) Cap() int { return c.maxSeq }

// AllocatedBlocks returns how many (K,V) blocks this cache alone holds.
func (c *PagedKVCache) AllocatedBlocks() int { return c.held(false) }

// SharedBlocks returns how many (K,V) blocks this cache holds together
// with another (AdoptPrefix shares them) and has not copied on write.
func (c *PagedKVCache) SharedBlocks() int { return c.held(true) }

func (c *PagedKVCache) held(shared bool) (n int) {
	for _, blk := range c.table {
		if blk != nil && (blk.refs.Load() > 1) == shared {
			n++
		}
	}
	return n
}

// Bytes returns the footprint of the blocks this cache alone holds.
func (c *PagedKVCache) Bytes() int64 {
	return int64(c.held(false)) * int64(c.blockSize*c.kvDim) * 4 * 2
}

func (c *PagedKVCache) check(layer, pos int) int {
	if layer < 0 || layer >= c.layers {
		panic(fmt.Sprintf("engine: kv layer %d out of [0,%d)", layer, c.layers))
	}
	if pos < 0 || pos >= c.maxSeq {
		panic(fmt.Sprintf("engine: kv position %d out of [0,%d)", pos, c.maxSeq))
	}
	return layer*c.blocks + pos/c.blockSize
}

// writable makes table entry i a block no other table holds: a free one on
// first touch, or a copy while shared (the cache's one copy path).
func (c *PagedKVCache) writable(i int) *kvBlock {
	old := c.table[i]
	if old != nil && old.refs.Load() == 1 {
		return old
	}
	blk := c.free.get()
	blk.refs.Store(1)
	if old != nil {
		copy(blk.kv, old.kv)
		c.drop(i)
	}
	c.table[i] = blk
	return blk
}

// drop releases table entry i's reference; the last one frees the block.
func (c *PagedKVCache) drop(i int) {
	blk := c.table[i]
	c.table[i] = nil
	if blk != nil && blk.refs.Add(-1) == 0 {
		for j := 0; poisonFreed && j < len(blk.kv); j++ {
			blk.kv[j] = float32(math.NaN())
		}
		c.free.put(blk)
	}
}

// Put stores one position's key/value, taking its block on first touch.
func (c *PagedKVCache) Put(layer, pos int, key, value []float32) {
	i := c.check(layer, pos)
	if len(key) != c.kvDim || len(value) != c.kvDim {
		panic(fmt.Sprintf("engine: kv put dim %d/%d, want %d", len(key), len(value), c.kvDim))
	}
	kv := c.writable(i).kv
	off, half := (pos%c.blockSize)*c.kvDim, c.blockSize*c.kvDim
	copy(kv[off:off+c.kvDim], key)
	copy(kv[half+off:half+off+c.kvDim], value)
}

// Run returns the key and value rows of one layer from pos to the end of
// its block, row-major [n, kvDim], n ≥ 1: attention walks a context run
// by run. Rows written by Put are readable before ExtendTo commits them
// (speculative verification depends on this). The block must have been
// written (reading an untouched block panics, catching misuse early);
// rows of a written block that were never put are garbage.
func (c *PagedKVCache) Run(layer, pos int) (k, v []float32) {
	blk := c.table[c.check(layer, pos)]
	if blk == nil {
		panic(fmt.Sprintf("engine: read of unwritten kv block at layer %d pos %d", layer, pos))
	}
	off, half := (pos%c.blockSize)*c.kvDim, c.blockSize*c.kvDim
	return blk.kv[off:half], blk.kv[half+off:]
}

// ExtendTo commits positions up to n (exclusive).
func (c *PagedKVCache) ExtendTo(n int) {
	if n < c.n || n > c.maxSeq {
		panic(fmt.Sprintf("engine: kv extend to %d outside [%d,%d]", n, c.n, c.maxSeq))
	}
	c.n = n
}

// Truncate discards committed positions beyond n. Blocks past the new
// length are released, except the partial boundary block.
func (c *PagedKVCache) Truncate(n int) {
	if n < 0 || n > c.n {
		panic(fmt.Sprintf("engine: truncate to %d outside [0,%d]", n, c.n))
	}
	c.n = n
	firstFree := (n + c.blockSize - 1) / c.blockSize
	for i := range c.table {
		if i%c.blocks >= firstFree {
			c.drop(i)
		}
	}
}

// AdoptPrefix aliases the first prefix positions of src into c, which
// must be empty and share src's geometry. Whole blocks are shared by
// reference (a later Put into one copies it first, so neither cache can
// corrupt the other); the partial boundary block, which the adopting
// sequence appends into next, is copied now. This is the functional analog
// of kvpool's Fork: a prefix-cache hit adopts the retained blocks instead
// of recomputing their prefill.
func (c *PagedKVCache) AdoptPrefix(src *PagedKVCache, prefix int) {
	if c.n != 0 || c.held(false)+c.held(true) != 0 {
		panic("engine: AdoptPrefix into a non-empty cache")
	}
	if c.layers != src.layers || c.kvDim != src.kvDim || c.blockSize != src.blockSize {
		panic("engine: AdoptPrefix across mismatched cache geometry")
	}
	if prefix <= 0 || prefix > src.n || prefix > c.maxSeq {
		panic(fmt.Sprintf("engine: adopt prefix %d outside (0,%d]", prefix, src.n))
	}
	whole, rem := prefix/c.blockSize, prefix%c.blockSize
	for l := 0; l < c.layers; l++ {
		for b := 0; b < whole+min(rem, 1); b++ {
			if blk := src.table[l*src.blocks+b]; blk != nil {
				blk.refs.Add(1)
				c.table[l*c.blocks+b] = blk
				if b == whole {
					c.writable(l*c.blocks + b)
				}
			}
		}
	}
	c.n = prefix
}
