package engine

import "fmt"

// KVStore is the engine's per-sequence cache abstraction. Two
// implementations exist: KVCache (dense, preallocated to the maximum
// sequence length) and PagedKVCache (vLLM-style block-granular lazy
// allocation). The forward pass is implementation-agnostic.
type KVStore interface {
	// Put stores the key/value vectors for a position of one layer.
	Put(layer, pos int, key, value []float32)
	// ExtendTo commits positions up to n (exclusive).
	ExtendTo(n int)
	// Truncate discards committed positions beyond n.
	Truncate(n int)
	// Len returns the number of committed positions; Cap the maximum.
	Len() int
	Cap() int
	// Run returns the key and value rows of one layer from position pos to
	// the end of the contiguous storage that holds pos — the rest of a
	// dense cache, the rest of a paged block — row-major [n, kvDim], n ≥ 1.
	// Attention walks a context run by run instead of row by row. Rows
	// written by Put are readable even before ExtendTo commits them
	// (speculative verification depends on this); rows never written are
	// garbage the caller must not read.
	Run(layer, pos int) (k, v []float32)
	// Bytes returns the store's current memory footprint.
	Bytes() int64
}

// KVCache stores the key and value vectors of one sequence for all layers,
// the de-facto decode optimization whose footprint the paper analyzes
// (§II-B). Layout is [layer][position][kvDim], dense and preallocated to
// the maximum sequence length.
type KVCache struct {
	layers int
	kvDim  int
	maxSeq int
	n      int // tokens currently visible
	k, v   []float32
}

// NewKVCache allocates an empty cache.
func NewKVCache(layers, kvDim, maxSeq int) *KVCache {
	return &KVCache{
		layers: layers, kvDim: kvDim, maxSeq: maxSeq,
		k: make([]float32, layers*maxSeq*kvDim),
		v: make([]float32, layers*maxSeq*kvDim),
	}
}

// Len returns the number of committed positions.
func (c *KVCache) Len() int { return c.n }

// Cap returns the maximum number of positions.
func (c *KVCache) Cap() int { return c.maxSeq }

// Bytes returns the cache's allocated footprint in bytes (FP32 storage).
func (c *KVCache) Bytes() int64 {
	return int64(len(c.k)+len(c.v)) * 4
}

// Put stores the key/value vectors for a position of one layer. Positions
// count towards Len once ExtendTo commits them.
func (c *KVCache) Put(layer, pos int, key, value []float32) {
	if len(key) != c.kvDim || len(value) != c.kvDim {
		panic(fmt.Sprintf("engine: kv put dim %d/%d, want %d", len(key), len(value), c.kvDim))
	}
	if pos < 0 || pos >= c.maxSeq {
		panic(fmt.Sprintf("engine: kv position %d out of [0,%d)", pos, c.maxSeq))
	}
	if layer < 0 || layer >= c.layers {
		panic(fmt.Sprintf("engine: kv layer %d out of [0,%d)", layer, c.layers))
	}
	off := (layer*c.maxSeq + pos) * c.kvDim
	copy(c.k[off:off+c.kvDim], key)
	copy(c.v[off:off+c.kvDim], value)
}

// ExtendTo commits positions up to n (exclusive), making them visible.
func (c *KVCache) ExtendTo(n int) {
	if n < c.n || n > c.maxSeq {
		panic(fmt.Sprintf("engine: kv extend to %d outside [%d,%d]", n, c.n, c.maxSeq))
	}
	c.n = n
}

// Run returns the layer's key and value rows from pos to the cache's
// capacity (sharing storage).
func (c *KVCache) Run(layer, pos int) (k, v []float32) {
	lo, hi := (layer*c.maxSeq+pos)*c.kvDim, (layer+1)*c.maxSeq*c.kvDim
	return c.k[lo:hi], c.v[lo:hi]
}

// Truncate discards committed positions beyond n (speculative decoding's
// rollback on rejected proposals).
func (c *KVCache) Truncate(n int) {
	if n < 0 || n > c.n {
		panic(fmt.Sprintf("engine: truncate to %d outside [0,%d]", n, c.n))
	}
	c.n = n
}

// Reset empties the cache for reuse.
func (c *KVCache) Reset() { c.n = 0 }
