package engine

import "fmt"

// PagedKVCache is the functional counterpart of vLLM's PagedAttention
// storage (and of the allocation policy package kvpool models at fleet
// scale): the KV cache is split into fixed-size blocks of positions,
// allocated lazily as the sequence grows. A request that reserves a long
// maximum context but generates little occupies only the blocks it
// actually touched — the property behind the Fig 7 capacity argument.
type PagedKVCache struct {
	layers    int
	kvDim     int
	blockSize int
	maxSeq    int
	n         int
	// k and v are [layer][block] → []float32 of blockSize×kvDim values,
	// nil until first touched.
	k, v      [][][]float32
	allocated int // blocks this cache owns across layers (K and V pairs)
	// shared marks blocks aliased from another cache by AdoptPrefix.
	// They are read-only until a Put copies them (copy-on-write) and are
	// not counted in allocated or Bytes — the source cache owns them.
	shared  [][]bool
	sharedN int
}

// NewPagedKVCache builds an empty paged cache.
func NewPagedKVCache(layers, kvDim, maxSeq, blockSize int) *PagedKVCache {
	if blockSize <= 0 {
		panic(fmt.Sprintf("engine: non-positive KV block size %d", blockSize))
	}
	blocks := (maxSeq + blockSize - 1) / blockSize
	c := &PagedKVCache{
		layers: layers, kvDim: kvDim, blockSize: blockSize, maxSeq: maxSeq,
		k:      make([][][]float32, layers),
		v:      make([][][]float32, layers),
		shared: make([][]bool, layers),
	}
	for l := 0; l < layers; l++ {
		c.k[l] = make([][]float32, blocks)
		c.v[l] = make([][]float32, blocks)
		c.shared[l] = make([]bool, blocks)
	}
	return c
}

// Len returns the committed length; Cap the maximum.
func (c *PagedKVCache) Len() int { return c.n }

// Cap returns the maximum number of positions.
func (c *PagedKVCache) Cap() int { return c.maxSeq }

// AllocatedBlocks returns how many (K,V) block pairs this cache owns.
func (c *PagedKVCache) AllocatedBlocks() int { return c.allocated }

// SharedBlocks returns how many (K,V) block pairs are currently aliased
// from another cache via AdoptPrefix and not yet copied on write.
func (c *PagedKVCache) SharedBlocks() int { return c.sharedN }

// Bytes returns the footprint of the allocated blocks (FP32 storage).
func (c *PagedKVCache) Bytes() int64 {
	return int64(c.allocated) * int64(c.blockSize*c.kvDim) * 4 * 2
}

func (c *PagedKVCache) check(layer, pos int) {
	if layer < 0 || layer >= c.layers {
		panic(fmt.Sprintf("engine: kv layer %d out of [0,%d)", layer, c.layers))
	}
	if pos < 0 || pos >= c.maxSeq {
		panic(fmt.Sprintf("engine: kv position %d out of [0,%d)", pos, c.maxSeq))
	}
}

// Put stores one position's key/value, allocating its block on first
// touch.
func (c *PagedKVCache) Put(layer, pos int, key, value []float32) {
	c.check(layer, pos)
	if len(key) != c.kvDim || len(value) != c.kvDim {
		panic(fmt.Sprintf("engine: kv put dim %d/%d, want %d", len(key), len(value), c.kvDim))
	}
	b := pos / c.blockSize
	if c.k[layer][b] == nil {
		c.k[layer][b] = make([]float32, c.blockSize*c.kvDim)
		c.v[layer][b] = make([]float32, c.blockSize*c.kvDim)
		c.allocated++
	} else if c.shared[layer][b] {
		// Copy-on-write: never mutate a block another cache owns.
		nk := make([]float32, len(c.k[layer][b]))
		nv := make([]float32, len(c.v[layer][b]))
		copy(nk, c.k[layer][b])
		copy(nv, c.v[layer][b])
		c.k[layer][b], c.v[layer][b] = nk, nv
		c.shared[layer][b] = false
		c.sharedN--
		c.allocated++
	}
	off := (pos % c.blockSize) * c.kvDim
	copy(c.k[layer][b][off:off+c.kvDim], key)
	copy(c.v[layer][b][off:off+c.kvDim], value)
}

// Run returns the key and value rows from pos to the end of its block.
// The block must have been written (reading an untouched block panics,
// catching misuse early).
func (c *PagedKVCache) Run(layer, pos int) (k, v []float32) {
	c.check(layer, pos)
	b := pos / c.blockSize
	if c.k[layer][b] == nil {
		panic(fmt.Sprintf("engine: read of unwritten kv block at layer %d pos %d", layer, pos))
	}
	off := (pos % c.blockSize) * c.kvDim
	return c.k[layer][b][off:], c.v[layer][b][off:]
}

// ExtendTo commits positions up to n (exclusive).
func (c *PagedKVCache) ExtendTo(n int) {
	if n < c.n || n > c.maxSeq {
		panic(fmt.Sprintf("engine: kv extend to %d outside [%d,%d]", n, c.n, c.maxSeq))
	}
	c.n = n
}

// Truncate discards committed positions beyond n. Blocks past the new
// length are released (freeing their memory), except the partial boundary
// block.
func (c *PagedKVCache) Truncate(n int) {
	if n < 0 || n > c.n {
		panic(fmt.Sprintf("engine: truncate to %d outside [0,%d]", n, c.n))
	}
	c.n = n
	firstFree := (n + c.blockSize - 1) / c.blockSize
	for l := 0; l < c.layers; l++ {
		for b := firstFree; b < len(c.k[l]); b++ {
			if c.k[l][b] != nil {
				c.k[l][b], c.v[l][b] = nil, nil
				if c.shared[l][b] {
					// Dropping an aliased block releases the reference,
					// not memory this cache owns.
					c.shared[l][b] = false
					c.sharedN--
				} else {
					c.allocated--
				}
			}
		}
	}
}

// AdoptPrefix aliases the first prefix positions of src into c, which
// must be empty and share src's geometry. Whole blocks are shared by
// reference and marked copy-on-write — a later Put into one copies it
// first, so neither cache can corrupt the other — while the partial
// boundary block is copied eagerly (the adopting sequence appends into
// it immediately). This is the functional analog of kvpool's Fork: a
// prefix-cache hit adopts the retained blocks instead of recomputing
// their prefill.
func (c *PagedKVCache) AdoptPrefix(src *PagedKVCache, prefix int) {
	if c.n != 0 || c.allocated != 0 || c.sharedN != 0 {
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
		for b := 0; b < whole; b++ {
			if src.k[l][b] == nil {
				continue
			}
			c.k[l][b], c.v[l][b] = src.k[l][b], src.v[l][b]
			c.shared[l][b] = true
			c.sharedN++
		}
		if rem > 0 && src.k[l][whole] != nil {
			nk := make([]float32, len(src.k[l][whole]))
			nv := make([]float32, len(src.v[l][whole]))
			copy(nk, src.k[l][whole])
			copy(nv, src.v[l][whole])
			c.k[l][whole], c.v[l][whole] = nk, nv
			c.allocated++
		}
	}
	c.n = prefix
}
