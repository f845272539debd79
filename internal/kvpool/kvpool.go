// Package kvpool is a paged KV-cache allocator in the style of vLLM's
// PagedAttention (related work §VII-C). The paper shows KV-cache demand
// growing linearly with batch × sequence length until it dominates memory
// (§III, Fig 7); contiguous per-sequence preallocation wastes most of that
// reservation on requests that finish early. Paging the cache into fixed
// blocks allocated on demand — with reference-counted sharing of common
// prefixes — lets a memory budget admit far more concurrent sequences.
//
// The pool holds no KV data: it is the block accounting the live
// gateway's governor (internal/govern) and the simulator charge against.
// The engine's PagedKVCache owns the real pages and their copy-on-write.
package kvpool

import (
	"fmt"
	"sync"

	"repro/internal/model"
	"repro/internal/tensor"
)

// Pool manages a fixed budget of KV-cache blocks. A block holds BlockSize
// token positions of K and V for every layer of the model. Blocks are
// reference-counted so sequences can share prefix blocks.
//
// A Pool is safe for concurrent use: sequences owned by different
// goroutines may allocate, fork and free against the same pool (the live
// gateway's lanes and beam-search workers do exactly that). An individual
// Sequence remains single-owner — two goroutines must not Append to or
// Free the same Sequence concurrently.
type Pool struct {
	cfg       model.Config
	dt        tensor.DType
	blockSize int
	total     int

	mu       sync.Mutex
	limit    int   // usable-block cap; < total under memory pressure
	refs     []int // refcount per block; 0 = free
	freeList []int

	allocs int // statistics
}

// BytesPerBlock returns the memory one block occupies.
func (p *Pool) BytesPerBlock() int64 {
	return p.cfg.KVBytesPerTokenPerLayer(p.dt) * int64(p.cfg.Layers) * int64(p.blockSize)
}

// BlockSize returns the block granularity in token positions.
func (p *Pool) BlockSize() int { return p.blockSize }

// New sizes a pool for a model under a memory budget.
func New(cfg model.Config, dt tensor.DType, blockSize int, budgetBytes int64) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("kvpool: non-positive block size %d", blockSize)
	}
	p := &Pool{cfg: cfg, dt: dt, blockSize: blockSize}
	per := p.BytesPerBlock()
	if per <= 0 || budgetBytes < per {
		return nil, fmt.Errorf("kvpool: budget %d below one block (%d)", budgetBytes, per)
	}
	p.total = int(budgetBytes / per)
	p.limit = p.total
	p.refs = make([]int, p.total)
	p.freeList = make([]int, p.total)
	for i := range p.freeList {
		p.freeList[p.total-1-i] = i // allocate low block IDs first
	}
	return p, nil
}

// TotalBlocks returns the pool capacity in blocks.
func (p *Pool) TotalBlocks() int { return p.total }

// SetEffectiveCapacity caps the usable blocks at n, clamped to [0, total].
// Blocks already allocated beyond the cap stay allocated; new allocations
// fail with ErrOutOfBlocks until usage falls under the cap again. This is
// the mem-pressure fault injector's hook: shrinking the effective pool at
// runtime models a co-tenant eating the platform's memory.
func (p *Pool) SetEffectiveCapacity(n int) {
	if n < 0 {
		n = 0
	}
	if n > p.total {
		n = p.total
	}
	p.mu.Lock()
	p.limit = n
	p.mu.Unlock()
}

// availableLocked returns how many blocks may be allocated right now:
// the free list, further capped by the effective-capacity limit.
func (p *Pool) availableLocked() int {
	used := p.total - len(p.freeList)
	avail := p.limit - used
	if avail < 0 {
		avail = 0
	}
	if avail > len(p.freeList) {
		avail = len(p.freeList)
	}
	return avail
}

func (p *Pool) allocBlockLocked() (int, error) {
	if p.availableLocked() == 0 {
		return 0, ErrOutOfBlocks
	}
	id := p.freeList[len(p.freeList)-1]
	p.freeList = p.freeList[:len(p.freeList)-1]
	p.refs[id] = 1
	p.allocs++
	return id, nil
}

func (p *Pool) releaseBlockLocked(id int) {
	p.refs[id]--
	if p.refs[id] < 0 {
		panic(fmt.Sprintf("kvpool: double free of block %d", id))
	}
	if p.refs[id] == 0 {
		p.freeList = append(p.freeList, id)
	}
}

// ErrOutOfBlocks reports pool exhaustion — the serving layer's signal to
// queue, preempt, or swap (vLLM's recompute/swap policies).
var ErrOutOfBlocks = fmt.Errorf("kvpool: out of blocks")

// Sequence is one request's block table.
type Sequence struct {
	pool   *Pool
	blocks []int
	tokens int
	freed  bool
}

// NewSequence starts an empty sequence.
func (p *Pool) NewSequence() *Sequence {
	return &Sequence{pool: p}
}

// Append reserves capacity for n more token positions, allocating blocks
// as needed. On exhaustion it returns ErrOutOfBlocks with the sequence
// unchanged.
func (s *Sequence) Append(n int) error {
	if n < 0 {
		return fmt.Errorf("kvpool: negative append %d", n)
	}
	p := s.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.freed {
		return fmt.Errorf("kvpool: append to freed sequence")
	}
	needTokens := s.tokens + n
	needBlocks := (needTokens + p.blockSize - 1) / p.blockSize
	add := needBlocks - len(s.blocks)
	if add > p.availableLocked() {
		return ErrOutOfBlocks
	}
	for i := 0; i < add; i++ {
		id, err := p.allocBlockLocked()
		if err != nil {
			return err // unreachable given the precheck, kept for safety
		}
		s.blocks = append(s.blocks, id)
	}
	s.tokens = needTokens
	return nil
}

// Blocks returns the sequence's block table (not to be modified).
func (s *Sequence) Blocks() []int { return s.blocks }

// WastedSlots returns reserved-but-unused token positions in the last
// block — paged allocation's only internal fragmentation.
func (s *Sequence) WastedSlots() int {
	s.pool.mu.Lock()
	defer s.pool.mu.Unlock()
	if len(s.blocks) == 0 {
		return 0
	}
	return len(s.blocks)*s.pool.blockSize - s.tokens
}

// Fork creates a child sharing every block (prefix sharing for beam
// search or common system prompts). The child starts at the same token
// length; appends allocate fresh blocks once the shared ones are full
// (the pool counts capacity, not contents). Multiple
// goroutines may Fork the same parent concurrently as long as none of
// them mutates it at the same time.
func (s *Sequence) Fork() (*Sequence, error) {
	p := s.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.freed {
		return nil, fmt.Errorf("kvpool: fork of freed sequence")
	}
	for _, id := range s.blocks {
		p.refs[id]++
	}
	child := &Sequence{
		pool:   p,
		blocks: append([]int(nil), s.blocks...),
		tokens: s.tokens,
	}
	return child, nil
}

// RetainBlocks takes an extra reference on each listed block so a holder
// other than a Sequence (the prefix cache's radix tree) can keep them
// alive after the donating sequence frees. Every block must currently be
// allocated; retaining a free block is a programming error and panics,
// matching the double-free guard.
func (p *Pool) RetainBlocks(ids []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		if id < 0 || id >= p.total || p.refs[id] == 0 {
			panic(fmt.Sprintf("kvpool: retain of free block %d", id))
		}
		p.refs[id]++
	}
}

// ReleaseBlockIDs drops one reference from each listed block (the prefix
// cache's eviction path). Blocks whose count reaches zero return to the
// free list. Releasing an unallocated block panics, like double frees.
func (p *Pool) ReleaseBlockIDs(ids []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range ids {
		p.releaseBlockLocked(id)
	}
}

// BlockRef reports the current reference count of a block (tests and the
// cache's accounting checks).
func (p *Pool) BlockRef(id int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id < 0 || id >= p.total {
		return 0
	}
	return p.refs[id]
}

// AdoptPrefix builds a new sequence that shares the given prefix blocks,
// taking one reference on each — a cross-request Fork for the prefix
// cache, where the donor sequence may already be gone and only the radix
// tree keeps the blocks alive. tokens is the prefix length the adopted
// blocks cover; it must fill the listed blocks exactly, so subsequent
// Appends always open fresh blocks instead of growing into a shared one.
// Every listed block must be live.
func (p *Pool) AdoptPrefix(blocks []int, tokens int) (*Sequence, error) {
	if tokens < 0 || tokens > len(blocks)*p.blockSize {
		return nil, fmt.Errorf("kvpool: adopt of %d tokens over %d blocks", tokens, len(blocks))
	}
	if tokens != len(blocks)*p.blockSize {
		return nil, fmt.Errorf("kvpool: adopted prefix must fill its blocks (%d tokens, %d blocks of %d)",
			tokens, len(blocks), p.blockSize)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, id := range blocks {
		if id < 0 || id >= p.total || p.refs[id] == 0 {
			panic(fmt.Sprintf("kvpool: adopt of free block %d", id))
		}
	}
	for _, id := range blocks {
		p.refs[id]++
	}
	return &Sequence{
		pool:   p,
		blocks: append([]int(nil), blocks...),
		tokens: tokens,
	}, nil
}

// Free releases every block reference. Double frees are rejected.
//
// Audit note (fork/preempt interaction): a forked or adopted child that
// is preempted-by-recompute before its first decode step frees here
// holding only shared references. releaseBlockLocked only returns a block to
// the free list when its count reaches zero, so the parent (or the
// prefix tree's retained reference) keeps the block alive and the
// child's early death leaks nothing — see TestForkPreemptBeforeDecode.
func (s *Sequence) Free() error {
	p := s.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if s.freed {
		return fmt.Errorf("kvpool: double free of sequence")
	}
	for _, id := range s.blocks {
		p.releaseBlockLocked(id)
	}
	s.blocks = nil
	s.freed = true
	return nil
}

// Stats summarizes pool activity.
type Stats struct {
	TotalBlocks, FreeBlocks int
	EffectiveBlocks         int
	Allocations             int
}

// Stats returns a snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		TotalBlocks: p.total, FreeBlocks: len(p.freeList),
		EffectiveBlocks: p.limit, Allocations: p.allocs,
	}
}

// MaxContiguousSequences returns how many sequences of maxLen tokens a
// budget admits when each sequence preallocates its full contiguous
// reservation — the baseline the paper's Fig 7 pressure implies.
func MaxContiguousSequences(cfg model.Config, dt tensor.DType, budgetBytes int64, maxLen int) int {
	per := cfg.KVCacheBytes(maxLen, 1, dt)
	if per <= 0 {
		return 0
	}
	return int(budgetBytes / per)
}
