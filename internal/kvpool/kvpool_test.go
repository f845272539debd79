package kvpool

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/tensor"
)

func newPool(t *testing.T, blocks int) *Pool {
	t.Helper()
	cfg := model.Tiny(model.OPT)
	tmp, err := New(cfg, tensor.BF16, 16, 1)
	if err == nil {
		t.Fatal("1-byte budget must fail")
		_ = tmp
	}
	per := (&Pool{cfg: cfg, dt: tensor.BF16, blockSize: 16}).BytesPerBlock()
	p, err := New(cfg, tensor.BF16, 16, per*int64(blocks))
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalBlocks() != blocks {
		t.Fatalf("pool sized %d blocks, want %d", p.TotalBlocks(), blocks)
	}
	return p
}

func TestPoolSizing(t *testing.T) {
	p := newPool(t, 8)
	if st := p.Stats(); st.FreeBlocks != 8 || st.EffectiveBlocks != 8 || st.Allocations != 0 {
		t.Error("fresh pool state wrong")
	}
	if _, err := New(model.Config{}, tensor.BF16, 16, 1<<20); err == nil {
		t.Error("invalid config must fail")
	}
	if _, err := New(model.Tiny(model.OPT), tensor.BF16, 0, 1<<20); err == nil {
		t.Error("zero block size must fail")
	}
}

func TestAppendAllocatesBlocks(t *testing.T) {
	p := newPool(t, 4)
	s := p.NewSequence()
	if err := s.Append(10); err != nil { // 10 tokens → 1 block of 16
		t.Fatal(err)
	}
	if len(s.Blocks()) != 1 || s.tokens != 10 || s.WastedSlots() != 6 {
		t.Errorf("state: blocks=%d tokens=%d wasted=%d", len(s.Blocks()), s.tokens, s.WastedSlots())
	}
	if err := s.Append(6); err != nil { // fills the block exactly
		t.Fatal(err)
	}
	if len(s.Blocks()) != 1 || s.WastedSlots() != 0 {
		t.Error("exact fill must not allocate")
	}
	if err := s.Append(1); err != nil {
		t.Fatal(err)
	}
	if len(s.Blocks()) != 2 {
		t.Error("17th token must open block 2")
	}
	if p.Stats().FreeBlocks != 2 {
		t.Errorf("pool free = %d, want 2", p.Stats().FreeBlocks)
	}
}

func TestExhaustionAtomic(t *testing.T) {
	p := newPool(t, 2)
	s := p.NewSequence()
	if err := s.Append(32); err != nil {
		t.Fatal(err)
	}
	s2 := p.NewSequence()
	if err := s2.Append(1); err != ErrOutOfBlocks {
		t.Fatalf("expected ErrOutOfBlocks, got %v", err)
	}
	// Failed append must not leak state.
	if s2.tokens != 0 || len(s2.Blocks()) != 0 {
		t.Error("failed append mutated sequence")
	}
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(1); err != nil {
		t.Errorf("append after free must succeed: %v", err)
	}
}

func TestFreeAndDoubleFree(t *testing.T) {
	p := newPool(t, 4)
	s := p.NewSequence()
	if err := s.Append(40); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 4 {
		t.Error("free must return all blocks")
	}
	if err := s.Free(); err == nil {
		t.Error("double free must fail")
	}
	if err := s.Append(1); err == nil {
		t.Error("append after free must fail")
	}
	if _, err := s.Fork(); err == nil {
		t.Error("fork after free must fail")
	}
}

func TestForkSharesBlocks(t *testing.T) {
	p := newPool(t, 8)
	parent := p.NewSequence()
	if err := parent.Append(32); err != nil { // 2 blocks
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 6 {
		t.Errorf("fork must not allocate: free=%d", p.Stats().FreeBlocks)
	}
	if child.tokens != 32 {
		t.Error("child must inherit length")
	}
	// Freeing the parent keeps shared blocks alive for the child.
	if err := parent.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 6 {
		t.Error("shared blocks must survive parent free")
	}
	if err := child.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 8 {
		t.Error("all blocks must return after both free")
	}
}

// TestPagedAdmitsMoreSequences is the package's headline result: under
// the same budget, paged allocation admits many more concurrent
// sequences than contiguous max-length reservations when actual lengths
// are short (the Fig 7 pressure scenario).
func TestPagedAdmitsMoreSequences(t *testing.T) {
	cfg := model.Tiny(model.OPT)
	const maxLen = 64                                  // model.Tiny MaxSeq
	budget := cfg.KVCacheBytes(maxLen, 8, tensor.BF16) // room for 8 full seqs
	contiguous := MaxContiguousSequences(cfg, tensor.BF16, budget, maxLen)
	if contiguous != 8 {
		t.Fatalf("contiguous baseline = %d, want 8", contiguous)
	}
	p, err := New(cfg, tensor.BF16, 16, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Actual requests use 16 of the 64 reserved tokens.
	admitted := 0
	for {
		s := p.NewSequence()
		if err := s.Append(16); err != nil {
			break
		}
		admitted++
	}
	if admitted < 3*contiguous {
		t.Errorf("paged admitted %d sequences, want ≥ %d (3× contiguous)",
			admitted, 3*contiguous)
	}
}

// TestBlockAccountingProperty: any interleaving of appends, forks and
// frees conserves blocks (free + Σ unique refs == total, no
// negative refcounts — enforced by panic on violation).
func TestBlockAccountingProperty(t *testing.T) {
	f := func(script []uint8) bool {
		p, err := New(model.Tiny(model.OPT), tensor.BF16, 16,
			(&Pool{cfg: model.Tiny(model.OPT), dt: tensor.BF16, blockSize: 16}).BytesPerBlock()*12)
		if err != nil {
			return false
		}
		var live []*Sequence
		for _, op := range script {
			switch op % 4 {
			case 0: // new + append
				s := p.NewSequence()
				if s.Append(int(op%37)) == nil {
					live = append(live, s)
				}
			case 1: // append to random live
				if len(live) > 0 {
					_ = live[int(op)%len(live)].Append(int(op % 19))
				}
			case 2: // fork
				if len(live) > 0 {
					if c, err := live[int(op)%len(live)].Fork(); err == nil {
						live = append(live, c)
					}
				}
			case 3: // free
				if len(live) == 0 {
					continue
				}
				i := int(op) % len(live)
				if live[i].Free() != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
		}
		for _, s := range live {
			if s.Free() != nil {
				return false
			}
		}
		return p.Stats().FreeBlocks == p.TotalBlocks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentForkCoW is the beam-search race drill, meaningful under
// -race: many goroutines concurrently fork the same prefilled root (an
// unmutated parent may be forked concurrently per the Sequence contract),
// then diverge on their private children — appending past the shared
// tail and freeing — while readers hammer the pool's stats. Block
// accounting must balance exactly when everyone is done.
func TestConcurrentForkCoW(t *testing.T) {
	const beams = 16
	p := newPool(t, 40)
	root := p.NewSequence()
	if err := root.Append(20); err != nil { // 2 blocks, tail half-full
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Stats()
			}
		}
	}()

	var wg sync.WaitGroup
	errCh := make(chan error, beams)
	for i := 0; i < beams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			child, err := root.Fork()
			if err != nil {
				errCh <- err
				return
			}
			// Growth past the shared tail block is private to this beam.
			if err := child.Append(16); err != nil {
				errCh <- err
				return
			}
			errCh <- child.Free()
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for i := 0; i < beams; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("beam %d: %v", i, err)
		}
	}
	if st := p.Stats(); st.Allocations != 2+beams {
		t.Errorf("allocations = %d, want %d (the root's two, one per beam)", st.Allocations, 2+beams)
	}
	if err := root.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != p.TotalBlocks() {
		t.Errorf("block accounting drifted: free=%d total=%d", p.Stats().FreeBlocks, p.TotalBlocks())
	}
}

func TestNegativeAppend(t *testing.T) {
	p := newPool(t, 2)
	s := p.NewSequence()
	if err := s.Append(-1); err == nil {
		t.Error("negative append must fail")
	}
}

// TestForkPreemptBeforeDecode is the regression test for the fork/free
// refcount audit: a forked child that is preempted-by-recompute before
// its first decode step frees only its shared references. The parent's blocks must survive with their counts
// restored, and once the parent frees too the pool must be exactly full.
func TestForkPreemptBeforeDecode(t *testing.T) {
	p := newPool(t, 8)
	parent := p.NewSequence()
	if err := parent.Append(40); err != nil { // 3 blocks
		t.Fatal(err)
	}
	child, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range parent.Blocks() {
		if got := p.BlockRef(id); got != 2 {
			t.Fatalf("block %d ref %d after fork, want 2", id, got)
		}
	}
	// Preemption-by-recompute: the child dies before any decode write.
	if err := child.Free(); err != nil {
		t.Fatal(err)
	}
	for _, id := range parent.Blocks() {
		if got := p.BlockRef(id); got != 1 {
			t.Fatalf("block %d ref %d after child preempt, want 1", id, got)
		}
	}
	if p.Stats().FreeBlocks != 5 {
		t.Fatalf("free=%d after child preempt, want 5", p.Stats().FreeBlocks)
	}
	if err := parent.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 8 {
		t.Fatalf("free=%d after both frees, want 8 (refcount leak)", p.Stats().FreeBlocks)
	}
}

// TestRetainAdoptRelease covers the prefix-cache surface: a third party
// retaining blocks keeps them alive after the donor frees; AdoptPrefix
// forks a sequence from retained blocks; releasing every holder returns
// the pool to full.
func TestRetainAdoptRelease(t *testing.T) {
	p := newPool(t, 8)
	donor := p.NewSequence()
	if err := donor.Append(32); err != nil { // 2 full blocks
		t.Fatal(err)
	}
	retained := append([]int(nil), donor.Blocks()...)
	p.RetainBlocks(retained)
	if err := donor.Free(); err != nil {
		t.Fatal(err)
	}
	for _, id := range retained {
		if got := p.BlockRef(id); got != 1 {
			t.Fatalf("retained block %d ref %d, want 1", id, got)
		}
	}
	adopted, err := p.AdoptPrefix(retained, 32)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.tokens != 32 || len(adopted.Blocks()) != 2 {
		t.Fatalf("adopted: tokens=%d blocks=%d", adopted.tokens, len(adopted.Blocks()))
	}
	if err := adopted.Append(20); err != nil { // grows fresh blocks only
		t.Fatal(err)
	}
	for _, id := range retained {
		if got := p.BlockRef(id); got != 2 {
			t.Fatalf("shared block %d ref %d, want 2", id, got)
		}
	}
	// Tree evicts while the adopted sequence is in flight: blocks live on.
	p.ReleaseBlockIDs(retained)
	for _, id := range retained {
		if got := p.BlockRef(id); got != 1 {
			t.Fatalf("block %d ref %d after tree release, want 1", id, got)
		}
	}
	if err := adopted.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().FreeBlocks != 8 {
		t.Fatalf("free=%d at end, want 8", p.Stats().FreeBlocks)
	}
	// A partial last block must be rejected — adopting it would let the
	// child write into shared storage without CoW.
	s := p.NewSequence()
	if err := s.Append(20); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AdoptPrefix(s.Blocks(), 20); err == nil {
		t.Error("adopting a partially-filled prefix must fail")
	}
	if err := s.Free(); err != nil {
		t.Fatal(err)
	}
}
