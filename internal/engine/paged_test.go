package engine

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// TestPagedMatchesDense is functional PagedAttention's defining property:
// a paged session must generate exactly the tokens a dense session does,
// for both families (including GQA and RoPE).
func TestPagedMatchesDense(t *testing.T) {
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		e := tinyEngine(t, f, KernelBlocked)
		prompts := [][]int{prompt(e, 11, 71), prompt(e, 11, 72)}

		dense := e.NewSession(2, 48)
		want1, err := e.Prefill(dense, prompts)
		if err != nil {
			t.Fatal(err)
		}
		paged := e.NewPagedSession(2, 48, 8)
		got1, err := e.Prefill(paged, prompts)
		if err != nil {
			t.Fatal(err)
		}
		for b := range want1 {
			if want1[b] != got1[b] {
				t.Fatalf("%s: paged prefill diverged on seq %d", f, b)
			}
		}
		wantToks, gotToks := want1, got1
		for step := 0; step < 6; step++ {
			wantToks, err = e.DecodeStep(dense, wantToks)
			if err != nil {
				t.Fatal(err)
			}
			gotToks, err = e.DecodeStep(paged, gotToks)
			if err != nil {
				t.Fatal(err)
			}
			for b := range wantToks {
				if wantToks[b] != gotToks[b] {
					t.Fatalf("%s: paged decode diverged at step %d seq %d", f, step, b)
				}
			}
		}
	}
}

// TestPagedLazyAllocation: a paged session must allocate only the blocks
// it touches — far less than a dense preallocation for short sequences.
func TestPagedLazyAllocation(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	const maxSeq, blockSize = 64, 8
	paged := e.NewPagedSession(1, maxSeq, blockSize)
	dense := e.NewSession(1, maxSeq)
	if paged.KVBytes() != 0 {
		t.Error("untouched paged session must hold zero bytes")
	}
	p := prompt(e, 10, 73) // 10 tokens → 2 blocks of 8
	if _, err := e.Prefill(paged, [][]int{p}); err != nil {
		t.Fatal(err)
	}
	c := paged.caches[0].(*PagedKVCache)
	wantBlocks := 2 * e.Config().Layers
	if c.AllocatedBlocks() != wantBlocks {
		t.Errorf("allocated %d block pairs, want %d", c.AllocatedBlocks(), wantBlocks)
	}
	if paged.KVBytes() >= dense.KVBytes() {
		t.Errorf("paged footprint %d must undercut dense %d for a short sequence",
			paged.KVBytes(), dense.KVBytes())
	}
}

// TestPagedChunkedPrefillAndSampling: the paged store must compose with
// the other generation features.
func TestPagedChunkedPrefill(t *testing.T) {
	e := tinyEngine(t, model.LLaMA2, KernelBlocked)
	p := prompt(e, 13, 74)
	dense := e.NewSession(1, 32)
	want, err := e.Prefill(dense, [][]int{p})
	if err != nil {
		t.Fatal(err)
	}
	paged := e.NewPagedSession(1, 32, 4)
	got, err := e.PrefillChunked(paged, [][]int{p}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want[0] != got[0] {
		t.Error("paged chunked prefill diverged")
	}
}

func TestPagedTruncateFreesBlocks(t *testing.T) {
	c := NewPagedKVCache(2, 4, 32, 8)
	kv := []float32{1, 2, 3, 4}
	for pos := 0; pos < 20; pos++ { // 3 blocks per layer
		c.Put(0, pos, kv, kv)
		c.Put(1, pos, kv, kv)
	}
	c.ExtendTo(20)
	if c.AllocatedBlocks() != 6 {
		t.Fatalf("allocated %d, want 6", c.AllocatedBlocks())
	}
	c.Truncate(9) // keeps blocks 0 and 1 (positions 0..15)
	if c.AllocatedBlocks() != 4 {
		t.Errorf("after truncate: %d block pairs, want 4", c.AllocatedBlocks())
	}
	if c.Len() != 9 {
		t.Error("length wrong after truncate")
	}
	// Surviving data intact.
	if rowK(c, 0, 8)[0] != 1 {
		t.Error("surviving block corrupted")
	}
}

// rowK returns the key row at one position.
func rowK(c KVStore, layer, pos int) []float32 {
	k, _ := c.Run(layer, pos)
	return k
}

func TestPagedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero block size", func() { NewPagedKVCache(1, 2, 8, 0) })
	c := NewPagedKVCache(1, 2, 8, 4)
	mustPanic("bad dim", func() { c.Put(0, 0, []float32{1}, []float32{1, 2}) })
	mustPanic("bad layer", func() { c.Put(1, 0, []float32{1, 2}, []float32{1, 2}) })
	mustPanic("bad pos", func() { c.Put(0, 8, []float32{1, 2}, []float32{1, 2}) })
	mustPanic("unwritten read", func() { c.Run(0, 0) })
	mustPanic("bad extend", func() { c.ExtendTo(9) })
	c.Put(0, 0, []float32{1, 2}, []float32{3, 4})
	c.ExtendTo(1)
	mustPanic("bad truncate", func() { c.Truncate(2) })
}

// TestPagedRoundTripProperty: any put is readable at the same position.
func TestPagedRoundTripProperty(t *testing.T) {
	f := func(layerRaw, posRaw uint8, a, b float32) bool {
		c := NewPagedKVCache(3, 2, 16, 4)
		layer, pos := int(layerRaw%3), int(posRaw%16)
		c.Put(layer, pos, []float32{a, b}, []float32{b, a})
		k, v := c.Run(layer, pos)
		run := c.blockSize - pos%c.blockSize // rows to the end of the block
		return len(k) == 2*run && len(v) == 2*run &&
			k[0] == a && k[1] == b && v[0] == b && v[1] == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSpeculativeWithPagedTarget: speculation's cache rollback must work
// on the paged store too.
func TestSpeculativeOnPagedStore(t *testing.T) {
	// SpeculativeGenerate builds its own dense sessions; verify instead
	// that verifyRows + rollback semantics hold on a paged store directly.
	e := tinyEngine(t, model.OPT, KernelBlocked)
	s := e.NewPagedSession(1, 32, 4)
	p := prompt(e, 8, 75)
	first, err := e.Prefill(s, [][]int{p})
	if err != nil {
		t.Fatal(err)
	}
	next, err := e.VerifyRows(s, []int{first[0], 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(next) != 3 {
		t.Fatal("verify row count wrong")
	}
	s.rollback(s.pos + 1) // accept one row
	if s.pos != 9 {
		t.Errorf("pos = %d, want 9", s.pos)
	}
}
