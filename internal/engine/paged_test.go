package engine

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// blockSizes are the two layouts every cache-level test runs over for a
// cache of maxSeq positions: one block per layer (the dense layout) and
// blocks of three positions, off the vector width.
func blockSizes(maxSeq int) []int { return []int{maxSeq, 3} }

// committed returns one layer's committed key and value rows, [Len, kvDim],
// gathered run by run.
func committed(c *PagedKVCache, layer int) (k, v []float32) {
	for t := 0; t < c.n; {
		rk, rv := c.Run(layer, t)
		n := min(len(rk)/c.kvDim, c.n-t)
		k = append(k, rk[:n*c.kvDim]...)
		v = append(v, rv[:n*c.kvDim]...)
		t += n
	}
	return k, v
}

// mustPanic fails t unless f panics.
func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestKVCacheBasics(t *testing.T) {
	for _, block := range blockSizes(8) {
		c := NewPagedKVCache(2, 4, 8, block)
		if c.Len() != 0 || c.Cap() != 8 || c.Bytes() != 0 {
			t.Fatalf("block %d: fresh cache state wrong", block)
		}
		k := []float32{1, 2, 3, 4}
		v := []float32{5, 6, 7, 8}
		c.Put(0, 0, k, v)
		c.Put(1, 0, v, k)
		c.ExtendTo(1)
		if c.Len() != 1 {
			t.Fatalf("block %d: extend failed", block)
		}
		got, _ := committed(c, 0)
		if len(got) != 4 || got[0] != 1 || got[3] != 4 {
			t.Errorf("block %d: keys(0) = %v", block, got)
		}
		if _, vals := committed(c, 1); vals[0] != 1 {
			t.Errorf("block %d: values(1) = %v", block, vals)
		}
		// One block of each layer, K and V, FP32.
		if want := int64(2 * block * 4 * 4 * 2); c.Bytes() != want {
			t.Errorf("block %d: Bytes = %d, want %d", block, c.Bytes(), want)
		}
	}
}

func TestKVCacheLayerIsolation(t *testing.T) {
	for _, block := range blockSizes(4) {
		c := NewPagedKVCache(3, 2, 4, block)
		for layer := 0; layer < 3; layer++ {
			for pos := 0; pos < 4; pos++ {
				x := float32(10*layer + pos)
				c.Put(layer, pos, []float32{x, x}, []float32{-x, -x})
			}
		}
		c.ExtendTo(4)
		for layer := 0; layer < 3; layer++ {
			k, v := committed(c, layer)
			for pos := 0; pos < 4; pos++ {
				if x := float32(10*layer + pos); k[2*pos] != x || v[2*pos] != -x {
					t.Errorf("block %d: layer %d pos %d holds %v/%v, want %v", block, layer, pos, k[2*pos], v[2*pos], x)
				}
			}
		}
	}
}

func TestKVCacheViews(t *testing.T) {
	for _, block := range blockSizes(4) {
		c := NewPagedKVCache(1, 2, 4, block)
		for p := 0; p < 3; p++ {
			c.Put(0, p, []float32{float32(p), 0}, []float32{0, float32(p)})
		}
		c.ExtendTo(2)
		if k, _ := committed(c, 0); len(k) != 4 { // 2 committed positions × dim 2
			t.Errorf("block %d: committed view length %d", block, len(k))
		}
		// Rows written but not yet committed are readable through Run.
		if _, v := c.Run(0, 2); v[1] != 2 {
			t.Errorf("block %d: uncommitted row content wrong: %v", block, v[:2])
		}
	}
}

// TestKVCachePanics covers the commit side (ExtendTo, Truncate);
// TestPagedPanics the storage side (Put, Run).
func TestKVCachePanics(t *testing.T) {
	for _, block := range blockSizes(4) {
		name := func(s string) string { return fmt.Sprintf("block %d: %s", block, s) }
		c := NewPagedKVCache(1, 2, 4, block)
		mustPanic(t, name("extend beyond cap"), func() { c.ExtendTo(5) })
		c.Put(0, 0, []float32{1, 2}, []float32{1, 2})
		c.ExtendTo(1)
		mustPanic(t, name("shrink"), func() { c.ExtendTo(0) })
		mustPanic(t, name("truncate beyond length"), func() { c.Truncate(2) })
		mustPanic(t, name("negative truncate"), func() { c.Truncate(-1) })
	}
}

// TestKVCacheRoundTripProperty: a layer filled position by position reads
// back, run by run, as exactly what was put.
func TestKVCacheRoundTripProperty(t *testing.T) {
	f := func(layerRaw uint8, vals [8]float32) bool {
		for _, block := range blockSizes(8) {
			c := NewPagedKVCache(4, 2, 8, block)
			layer := int(layerRaw % 4)
			for pos, a := range vals {
				c.Put(layer, pos, []float32{a, float32(pos)}, []float32{float32(pos), a})
			}
			c.ExtendTo(8)
			k, v := committed(c, layer)
			for pos, a := range vals {
				if k[2*pos] != a || k[2*pos+1] != float32(pos) || v[2*pos] != float32(pos) || v[2*pos+1] != a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPagedMatchesDense is functional PagedAttention's defining property:
// a session of small blocks must generate exactly the tokens a session of
// one block per layer (the dense layout) does, for both families
// (including GQA and RoPE).
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

// TestPagedLazyAllocation: a session allocates only the blocks it
// touches, so for a short sequence small blocks hold far less than one
// block per layer sized to the maximum context.
func TestPagedLazyAllocation(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	const maxSeq, blockSize = 64, 8
	paged := e.NewPagedSession(1, maxSeq, blockSize)
	oneBlock := e.NewSession(1, maxSeq)
	if paged.KVBytes() != 0 || oneBlock.KVBytes() != 0 {
		t.Error("an untouched session must hold zero bytes")
	}
	p := prompt(e, 10, 73) // 10 tokens → 2 blocks of 8
	for _, s := range []*Session{paged, oneBlock} {
		if _, err := e.Prefill(s, [][]int{p}); err != nil {
			t.Fatal(err)
		}
	}
	layers := e.Config().Layers
	if got := paged.caches[0].AllocatedBlocks(); got != 2*layers {
		t.Errorf("allocated %d block pairs, want %d", got, 2*layers)
	}
	if got := oneBlock.caches[0].AllocatedBlocks(); got != layers {
		t.Errorf("one-block session allocated %d block pairs, want %d", got, layers)
	}
	if paged.KVBytes() >= oneBlock.KVBytes() {
		t.Errorf("paged footprint %d must undercut one block per layer (%d) for a short sequence",
			paged.KVBytes(), oneBlock.KVBytes())
	}
}

// TestPagedChunkedPrefill: the paged store must compose with the other
// generation features.
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
	// One block per layer: the block holding the new length stays, and
	// Truncate(0) frees it.
	one := NewPagedKVCache(2, 4, 32, 32)
	one.Put(0, 0, kv, kv)
	one.Put(1, 0, kv, kv)
	one.ExtendTo(1)
	one.Truncate(1)
	if one.AllocatedBlocks() != 2 {
		t.Errorf("one-block cache: %d block pairs after Truncate(1), want 2", one.AllocatedBlocks())
	}
	one.Truncate(0)
	if one.AllocatedBlocks() != 0 || one.Bytes() != 0 {
		t.Errorf("one-block cache: %d block pairs after Truncate(0), want 0", one.AllocatedBlocks())
	}
}

// rowK returns the key row at one position.
func rowK(c *PagedKVCache, layer, pos int) []float32 {
	k, _ := c.Run(layer, pos)
	return k
}

func TestPagedPanics(t *testing.T) {
	mustPanic(t, "zero block size", func() { NewPagedKVCache(1, 2, 8, 0) })
	for _, block := range blockSizes(8) {
		name := func(s string) string { return fmt.Sprintf("block %d: %s", block, s) }
		c := NewPagedKVCache(1, 2, 8, block)
		mustPanic(t, name("bad dim"), func() { c.Put(0, 0, []float32{1}, []float32{1, 2}) })
		mustPanic(t, name("bad layer"), func() { c.Put(1, 0, []float32{1, 2}, []float32{1, 2}) })
		mustPanic(t, name("bad pos"), func() { c.Put(0, 8, []float32{1, 2}, []float32{1, 2}) })
		mustPanic(t, name("unwritten read"), func() { c.Run(0, 0) })
		mustPanic(t, name("bad read layer"), func() { c.Run(1, 0) })
	}
}

// TestPagedRoundTripProperty: any put is readable at the same position,
// in a run that ends at its block's end.
func TestPagedRoundTripProperty(t *testing.T) {
	f := func(layerRaw, posRaw uint8, a, b float32) bool {
		for _, block := range blockSizes(16) {
			c := NewPagedKVCache(3, 2, 16, block)
			layer, pos := int(layerRaw%3), int(posRaw%16)
			c.Put(layer, pos, []float32{a, b}, []float32{b, a})
			k, v := c.Run(layer, pos)
			run := block - pos%block // rows to the end of the block
			if len(k) != 2*run || len(v) != 2*run ||
				k[0] != a || k[1] != b || v[0] != b || v[1] != a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSpeculativeOnPagedStore: speculation's verify-then-commit must work
// on small blocks, where the verified rows span a block boundary.
func TestSpeculativeOnPagedStore(t *testing.T) {
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
	s.Commit(s.pos + 1) // accept one row
	if s.pos != 9 {
		t.Errorf("pos = %d, want 9", s.pos)
	}
}

// BenchmarkPagedPut times one Put of a bench-model row (kvDim 256: 1 KiB
// of keys and 1 KiB of values, SetBytes 2 KiB) into a 4-layer cache of 512
// positions, one block per layer as sessions lay it out:
//   - rewrite puts into rows of one block already written (warm lines);
//   - fresh walks positions through every layer's block as decode steps
//     do, and at the end of a walk hands the blocks back (Truncate(0)), so
//     the next walk takes them fresh from the free list, as a session
//     started after another's Release does;
//   - first-touch walks the same way, but every walk's blocks come from an
//     empty free list, as a new engine's first session's do: memory no
//     Put has written yet.
func BenchmarkPagedPut(b *testing.B) {
	const layers, kvDim, maxSeq = 4, 256, 512
	key, value := make([]float32, kvDim), make([]float32, kvDim)
	b.Run("rewrite", func(b *testing.B) {
		c := NewPagedKVCache(layers, kvDim, maxSeq, maxSeq)
		c.Put(0, 0, key, value)
		b.SetBytes(2 * kvDim * 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Put(0, i%4, key, value)
		}
	})
	walk := func(b *testing.B, restart func(*PagedKVCache) *PagedKVCache) {
		c := NewPagedKVCache(layers, kvDim, maxSeq, maxSeq)
		b.SetBytes(2 * kvDim * 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pos := i / layers % maxSeq
			if pos == 0 && i%layers == 0 {
				c = restart(c)
			}
			c.Put(i%layers, pos, key, value)
		}
	}
	b.Run("fresh", func(b *testing.B) {
		walk(b, func(c *PagedKVCache) *PagedKVCache { c.Truncate(0); return c })
	})
	b.Run("first-touch", func(b *testing.B) {
		walk(b, func(*PagedKVCache) *PagedKVCache {
			c := NewPagedKVCache(layers, kvDim, maxSeq, maxSeq)
			c.free = (&blockLists{m: map[int]*freeList[kvBlock]{}}).of(2 * maxSeq * kvDim)
			return c
		})
	})
}
