package engine

// fork_test.go proves the prefix-cache correctness contract at the
// functional layer: serving a prompt by forking a session that already
// prefilled a shared prefix must produce tokens bit-identical to a cold
// prefill of the whole prompt — on every GEMM tier, since the serving
// stack treats the cache as transparent regardless of numeric path.

import (
	"testing"

	"repro/internal/model"
)

const forkBlock = 8 // KV block size: prefix 20 = 2 whole blocks + 4 partial

// generateVia prefills with fill and greedily decodes steps tokens.
func generateVia(t *testing.T, e *Engine, s *Session, steps int,
	fill func() ([]int, error)) []int {
	t.Helper()
	next, err := fill()
	if err != nil {
		t.Fatal(err)
	}
	out := []int{next[0]}
	for i := 1; i < steps; i++ {
		next, err = e.DecodeStep(s, next)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, next[0])
	}
	return out
}

func TestForkedPrefixBitIdenticalAcrossKernels(t *testing.T) {
	const (
		promptLen = 28
		prefixLen = 20
		steps     = 8
	)
	for _, k := range allKernelTiers {
		t.Run(k.String(), func(t *testing.T) {
			e := tinyEngine(t, model.LLaMA2, k)
			p := prompt(e, promptLen, 11)
			maxSeq := promptLen + steps

			cold := e.NewPagedSession(1, maxSeq, forkBlock)
			want := generateVia(t, e, cold, steps, func() ([]int, error) {
				return e.Prefill(cold, [][]int{p})
			})

			// The "cache": one session that prefilled only the shared prefix.
			parent := e.NewPagedSession(1, maxSeq, forkBlock)
			if _, err := e.Prefill(parent, [][]int{p[:prefixLen]}); err != nil {
				t.Fatal(err)
			}

			// Two concurrent hits fork it; each must reproduce the cold
			// tokens exactly, and neither may disturb the other or the
			// parent (copy-on-write isolation).
			for hit := 0; hit < 2; hit++ {
				fork, err := e.ForkPagedSession(parent, prefixLen)
				if err != nil {
					t.Fatal(err)
				}
				pc := fork.caches[0].(*PagedKVCache)
				if pc.SharedBlocks() == 0 {
					t.Fatal("fork adopted no shared blocks — it is a cold prefill in disguise")
				}
				if owned, cold := pc.AllocatedBlocks(), cold.caches[0].(*PagedKVCache).AllocatedBlocks(); owned >= cold {
					t.Errorf("fork owns %d blocks, no fewer than the cold session's %d", owned, cold)
				}
				got := generateVia(t, e, fork, steps, func() ([]int, error) {
					return e.PrefillResume(fork, [][]int{p})
				})
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("hit %d diverged from cold prefill at token %d: got %v want %v",
							hit, i, got, want)
					}
				}
			}

			// The parent is still positioned at the prefix and can decode on.
			if parent.Pos() != prefixLen {
				t.Fatalf("parent position %d mutated by forks, want %d", parent.Pos(), prefixLen)
			}
			if _, err := e.DecodeStep(parent, []int{p[prefixLen]}); err != nil {
				t.Fatalf("parent unusable after forks: %v", err)
			}
		})
	}
}

// TestAdoptPrefixCopyOnWrite pins the block-level mechanics: adopted
// whole blocks alias the parent until written, the boundary block is
// copied eagerly, and a write to a shared block copies it without the
// parent observing the new values.
func TestAdoptPrefixCopyOnWrite(t *testing.T) {
	const (
		layers = 2
		kvDim  = 4
		maxSeq = 64
		block  = 8
	)
	src := NewPagedKVCache(layers, kvDim, maxSeq, block)
	row := func(v float32) []float32 {
		r := make([]float32, kvDim)
		for i := range r {
			r[i] = v
		}
		return r
	}
	for pos := 0; pos < 20; pos++ {
		for l := 0; l < layers; l++ {
			src.Put(l, pos, row(float32(pos)), row(float32(-pos)))
		}
	}
	src.ExtendTo(20)

	c := NewPagedKVCache(layers, kvDim, maxSeq, block)
	c.AdoptPrefix(src, 20)
	if c.Len() != 20 {
		t.Fatalf("adopted length %d, want 20", c.Len())
	}
	// 2 whole blocks per layer aliased, the 4-position boundary copied.
	if c.SharedBlocks() != 2*layers || c.AllocatedBlocks() != layers {
		t.Fatalf("shared=%d owned=%d, want %d and %d",
			c.SharedBlocks(), c.AllocatedBlocks(), 2*layers, layers)
	}
	if &rowK(c, 0, 3)[0] != &rowK(src, 0, 3)[0] {
		t.Error("whole prefix block not aliased")
	}
	if &rowK(c, 0, 17)[0] == &rowK(src, 0, 17)[0] {
		t.Error("boundary block aliased, want an eager copy")
	}

	// Writing into an aliased block must copy it first.
	c.Put(0, 2, row(99), row(99))
	if c.SharedBlocks() != 2*layers-1 {
		t.Errorf("shared count %d after copy-on-write, want %d", c.SharedBlocks(), 2*layers-1)
	}
	if got := rowK(src, 0, 2)[0]; got != 2 {
		t.Errorf("parent row mutated through the fork: %v", got)
	}
	if got := rowK(c, 0, 2)[0]; got != 99 {
		t.Errorf("fork write lost: %v", got)
	}

	// Truncating away aliased blocks releases references, not owned memory.
	c.Truncate(0)
	if c.SharedBlocks() != 0 {
		t.Errorf("%d shared refs survive Truncate(0)", c.SharedBlocks())
	}
	if c.AllocatedBlocks() != 0 {
		t.Errorf("%d owned blocks survive Truncate(0)", c.AllocatedBlocks())
	}
}
