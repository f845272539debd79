package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

func specEngines(t *testing.T, draftSeed int64) (target, draft *Engine) {
	t.Helper()
	cfg := model.Tiny(model.OPT)
	tw, err := NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	target, err = New(tw, Options{Kernel: KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	// The draft is a one-layer model over the same vocabulary.
	dcfg := cfg
	dcfg.Layers = 1
	dw, err := NewWeights(dcfg, draftSeed, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	draft, err = New(dw, Options{Kernel: KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	return target, draft
}

// TestSpeculativeMatchesGreedy is speculation's defining invariant: the
// output must be bit-identical to the target's own greedy generation, no
// matter how good or bad the draft is, for every lookahead depth.
func TestSpeculativeMatchesGreedy(t *testing.T) {
	target, draft := specEngines(t, 7)
	p := prompt(target, 10, 41)
	want, _, err := target.Generate([][]int{p}, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 5, 8} {
		got, st, err := SpeculativeGenerate(target, draft, p, 12, SpecOptions{Lookahead: k})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(got) != 12 {
			t.Fatalf("k=%d: got %d tokens", k, len(got))
		}
		for i := range want[0] {
			if got[i] != want[0][i] {
				t.Fatalf("k=%d: diverged from greedy at token %d (%d vs %d)",
					k, i, got[i], want[0][i])
			}
		}
		if st.TargetPasses <= 0 || st.Proposed <= 0 {
			t.Errorf("k=%d: degenerate stats %+v", k, st)
		}
	}
}

// TestSpeculativeSelfDraftAcceptsEverything: drafting with the target
// itself must accept every proposal and cut target passes by ~k.
func TestSpeculativeSelfDraftAcceptsEverything(t *testing.T) {
	cfg := model.Tiny(model.OPT)
	w, err := NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := New(w, Options{Kernel: KernelBlocked})
	draft, _ := New(w, Options{Kernel: KernelBlocked})
	p := prompt(target, 8, 43)
	const maxNew, k = 13, 4
	out, st, err := SpeculativeGenerate(target, draft, p, maxNew, SpecOptions{Lookahead: k})
	if err != nil {
		t.Fatal(err)
	}
	if st.AcceptanceRate() != 1.0 {
		t.Errorf("self-draft acceptance = %.2f, want 1.0", st.AcceptanceRate())
	}
	// Each verify pass yields k+1 tokens: passes ≈ 1 (prefill) + ceil((maxNew-1)/(k+1)).
	if st.TargetPasses >= maxNew {
		t.Errorf("speculation used %d target passes for %d tokens", st.TargetPasses, maxNew)
	}
	want, _, err := target.Generate([][]int{p}, maxNew)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if out[i] != want[0][i] {
			t.Fatalf("self-draft diverged at %d", i)
		}
	}
}

// TestSpeculativePartialAcceptance: a draft steered to propose the
// target's greedy token everywhere but one fixed index per cycle is
// accepted exactly up to that index, and the output is still the
// target's greedy output.
func TestSpeculativePartialAcceptance(t *testing.T) {
	target, draft := specEngines(t, 999)
	p := prompt(target, 12, 44)
	const maxNew, k, wrongAt = 16, 4, 2
	want, _, err := target.Generate([][]int{p}, maxNew)
	if err != nil {
		t.Fatal(err)
	}
	ref := want[0]
	steer := func(outLen, i, _ int) int {
		if i == wrongAt {
			return (ref[outLen+i] + 1) % target.Config().Vocab
		}
		return ref[outLen+i]
	}
	got, st, err := SpeculativeGenerate(target, draft, p, maxNew, SpecOptions{Lookahead: k, Steer: steer})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ref) {
		t.Fatalf("steered speculation %v, greedy %v", got, ref)
	}
	// Each cycle proposes min(k, tokens left) and keeps the proposals
	// before wrongAt (all of them when the cycle is shorter), then the
	// target's own token.
	var proposed, accepted int
	for n := 1; n < maxNew; {
		la := min(k, maxNew-n)
		acc := min(wrongAt, la)
		proposed, accepted, n = proposed+la, accepted+acc, n+acc+1
	}
	if st.Proposed != proposed || st.Accepted != accepted {
		t.Errorf("proposed %d, accepted %d; want %d, %d", st.Proposed, st.Accepted, proposed, accepted)
	}
	if a := st.AcceptanceRate(); a <= 0 || a >= 1 {
		t.Errorf("acceptance %.2f, want strictly between 0 and 1", a)
	}
}

// TestSpeculativeLlama: the invariant must also hold with RoPE attention
// (positions matter more).
func TestSpeculativeLlama(t *testing.T) {
	cfg := model.Tiny(model.LLaMA2)
	tw, _ := NewWeights(cfg, 42, tensor.FP32)
	target, _ := New(tw, Options{Kernel: KernelBlocked})
	dcfg := cfg
	dcfg.Layers = 1
	dw, _ := NewWeights(dcfg, 5, tensor.FP32)
	draft, _ := New(dw, Options{Kernel: KernelBlocked})
	p := prompt(target, 9, 45)
	want, _, err := target.Generate([][]int{p}, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := SpeculativeGenerate(target, draft, p, 10, SpecOptions{Lookahead: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[i] != want[0][i] {
			t.Fatalf("llama speculation diverged at %d", i)
		}
	}
}

func TestSpeculativeValidation(t *testing.T) {
	target, draft := specEngines(t, 7)
	p := prompt(target, 4, 46)
	if _, _, err := SpeculativeGenerate(target, draft, p, 0, SpecOptions{Lookahead: 2}); err == nil {
		t.Error("zero maxNew must fail")
	}
	if _, _, err := SpeculativeGenerate(target, draft, p, 4, SpecOptions{Lookahead: 0}); err == nil {
		t.Error("zero lookahead must fail")
	}
	other := model.Tiny(model.LLaMA2)
	other.Vocab = 53 // genuinely different vocabulary
	ow, _ := NewWeights(other, 1, tensor.FP32)
	oe, _ := New(ow, Options{Kernel: KernelBlocked})
	if _, _, err := SpeculativeGenerate(target, oe, p, 4, SpecOptions{Lookahead: 2}); err == nil {
		t.Error("vocab mismatch must fail")
	}
}

// TestKVCacheTruncate: speculation's rollback keeps the rows below the
// new length, and re-extending over them finds them intact.
func TestKVCacheTruncate(t *testing.T) {
	for _, block := range blockSizes(4) {
		c := NewPagedKVCache(1, 2, 4, block)
		c.Put(0, 0, []float32{1, 2}, []float32{3, 4})
		c.Put(0, 1, []float32{5, 6}, []float32{7, 8})
		c.ExtendTo(2)
		c.Truncate(1)
		if c.Len() != 1 {
			t.Errorf("block %d: truncate failed", block)
		}
		c.ExtendTo(2) // re-extend over retained data
		if k, _ := committed(c, 0); k[2] != 5 {
			t.Errorf("block %d: data must survive truncate+extend", block)
		}
		mustPanic(t, fmt.Sprintf("block %d: truncate beyond length", block), func() { c.Truncate(3) })
	}
}
