package engine

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// TestFlashMatchesStandardAttention: the online-softmax formulation must
// be numerically equivalent to standard softmax attention on the same
// weights (tokens identical, logits within float tolerance).
func TestFlashMatchesStandardAttention(t *testing.T) {
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		cfg := model.Tiny(f)
		w, err := NewWeights(cfg, 42, tensor.FP32)
		if err != nil {
			t.Fatal(err)
		}
		std, _ := New(w, Options{Kernel: KernelBlocked})
		flash, _ := New(w, Options{Kernel: KernelBlocked, FlashAttention: true})
		p := prompt(std, 14, 91)
		want, _, err := std.Generate([][]int{p}, 8)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := flash.Generate([][]int{p}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want[0] {
			if got[0][i] != want[0][i] {
				t.Fatalf("%s: flash attention diverged at token %d", f, i)
			}
		}
	}
}

// TestFlashLogitsClose: beyond argmax agreement, the raw hidden states
// must match the standard path to float32 rounding.
func TestFlashLogitsClose(t *testing.T) {
	cfg := model.Tiny(model.LLaMA2)
	w, err := NewWeights(cfg, 7, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	std, _ := New(w, Options{Kernel: KernelBlocked})
	flash, _ := New(w, Options{Kernel: KernelBlocked, FlashAttention: true})
	p := prompt(std, 12, 92)

	hidden := func(e *Engine) []float32 {
		return hiddenStates(e, p)[(len(p)-1)*cfg.DModel:]
	}
	a, b := hidden(std), hidden(flash)
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-4*(math.Abs(float64(a[i]))+1) {
			t.Fatalf("hidden[%d]: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFlashOverflowSafety: the online rescaling must survive extreme
// score magnitudes that would overflow a naive exp-sum.
func TestFlashOverflowSafety(t *testing.T) {
	cfg := model.Tiny(model.OPT)
	w, err := NewWeights(cfg, 3, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate the query/key projections to force |scores| into the
	// hundreds, where exp() without max-shifting overflows float32.
	r := rand.New(rand.NewSource(1))
	for l := range w.Layers {
		for i := range w.Layers[l].Wq.W {
			w.Layers[l].Wq.W[i] = float32(r.NormFloat64())
		}
		for i := range w.Layers[l].Wk.W {
			w.Layers[l].Wk.W[i] = float32(r.NormFloat64())
		}
	}
	flash, _ := New(w, Options{Kernel: KernelBlocked, FlashAttention: true})
	std, _ := New(w, Options{Kernel: KernelBlocked})
	p := prompt(flash, 10, 93)
	got, _, err := flash.Generate([][]int{p}, 5)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := std.Generate([][]int{p}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[0][i] != want[0][i] {
			t.Fatalf("extreme-score divergence at %d", i)
		}
	}
}

// TestFlashWithPagedStore: the streaming formulation composes with the
// paged KV store.
func TestFlashWithPagedStore(t *testing.T) {
	cfg := model.Tiny(model.LLaMA2)
	w, err := NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	flash, _ := New(w, Options{Kernel: KernelBlocked, FlashAttention: true})
	std, _ := New(w, Options{Kernel: KernelBlocked})
	p := prompt(std, 10, 94)

	want, _, err := std.Generate([][]int{p}, 6)
	if err != nil {
		t.Fatal(err)
	}
	s := flash.NewPagedSession(1, 32, 4)
	toks, err := flash.Prefill(s, [][]int{p})
	if err != nil {
		t.Fatal(err)
	}
	out := []int{toks[0]}
	for len(out) < 6 {
		toks, err = flash.DecodeStep(s, toks)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, toks[0])
	}
	for i := range want[0] {
		if out[i] != want[0][i] {
			t.Fatalf("flash+paged diverged at %d", i)
		}
	}
}
