package engine

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func tinyEngine(t testing.TB, f model.Family, k Kernel) *Engine {
	t.Helper()
	return tinyEngineOpts(t, f, Options{Kernel: k})
}

func prompt(e *Engine, n int, seed int64) []int {
	g := workload.NewGenerator(seed)
	return g.Prompt(n, e.Config().Vocab)
}

func TestGenerateDeterministic(t *testing.T) {
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		e := tinyEngine(t, f, KernelBlocked)
		p := prompt(e, 12, 1)
		out1, _, err := e.Generate([][]int{p}, 8)
		if err != nil {
			t.Fatal(err)
		}
		out2, _, err := e.Generate([][]int{p}, 8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out1[0] {
			if out1[0][i] != out2[0][i] {
				t.Fatalf("%s: generation not deterministic at %d", f, i)
			}
		}
		if len(out1[0]) != 8 {
			t.Fatalf("%s: generated %d tokens, want 8", f, len(out1[0]))
		}
	}
}

// TestKVCacheConsistency is the engine's central invariant: decoding
// token-by-token with the KV cache must produce exactly the same tokens
// as prefilling the whole (prompt ++ generated) prefix from scratch.
func TestKVCacheConsistency(t *testing.T) {
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		e := tinyEngine(t, f, KernelBlocked)
		p := prompt(e, 10, 2)
		out, _, err := e.Generate([][]int{p}, 6)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute: prefill over prompt + generated[:n-1] must greedily
		// predict generated[n-1].
		for n := 1; n <= 6; n++ {
			full := append(append([]int{}, p...), out[0][:n-1]...)
			s := e.NewSession(1, len(full)+1)
			next, err := e.Prefill(s, [][]int{full})
			if err != nil {
				t.Fatal(err)
			}
			if next[0] != out[0][n-1] {
				t.Fatalf("%s: cached decode diverged at token %d: %d vs %d",
					f, n, out[0][n-1], next[0])
			}
		}
	}
}

// TestBatchMatchesSingle: each sequence of a batch must generate exactly
// what it would alone (batch must not cross-contaminate).
func TestBatchMatchesSingle(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	p1, p2 := prompt(e, 8, 3), prompt(e, 8, 4)
	batched, _, err := e.Generate([][]int{p1, p2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	solo1, _, err := e.Generate([][]int{p1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	solo2, _, err := e.Generate([][]int{p2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batched[0] {
		if batched[0][i] != solo1[0][i] || batched[1][i] != solo2[0][i] {
			t.Fatalf("batching changed outputs at step %d", i)
		}
	}
}

// TestKernelTiersAgree: every GEMM tier must generate the same greedy
// tokens as the blocked FP32 reference on a tiny model (BF16/INT8 paths
// perturb logits but argmax should be stable at this scale).
func TestKernelTiersAgree(t *testing.T) {
	ref := tinyEngine(t, model.LLaMA2, KernelBlocked)
	p := prompt(ref, 10, 5)
	want, _, err := ref.Generate([][]int{p}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Kernel{KernelParallel, KernelTileBF16, KernelTileBF16Parallel} {
		e := tinyEngine(t, model.LLaMA2, k)
		got, _, err := e.Generate([][]int{p}, 4)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		agree := 0
		for i := range want[0] {
			if got[0][i] == want[0][i] {
				agree++
			}
		}
		if agree < len(want[0])-1 {
			t.Errorf("%s agreed on %d/%d tokens", k, agree, len(want[0]))
		}
	}
}

// TestLogitsCloseAcrossPrecisions: BF16 tile logits must track FP32 logits
// within bf16 rounding error accumulated over the network.
func TestLogitsCloseAcrossPrecisions(t *testing.T) {
	cfg := model.Tiny(model.OPT)
	w, err := NewWeights(cfg, 7, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := New(w, Options{Kernel: KernelBlocked})
	bf, _ := New(w, Options{Kernel: KernelTileBF16})
	p := workload.NewGenerator(9).Prompt(6, cfg.Vocab)

	logitsOf := func(e *Engine) []float32 {
		s := e.NewSession(1, 16)
		if _, err := e.Prefill(s, [][]int{p}); err != nil {
			t.Fatal(err)
		}
		return append([]float32(nil), s.ar.logits[:cfg.Vocab]...)
	}
	a, b := logitsOf(fp), logitsOf(bf)
	var maxDiff, scale float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > maxDiff {
			maxDiff = d
		}
		if s := math.Abs(float64(a[i])); s > scale {
			scale = s
		}
	}
	if maxDiff > 0.05*(scale+1) {
		t.Errorf("bf16 logits diverge: max diff %g at scale %g", maxDiff, scale)
	}
}

func TestInt8PathRuns(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelInt8)
	out, _, err := e.Generate([][]int{prompt(e, 8, 11)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 4 {
		t.Fatal("int8 generation wrong length")
	}
	// INT8 without quantized shadows must be rejected.
	w, _ := NewWeights(model.Tiny(model.OPT), 1, tensor.FP32)
	if _, err := New(w, Options{Kernel: KernelInt8}); err == nil {
		t.Error("int8 engine without shadows must fail")
	}
}

// TestGQA: the LLaMA-2 tiny config uses grouped-query attention (4 heads,
// 2 KV heads); generation must work and the cache must be KVDim-sized.
func TestGQA(t *testing.T) {
	e := tinyEngine(t, model.LLaMA2, KernelBlocked)
	cfg := e.Config()
	if cfg.KVHeads >= cfg.Heads {
		t.Fatal("tiny llama must exercise GQA")
	}
	// The one block per layer is allocated by the first prefill.
	s := e.NewSession(1, 32)
	if _, err := e.Prefill(s, [][]int{prompt(e, 8, 13)}); err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(cfg.Layers) * 2 * int64(32*cfg.KVDim()) * 4
	if s.KVBytes() != wantBytes {
		t.Errorf("KV bytes = %d, want %d", s.KVBytes(), wantBytes)
	}
	if _, _, err := e.Generate([][]int{prompt(e, 8, 13)}, 4); err != nil {
		t.Fatal(err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	s := e.NewSession(2, 32)
	if s.Batch() != 2 || s.Pos() != 0 {
		t.Fatal("fresh session state wrong")
	}
	p := prompt(e, 4, 17)
	if _, err := e.DecodeStep(s, []int{1, 2}); err == nil {
		t.Error("decode before prefill must fail")
	}
	if _, err := e.Prefill(s, [][]int{p}); err == nil {
		t.Error("prompt count mismatch must fail")
	}
	toks, err := e.Prefill(s, [][]int{p, p})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prefill(s, [][]int{p, p}); err == nil {
		t.Error("double prefill must fail")
	}
	if _, err := e.DecodeStep(s, toks); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != 5 {
		t.Errorf("pos = %d, want 5", s.Pos())
	}
}

func TestErrorPaths(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	if _, _, err := e.Generate(nil, 4); err == nil {
		t.Error("no prompts must fail")
	}
	if _, _, err := e.Generate([][]int{{1, 2}}, 0); err == nil {
		t.Error("zero maxNew must fail")
	}
	if _, _, err := e.Generate([][]int{{-1}}, 2); err == nil {
		t.Error("out-of-vocab token must fail")
	}
	if _, _, err := e.Generate([][]int{{1, 2}, {1}}, 2); err == nil {
		t.Error("ragged prompts must fail")
	}
	s := e.NewSession(1, 8)
	if _, err := e.Prefill(s, [][]int{{}}); err == nil {
		t.Error("empty prompt must fail")
	}
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil weights must fail")
	}

	// A context past the session's capacity is an error before any state
	// is touched, in prefill and in decode.
	maxSeq := e.Config().MaxSeq
	if _, _, err := e.Generate([][]int{make([]int, maxSeq-2)}, 8); err == nil {
		t.Error("generating past the context capacity must fail")
	}
	s = e.NewSession(1, 8)
	if _, err := e.Prefill(s, [][]int{make([]int, 9)}); err == nil {
		t.Error("prefill longer than the session capacity must fail")
	}
	if _, err := e.PrefillChunked(s, [][]int{make([]int, 9)}, 4, nil); err == nil {
		t.Error("chunked prefill longer than the session capacity must fail")
	}
	if s.Pos() != 0 || s.caches[0].Len() != 0 {
		t.Errorf("rejected prefill moved the session to %d (cache %d)", s.Pos(), s.caches[0].Len())
	}
	toks, err := e.Prefill(s, [][]int{make([]int, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if toks, err = e.DecodeStep(s, toks); err != nil { // position 7: the last that fits
		t.Fatal(err)
	}
	if _, err := e.DecodeStep(s, toks); err == nil {
		t.Error("decode past the session capacity must fail")
	}
	if s.Pos() != 8 || s.caches[0].Len() != 8 {
		t.Errorf("rejected decode moved the session to %d (cache %d)", s.Pos(), s.caches[0].Len())
	}
}

// TestCapacityIsAnError: every pass that would run past its session's
// capacity, or past the model's maximum context, returns an error instead
// of writing out of bounds.
func TestCapacityIsAnError(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	maxSeq := e.Config().MaxSeq
	for name, call := range map[string]func() error{
		"VerifyRows past the session": func() error {
			s := e.NewSession(1, 8)
			if _, err := e.Prefill(s, [][]int{prompt(e, 6, 1)}); err != nil {
				t.Fatal(err)
			}
			_, err := e.VerifyRows(s, []int{1, 2, 3, 4, 5})
			return err
		},
		"Perplexity past MaxSeq": func() error {
			_, err := e.Perplexity(prompt(e, maxSeq+3, 2))
			return err
		},
		// A self-draft accepts every proposal, 5 tokens a cycle, so the
		// cycle at 51 tokens fits its draft steps in the 64 positions and
		// the verify pass is the first to overflow.
		"SpeculativeGenerate past MaxSeq": func() error {
			_, _, err := SpeculativeGenerate(e, e, prompt(e, 10, 3), maxSeq-4, SpecOptions{Lookahead: 4})
			return err
		},
	} {
		if call() == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestStats(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	_, st, err := e.Generate([][]int{prompt(e, 8, 19)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.TTFT() <= 0 || st.TPOT() <= 0 || st.TokensOut != 4 {
		t.Errorf("stats wrong: %+v", st)
	}
	if (Stats{TokensOut: 1}).TPOT() != 0 {
		t.Error("single-token TPOT must be 0")
	}
}

func TestKernelString(t *testing.T) {
	names := map[Kernel]string{
		KernelBlocked: "blocked-fp32", KernelParallel: "parallel-fp32",
		KernelTileBF16: "tile-bf16", KernelTileBF16Parallel: "parallel-tile-bf16",
		KernelInt8: "int8",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d: %q", k, k.String())
		}
	}
}

// BenchmarkChunkedPrefill times a 32-token prompt prefilled in 8-token
// chunks, then four decode steps.
func BenchmarkChunkedPrefill(b *testing.B) {
	e := tinyEngine(b, model.OPT, KernelBlocked)
	p := prompt(e, 32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.GenerateWith([][]int{p}, GenerateOptions{MaxNew: 4, PrefillChunk: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
