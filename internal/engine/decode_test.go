package engine

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
)

// tinyEngineOpts builds an engine over Tiny weights with full Options
// control.
func tinyEngineOpts(t testing.TB, f model.Family, opts Options) *Engine {
	t.Helper()
	cfg := model.Tiny(f)
	w, err := NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func generateTokens(t *testing.T, e *Engine, batch, promptLen, maxNew int) [][]int {
	t.Helper()
	prompts := make([][]int, batch)
	for b := range prompts {
		prompts[b] = prompt(e, promptLen, int64(100+b))
	}
	out, _, err := e.Generate(prompts, maxNew)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// passTrace is what one prefill + a few decode steps leave behind for one
// sequence: the logits after the prefill and after the last step, and the
// sampled ids. Two ways of running the same sequence must agree on every
// bit of it.
type passTrace struct {
	prefill, last []float32
	tokens        []int
}

// tracePass fills s with fill, decodes `steps` more tokens, and returns
// one trace per sequence.
func tracePass(t *testing.T, e *Engine, s *Session, steps int, fill func() ([]int, error)) []passTrace {
	t.Helper()
	vocab := e.cfg.Vocab
	toks, err := fill()
	if err != nil {
		t.Fatal(err)
	}
	tr := make([]passTrace, s.Batch())
	for b := range tr {
		tr[b].prefill = append([]float32(nil), s.ar.logits[b*vocab:(b+1)*vocab]...)
		tr[b].tokens = []int{toks[b]}
	}
	for i := 0; i < steps; i++ {
		if toks, err = e.DecodeStep(s, toks); err != nil {
			t.Fatal(err)
		}
		for b := range tr {
			tr[b].tokens = append(tr[b].tokens, toks[b])
		}
	}
	for b := range tr {
		tr[b].last = append([]float32(nil), s.ar.logits[b*vocab:(b+1)*vocab]...)
	}
	return tr
}

func (a passTrace) diff(b passTrace) string {
	for i := range a.tokens {
		if a.tokens[i] != b.tokens[i] {
			return fmt.Sprintf("token %d is %d, want %d", i, b.tokens[i], a.tokens[i])
		}
	}
	for name, pair := range map[string][2][]float32{"prefill": {a.prefill, b.prefill}, "last-step": {a.last, b.last}} {
		for i := range pair[0] {
			if math.Float32bits(pair[0][i]) != math.Float32bits(pair[1][i]) {
				return fmt.Sprintf("%s logit %d is %x, want %x", name, i,
					math.Float32bits(pair[1][i]), math.Float32bits(pair[0][i]))
			}
		}
	}
	return ""
}

// TestFusedDecodeMatchesPerSeq is the engine-level invariant, over kernel
// tier × family × KV block size (one block per layer, or 5 positions):
// however a sequence is run — alone, stacked with B−1 others in one fused
// forward pass, prefilled in chunks, or resumed behind an adopted prefix —
// it produces the same logits bits and the same tokens, for B ∈ {1,3,4} ×
// prompt rows ∈ {1,5,32}. The reference is the same engine running the
// sequence by itself (B = 1, one block per layer, one prefill pass); what
// those bits are is pinned by the kernel oracles (kernels/pack_test.go)
// and testdata/golden_tokens.json.
func TestFusedDecodeMatchesPerSeq(t *testing.T) {
	const steps, maxSeq = 3, 36
	shapes := [][2]int{{1, 1}, {1, 5}, {1, 32}, {3, 1}, {3, 5}, {3, 32}, {4, 1}, {4, 5}, {4, 32}}
	if testing.Short() {
		shapes = [][2]int{{1, 32}, {3, 1}, {4, 5}}
	}
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		for _, k := range allKernelTiers {
			e := tinyEngineOpts(t, f, Options{Kernel: k})
			// Batches of any size draw their prompts from the same four.
			promptOf := func(rows, b int) []int { return prompt(e, rows, int64(100+b)) }
			type key struct{ rows, b int }
			refs := map[key]passTrace{}
			want := func(rows, b int) passTrace {
				ref, ok := refs[key{rows, b}]
				if !ok {
					s := e.NewSession(1, maxSeq)
					ref = tracePass(t, e, s, steps, func() ([]int, error) {
						return e.Prefill(s, [][]int{promptOf(rows, b)})
					})[0]
					refs[key{rows, b}] = ref
				}
				return ref
			}
			for _, block := range []int{0, 5} { // 5: blocks off the vector width
				session := func(batch int) *Session { return e.NewPagedSession(batch, maxSeq, block) }
				for _, shape := range shapes {
					B, rows := shape[0], shape[1]
					prompts := make([][]int, B)
					for b := range prompts {
						prompts[b] = promptOf(rows, b)
					}
					check := func(how string, s *Session, fill func() ([]int, error)) {
						t.Helper()
						for b, got := range tracePass(t, e, s, steps, fill) {
							if d := want(rows, b).diff(got); d != "" {
								t.Fatalf("%s/%s block=%d B=%d rows=%d: %s, seq %d: %s",
									f, k, block, B, rows, how, b, d)
							}
						}
					}
					s := session(B)
					check("fused", s, func() ([]int, error) { return e.Prefill(s, prompts) })
					s = session(B)
					check("chunked", s, func() ([]int, error) { return e.PrefillChunked(s, prompts, 3, nil) })
					if rows > 1 {
						parent := session(B)
						prefixes := make([][]int, B)
						for b := range prefixes {
							prefixes[b] = prompts[b][:rows/2]
						}
						if _, err := e.Prefill(parent, prefixes); err != nil {
							t.Fatal(err)
						}
						s, err := e.ForkPagedSession(parent, rows/2)
						if err != nil {
							t.Fatal(err)
						}
						check("resumed", s, func() ([]int, error) { return e.PrefillResume(s, prompts) })
					}
				}
			}
		}
	}
}

// TestFusedDecodePagedSession checks the fused path over blocks of 4
// positions against one block per layer.
func TestFusedDecodePagedSession(t *testing.T) {
	e := tinyEngineOpts(t, model.LLaMA2, Options{Kernel: KernelBlocked})
	p := prompt(e, 6, 7)
	dense := e.NewSession(2, 32)
	paged := e.NewPagedSession(2, 32, 4)
	td, err := e.Prefill(dense, [][]int{p, p})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := e.Prefill(paged, [][]int{p, p})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 10; step++ {
		if td[0] != tp[0] || td[1] != tp[1] {
			t.Fatalf("step %d: paged fused decode diverged", step)
		}
		// Copy: DecodeStep returns a reused view.
		tdc := append([]int(nil), td...)
		tpc := append([]int(nil), tp...)
		if td, err = e.DecodeStep(dense, tdc); err != nil {
			t.Fatal(err)
		}
		if tp, err = e.DecodeStep(paged, tpc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeStepZeroAlloc is the acceptance criterion: once the arena is
// warm, a steady-state fused decode step performs ZERO heap allocations —
// including the logits, which are served from the arena as a reused view.
// A session allocates when a step opens a new block and at no other time;
// the small blocks here are wide enough that no measured step does.
func TestDecodeStepZeroAlloc(t *testing.T) {
	for _, k := range allKernelTiers {
		for _, f := range []model.Family{model.OPT, model.LLaMA2} {
			for _, block := range []int{0, 32} {
				e := tinyEngineOpts(t, f, Options{Kernel: k})
				s := e.NewPagedSession(4, e.Config().MaxSeq, block)
				prompts := make([][]int, 4)
				for b := range prompts {
					prompts[b] = prompt(e, 4, int64(b+1))
				}
				toks, err := e.Prefill(s, prompts)
				if err != nil {
					t.Fatal(err)
				}
				// One step warms the arena; AllocsPerRun then runs 1 warmup +
				// 20 measured steps, all within the first 32 positions.
				toks, err = e.DecodeStep(s, toks)
				if err != nil {
					t.Fatal(err)
				}
				allocs := testing.AllocsPerRun(20, func() {
					var derr error
					toks, derr = e.DecodeStep(s, toks)
					if derr != nil {
						t.Fatal(derr)
					}
				})
				if allocs != 0 {
					t.Errorf("%s/%s block=%d: DecodeStep allocated %v times per step, want 0", f, k, block, allocs)
				}
			}
		}
	}
}

// TestPrefillAllocsDoNotScaleWithDepth extends the guard to prefill: a
// session's first pass sizes its caches and arena, and after that nothing
// is allocated per layer or per linear — no rounding buffer, no score
// strip, no scratch matrix — so, the KV cache's own allocations aside (its
// tables and blocks per layer), a model three times as deep allocates
// exactly as often; and a multi-row pass on the warm session allocates
// only its result.
func TestPrefillAllocsDoNotScaleWithDepth(t *testing.T) {
	const maxSeq = 32
	for _, k := range allKernelTiers {
		for _, block := range []int{0, 16} {
			var allocs [2]float64
			for i, layers := range []int{2, 6} {
				cfg := model.Tiny(model.OPT)
				cfg.Layers = layers
				w, err := NewWeights(cfg, 42, tensor.FP32)
				if err != nil {
					t.Fatal(err)
				}
				e, err := New(w, Options{Kernel: k})
				if err != nil {
					t.Fatal(err)
				}
				session := func(batch int) *Session { return e.NewPagedSession(batch, maxSeq, block) }
				prompts := [][]int{prompt(e, 12, 1), prompt(e, 12, 2), prompt(e, 12, 3)}
				allocs[i] = testing.AllocsPerRun(5, func() {
					if _, err := e.Prefill(session(len(prompts)), prompts); err != nil {
						t.Fatal(err)
					}
				})
				// What the session and its KV caches allocate by themselves:
				// the prompt touches each layer's first block only.
				row := make([]float32, cfg.KVDim())
				allocs[i] -= testing.AllocsPerRun(5, func() {
					for _, c := range session(len(prompts)).caches {
						for l := 0; l < layers; l++ {
							c.Put(l, 0, row, row)
						}
					}
				})
				s1 := session(1)
				if _, err := e.Prefill(s1, prompts[:1]); err != nil {
					t.Fatal(err)
				}
				verify := testing.AllocsPerRun(5, func() {
					if _, err := e.VerifyRows(s1, prompts[1][:8]); err != nil {
						t.Fatal(err)
					}
				})
				if verify != 1 {
					t.Errorf("%s block=%d: warm VerifyRows allocated %v times, want 1 (its result)", k, block, verify)
				}
			}
			if allocs[0] != allocs[1] || allocs[0] > 40 {
				t.Errorf("%s block=%d: prefill allocated %v times at 2 layers, %v at 6; want equal and small",
					k, block, allocs[0], allocs[1])
			}
		}
	}
}

// TestEnginesSharingPool runs two engines concurrently over one explicit
// kernels.Pool (the gateway-lane configuration) under load; run with -race.
func TestEnginesSharingPool(t *testing.T) {
	pool := kernels.NewPool(4)
	defer pool.Close()
	e1 := tinyEngineOpts(t, model.OPT, Options{Kernel: KernelTileBF16Parallel, Pool: pool})
	e2 := tinyEngineOpts(t, model.LLaMA2, Options{Kernel: KernelTileBF16Parallel, Pool: pool})

	want1 := generateTokens(t, e1, 2, 5, 8)
	want2 := generateTokens(t, e2, 2, 5, 8)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for it := 0; it < 4; it++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			got := generateTokens(t, e1, 2, 5, 8)
			for b := range want1 {
				for i := range want1[b] {
					if got[b][i] != want1[b][i] {
						t.Errorf("shared pool: e1 output changed under concurrency")
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			got := generateTokens(t, e2, 2, 5, 8)
			for b := range want2 {
				for i := range want2[b] {
					if got[b][i] != want2[b][i] {
						t.Errorf("shared pool: e2 output changed under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestDecodeStepReturnsReusedView documents the API contract change from
// the logits/next-token arena: the slice DecodeStep returns is valid until
// the next step on the same session.
func TestDecodeStepReturnsReusedView(t *testing.T) {
	e := tinyEngineOpts(t, model.OPT, Options{Kernel: KernelBlocked})
	s := e.NewSession(2, 32)
	toks, err := e.Prefill(s, [][]int{prompt(e, 4, 1), prompt(e, 4, 2)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.DecodeStep(s, toks)
	if err != nil {
		t.Fatal(err)
	}
	first := append([]int(nil), a...)
	b, err := e.DecodeStep(s, a)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("DecodeStep should return the session's reused token view")
	}
	_ = first
}

// TestPackedWeightsSharedAcrossEngines: two engines over the same Weights
// must not race packing (ensurePacked is mutex-guarded, packs built once).
func TestPackedWeightsSharedAcrossEngines(t *testing.T) {
	cfg := model.Tiny(model.LLaMA2)
	w, err := NewWeights(cfg, 7, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(k Kernel) {
			defer wg.Done()
			if _, err := New(w, Options{Kernel: k}); err != nil {
				t.Error(err)
			}
		}([]Kernel{KernelBlocked, KernelTileBF16, KernelBlocked, KernelTileBF16}[i])
	}
	wg.Wait()
	if w.Layers[0].Wq.pf32 == nil || w.Layers[0].Wq.pbf16 == nil {
		t.Fatal("expected both precision packs after concurrent construction")
	}
}
