package engine

import (
	"math"
	"testing"

	"repro/internal/model"
)

func TestSamplerGreedy(t *testing.T) {
	logits := []float32{0.1, 2.0, -1.0}
	var nilS *Sampler
	if nilS.Sample(logits) != 1 {
		t.Error("nil sampler must be greedy")
	}
	if NewSampler(1, 0, 0, 0).Sample(logits) != 1 {
		t.Error("temperature 0 must be greedy")
	}
}

func TestSamplerDeterministicPerSeed(t *testing.T) {
	logits := []float32{1, 1.1, 0.9, 1.05}
	a := NewSampler(7, 1.0, 0, 0)
	b := NewSampler(7, 1.0, 0, 0)
	for i := 0; i < 20; i++ {
		if a.Sample(logits) != b.Sample(logits) {
			t.Fatal("same seed must give same draws")
		}
	}
}

func TestSamplerTopK(t *testing.T) {
	// With TopK=1, sampling must always return the argmax.
	logits := []float32{0.5, 3.0, 0.4, 2.9}
	s := NewSampler(3, 1.5, 1, 0)
	for i := 0; i < 50; i++ {
		if s.Sample(logits) != 1 {
			t.Fatal("top-1 sampling must equal argmax")
		}
	}
}

func TestSamplerTopKRestrictsSupport(t *testing.T) {
	logits := []float32{5, 4.9, -10, -10, -10}
	s := NewSampler(4, 2.0, 2, 0)
	for i := 0; i < 100; i++ {
		tok := s.Sample(logits)
		if tok != 0 && tok != 1 {
			t.Fatalf("top-2 sampled token %d", tok)
		}
	}
}

func TestSamplerTopP(t *testing.T) {
	// Token 0 carries ~88% of the mass; a 0.5 nucleus is {0}.
	logits := []float32{2, 0, 0, 0}
	s := NewSampler(5, 1.0, 0, 0.5)
	for i := 0; i < 50; i++ {
		if s.Sample(logits) != 0 {
			t.Fatal("0.5 nucleus must be the single dominant token")
		}
	}
}

func TestSamplerDistribution(t *testing.T) {
	// At temperature 1 with two equal logits, both tokens appear.
	logits := []float32{1, 1}
	s := NewSampler(6, 1.0, 0, 0)
	counts := [2]int{}
	for i := 0; i < 400; i++ {
		counts[s.Sample(logits)]++
	}
	ratio := float64(counts[0]) / 400
	if math.Abs(ratio-0.5) > 0.1 {
		t.Errorf("equal logits sampled %.2f/%.2f", ratio, 1-ratio)
	}
}

// TestGenerateWithGreedyMatchesGenerate: the generation loop with no
// sampler makes the same calls as Prefill followed by DecodeSteps.
func TestGenerateWithGreedyMatchesGenerate(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	p := prompt(e, 10, 21)
	s := e.NewSession(1, 16)
	toks, err := e.Prefill(s, [][]int{p})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{toks[0]}
	for len(want) < 6 {
		if toks, err = e.DecodeStep(s, toks); err != nil {
			t.Fatal(err)
		}
		want = append(want, toks[0])
	}
	for _, gen := range []func() ([][]int, Stats, error){
		func() ([][]int, Stats, error) { return e.Generate([][]int{p}, 6) },
		func() ([][]int, Stats, error) { return e.GenerateWith([][]int{p}, GenerateOptions{MaxNew: 6}) },
	} {
		got, _, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[0][i] != want[i] {
				t.Fatalf("greedy generation diverged from Prefill+DecodeStep at %d", i)
			}
		}
	}
}

// TestChunkedPrefillEquivalence: Sarathi-style chunked prefill must be
// bit-equivalent to monolithic prefill for any chunk size.
func TestChunkedPrefillEquivalence(t *testing.T) {
	for _, fam := range []model.Family{model.OPT, model.LLaMA2} {
		e := tinyEngine(t, fam, KernelBlocked)
		p := prompt(e, 13, 22)
		want, _, err := e.Generate([][]int{p}, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 3, 4, 13, 100} {
			got, _, err := e.GenerateWith([][]int{p},
				GenerateOptions{MaxNew: 5, PrefillChunk: chunk})
			if err != nil {
				t.Fatalf("chunk %d: %v", chunk, err)
			}
			for i := range want[0] {
				if got[0][i] != want[0][i] {
					t.Fatalf("%s chunk %d: diverged at token %d (%d vs %d)",
						fam, chunk, i, got[0][i], want[0][i])
				}
			}
		}
	}
}

// TestStopToken: an OnToken that rejects a stop token truncates the output
// before it, and the zero-value options never stop early.
func TestStopToken(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	p := prompt(e, 8, 23)
	full, _, err := e.Generate([][]int{p}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Stop on the second generated token: output must be truncated before
	// it.
	stop := full[0][1]
	got, _, err := e.GenerateWith([][]int{p}, GenerateOptions{MaxNew: 6,
		OnToken: func(_, _, tok int) bool { return tok != stop }})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range got[0] {
		if tok == stop {
			t.Fatal("stop token leaked into output")
		}
	}
	if len(got[0]) >= len(full[0]) {
		t.Errorf("stopped output length %d not shorter than %d", len(got[0]), len(full[0]))
	}
	// Without OnToken, no token terminates generation.
	got, _, err = e.GenerateWith([][]int{p}, GenerateOptions{MaxNew: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0]) != 6 {
		t.Error("zero-value options must not stop early")
	}
}

func TestGenerateWithValidation(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	if _, _, err := e.GenerateWith(nil, GenerateOptions{MaxNew: 1}); err == nil {
		t.Error("no prompts must fail")
	}
	if _, _, err := e.GenerateWith([][]int{{1}}, GenerateOptions{}); err == nil {
		t.Error("zero MaxNew must fail")
	}
	if _, _, err := e.GenerateWith([][]int{{1}},
		GenerateOptions{MaxNew: 2, PrefillChunk: -1}); err == nil {
		t.Error("negative chunk must fail")
	}
}

func TestSampledGenerationStaysInVocab(t *testing.T) {
	e := tinyEngine(t, model.LLaMA2, KernelBlocked)
	p := prompt(e, 8, 24)
	out, _, err := e.GenerateWith([][]int{p}, GenerateOptions{
		MaxNew: 8, Sampler: NewSampler(9, 0.8, 20, 0.95)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range out[0] {
		if tok < 0 || tok >= e.Config().Vocab {
			t.Fatalf("sampled token %d outside vocab", tok)
		}
	}
}
