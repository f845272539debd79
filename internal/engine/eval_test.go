package engine

import (
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

func TestPerplexityBasics(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	seq := prompt(e, 16, 81)
	res, err := e.Perplexity(seq)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens != 15 {
		t.Errorf("tokens = %d, want 15", res.Tokens)
	}
	if res.Perplexity < 1 || math.IsInf(res.Perplexity, 0) || math.IsNaN(res.Perplexity) {
		t.Errorf("perplexity = %v, must be finite and ≥ 1", res.Perplexity)
	}
	// Random weights over a 97-token vocab: perplexity should be near the
	// uniform limit, certainly within (1, vocab²).
	if res.Perplexity > float64(e.Config().Vocab*e.Config().Vocab) {
		t.Errorf("perplexity %v implausibly high", res.Perplexity)
	}
	if res.TotalLogProb >= 0 || res.WorstTokenLP > res.AvgLogProb {
		t.Errorf("log-prob accounting wrong: %+v", res)
	}
}

// TestPerplexityGreedyLowest: a sequence continued greedily by the model
// itself must have lower perplexity on its generated suffix than a random
// continuation.
func TestPerplexityGreedyLowest(t *testing.T) {
	e := tinyEngine(t, model.LLaMA2, KernelBlocked)
	p := prompt(e, 10, 82)
	out, _, err := e.Generate([][]int{p}, 8)
	if err != nil {
		t.Fatal(err)
	}
	greedySeq := append(append([]int{}, p...), out[0]...)
	randomSeq := append(append([]int{}, p...), prompt(e, 8, 83)...)
	g, err := e.Perplexity(greedySeq)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Perplexity(randomSeq)
	if err != nil {
		t.Fatal(err)
	}
	if g.Perplexity >= r.Perplexity {
		t.Errorf("greedy continuation ppl %.1f not below random %.1f",
			g.Perplexity, r.Perplexity)
	}
}

// TestPerplexityAcrossPrecisions: BF16-tile and INT8 execution must keep
// perplexity close to the FP32 reference — the accuracy check behind the
// quantization performance claims.
func TestPerplexityAcrossPrecisions(t *testing.T) {
	cfg := model.Tiny(model.OPT)
	w, err := NewWeights(cfg, 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	w.QuantizeAll()
	seq := prompt(&Engine{cfg: cfg, w: w}, 16, 84)
	ppl := func(k Kernel) float64 {
		e, err := New(w, Options{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Perplexity(seq)
		if err != nil {
			t.Fatal(err)
		}
		return res.Perplexity
	}
	ref := ppl(KernelBlocked)
	for _, k := range []Kernel{KernelTileBF16, KernelInt8} {
		got := ppl(k)
		if rel := math.Abs(got-ref) / ref; rel > 0.05 {
			t.Errorf("%s perplexity %.2f deviates %.1f%% from fp32 %.2f",
				k, got, rel*100, ref)
		}
	}
}

func TestPerplexityValidation(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	if _, err := e.Perplexity([]int{1}); err == nil {
		t.Error("single token must fail")
	}
	if _, err := e.Perplexity([]int{1, -1}); err == nil {
		t.Error("bad token must fail")
	}
}

// TestGenerateStream: OnToken sees every token, in order, as it is
// produced, and the output is what Generate returns.
func TestGenerateStream(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	p := prompt(e, 8, 85)
	want, _, err := e.Generate([][]int{p, p}, 6)
	if err != nil {
		t.Fatal(err)
	}
	streamed := make([][]int, 2)
	out, _, err := e.GenerateWith([][]int{p, p}, GenerateOptions{MaxNew: 6,
		OnToken: func(seq, step, tok int) bool {
			if step != len(streamed[seq]) {
				t.Errorf("seq %d: step %d after %d tokens", seq, step, len(streamed[seq]))
			}
			streamed[seq] = append(streamed[seq], tok)
			return true
		}})
	if err != nil {
		t.Fatal(err)
	}
	for b := range want {
		for i := range want[b] {
			if out[b][i] != want[b][i] || streamed[b][i] != want[b][i] {
				t.Fatalf("stream diverged at seq %d tok %d", b, i)
			}
		}
	}
}

// TestGenerateStreamEarlyStop: a callback returning false must stop that
// sequence only, and the rejected token is not part of its output.
func TestGenerateStreamEarlyStop(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	p := prompt(e, 8, 86)
	out, _, err := e.GenerateWith([][]int{p, p}, GenerateOptions{MaxNew: 6,
		OnToken: func(seq, step, tok int) bool {
			return !(seq == 0 && step == 2) // stop sequence 0 at step 2
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 2 {
		t.Errorf("stopped sequence has %d tokens, want 2", len(out[0]))
	}
	if len(out[1]) != 6 {
		t.Errorf("running sequence has %d tokens, want 6", len(out[1]))
	}
	// Stopping every sequence at its first token ends generation there.
	out, _, err = e.GenerateWith([][]int{p, p}, GenerateOptions{MaxNew: 6,
		OnToken: func(int, int, int) bool { return false }})
	if err != nil {
		t.Fatal(err)
	}
	if len(out[0]) != 0 || len(out[1]) != 0 {
		t.Errorf("sequences stopped at step 0 produced %v", out)
	}
}

// TestGenerateStreamValidation: a rejected call never reaches OnToken.
func TestGenerateStreamValidation(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	onToken := func(int, int, int) bool {
		t.Error("OnToken called by a rejected generation")
		return true
	}
	for name, call := range map[string]func() error{
		"no prompts": func() error {
			_, _, err := e.GenerateWith(nil, GenerateOptions{MaxNew: 4, OnToken: onToken})
			return err
		},
		"zero maxNew": func() error {
			_, _, err := e.GenerateWith([][]int{{1}}, GenerateOptions{OnToken: onToken})
			return err
		},
		"out-of-vocab prompt": func() error {
			_, _, err := e.GenerateWith([][]int{{-1}}, GenerateOptions{MaxNew: 4, OnToken: onToken})
			return err
		},
	} {
		if call() == nil {
			t.Errorf("%s must fail", name)
		}
	}
}

func TestLogSoftmax(t *testing.T) {
	lps := logSoftmax([]float32{1, 2, 3})
	var sum float64
	for _, lp := range lps {
		sum += math.Exp(lp)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("log-softmax probs sum to %v", sum)
	}
	if !(lps[2] > lps[1] && lps[1] > lps[0]) {
		t.Error("ordering not preserved")
	}
}

// BenchmarkPerplexity times one teacher-forced evaluation pass over a
// 32-token sequence.
func BenchmarkPerplexity(b *testing.B) {
	e := tinyEngine(b, model.OPT, KernelBlocked)
	seq := prompt(e, 32, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Perplexity(seq); err != nil {
			b.Fatal(err)
		}
	}
}
