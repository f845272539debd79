package engine

// spec_tiers_test.go asserts speculative decoding's defining invariant on
// every kernel tier and KV block size: greedy output through the
// draft+verify path is bit-identical to the same engine's own greedy
// generation — the verification pass and the plain decode path run the
// same kernels.

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// allKernelTiers is the tier axis of every configuration-matrix test in
// this package.
var allKernelTiers = []Kernel{KernelBlocked, KernelParallel, KernelTileBF16,
	KernelTileBF16Parallel}

func TestSpeculativeBitIdenticalOnAllTiers(t *testing.T) {
	cfg := model.Tiny(model.OPT)
	tw, err := NewWeights(cfg, 42, tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := cfg
	dcfg.Layers = 1
	dw, err := NewWeights(dcfg, 7, tensor.BF16)
	if err != nil {
		t.Fatal(err)
	}

	const maxNew, lookahead = 12, 3
	for _, kern := range allKernelTiers {
		// paged=false is one block per layer (the dense layout), paged=true
		// blocks of 8 positions.
		for _, block := range []int{0, 8} {
			t.Run(fmt.Sprintf("%s/paged=%v", kern, block > 0), func(t *testing.T) {
				target, err := New(tw, Options{Kernel: kern})
				if err != nil {
					t.Fatal(err)
				}
				draft, err := New(dw, Options{Kernel: kern})
				if err != nil {
					t.Fatal(err)
				}
				p := prompt(target, 10, 41)
				want, _, err := target.Generate([][]int{p}, maxNew)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := SpeculativeGenerate(target, draft, p, maxNew,
					SpecOptions{Lookahead: lookahead, BlockSize: block})
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != maxNew {
					t.Fatalf("got %d tokens, want %d", len(got), maxNew)
				}
				for i := range want[0] {
					if got[i] != want[0][i] {
						t.Fatalf("diverged from greedy at token %d (%d vs %d), stats %+v",
							i, got[i], want[0][i], st)
					}
				}
				if st.Proposed <= 0 || st.TargetPasses <= 0 {
					t.Errorf("degenerate stats %+v", st)
				}
			})
		}
	}
}

// TestSpeculativeSteeringPreservesGreedy: an adversarial Steer function —
// one that rewrites every proposal to a fixed wrong token — must not
// change the output, only the acceptance rate. This is what lets
// gemmbench pin acceptance at arbitrary α without compromising the
// bit-identity guarantee.
func TestSpeculativeSteeringPreservesGreedy(t *testing.T) {
	target, draft := specEngines(t, 7)
	p := prompt(target, 10, 41)
	want, _, err := target.Generate([][]int{p}, 12)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := SpeculativeGenerate(target, draft, p, 12, SpecOptions{
		Lookahead: 4,
		Steer:     func(outLen, i, proposed int) int { return (proposed + 1) % target.cfg.Vocab },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want[0] {
		if got[i] != want[0][i] {
			t.Fatalf("steered speculation diverged at %d", i)
		}
	}
	if st.AcceptanceRate() >= 1 {
		t.Errorf("uniformly wrong steering should not be fully accepted: %+v", st)
	}
}
