package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernels"
)

// linearBytes is what a model's linear layers hold — their weight store
// and every pack built from it — against their parameter count.
func linearBytes(w *Weights) (bytes, params int64) {
	for _, l := range w.linears() {
		params += int64(l.In * l.Out)
		bytes += int64(4*len(l.w32) + 2*len(l.w16))
		for _, pb := range []*kernels.PackedB{l.pf32, l.pbf16} {
			if pb != nil {
				bytes += pb.Bytes()
			}
		}
	}
	return bytes, params
}

// TestBF16ModelHoldsFourBytesPerParam: a BF16 model keeps its linear
// weights once, in 16 bits, so with the pack any one tier builds from them
// it holds at most 4 bytes per parameter — 6 when an FP32 copy sat beside
// the pack.
func TestBF16ModelHoldsFourBytesPerParam(t *testing.T) {
	fam := goldenFamilies[0] // the benchmark's model
	for _, k := range []Kernel{KernelTileBF16Parallel, KernelBlocked} {
		w, err := NewWeights(fam.cfg, 42, fam.dt)
		if err != nil {
			t.Fatal(err)
		}
		pool := kernels.NewPool(2)
		if _, err := New(w, Options{Kernel: k, Pool: pool}); err != nil {
			t.Fatal(err)
		}
		pool.Close()
		if w.Layers[0].Wq.w32 != nil {
			t.Errorf("%s: a BF16 model's linear weights are held in 32 bits", k)
		}
		bytes, params := linearBytes(w)
		if perParam := float64(bytes) / float64(params); perParam > 4 {
			t.Errorf("%s model on %s: %.2f bytes per linear parameter, want at most 4", fam.dt, k, perParam)
		}
	}
}

// TestConcurrentTiersMatchGoldens builds all four tiers at once over one
// Weights (run it under -race): the packs of two precisions and the tied
// head must come out as a serial build's, each tier's tokens and logits
// hash its golden's.
func TestConcurrentTiersMatchGoldens(t *testing.T) {
	fam := goldenFamilies[0]
	w, err := NewWeights(fam.cfg, 42, fam.dt)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, len(allKernelTiers))
	var wg sync.WaitGroup
	for i, k := range allKernelTiers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := New(w, Options{Kernel: k})
			if err != nil {
				t.Error(err)
			}
			engines[i] = e
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	golden := readGolden(t)
	for i, e := range engines {
		prompts := make([][]int, goldenBatch)
		for b := range prompts {
			prompts[b] = prompt(e, goldenPrompt, int64(100+b))
		}
		got := generateOn(t, e, e.NewSession(goldenBatch, goldenPrompt+goldenNew), prompts, goldenNew)
		numerics := "fp32"
		if allKernelTiers[i].bf16() {
			numerics = "bf16"
		}
		want := golden[fmt.Sprintf("%s/%s/flash=false", fam.name, numerics)]
		if !reflect.DeepEqual(got.Tokens, want.Tokens) {
			t.Errorf("%s: tokens differ\n got %v\nwant %v", allKernelTiers[i], got.Tokens, want.Tokens)
		} else if runtime.GOARCH == "amd64" && got.LogitsFNV != want.LogitsFNV {
			t.Errorf("%s: final logits hash %s, want %s", allKernelTiers[i], got.LogitsFNV, want.LogitsFNV)
		}
	}
}
