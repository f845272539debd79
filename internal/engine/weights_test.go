package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kernels"
)

// linearBytes is what a model's linear layers hold — their weight store,
// every pack built from it and the INT8 shadow — against their
// parameter count.
func linearBytes(w *Weights) (bytes, params int64) {
	for _, l := range w.linears() {
		params += int64(l.In * l.Out)
		bytes += int64(4*len(l.w32)+2*len(l.w16)) + int64(len(l.Q))
		for _, pb := range []*kernels.PackedB{l.pf32, l.pbf16} {
			if pb != nil {
				bytes += pb.Bytes()
			}
		}
	}
	return bytes, params
}

// TestBF16ModelHoldsFourBytesPerParam: a BF16 model keeps its linear
// weights once, in 16 bits, so with what any one tier builds from them (a
// pack, or the INT8 shadow) it holds at most 4 bytes per parameter — 6
// when an FP32 copy sat beside the pack.
func TestBF16ModelHoldsFourBytesPerParam(t *testing.T) {
	fam := goldenFamilies[0] // the benchmark's model
	for _, k := range []Kernel{KernelTileBF16Parallel, KernelBlocked, KernelInt8} {
		w, err := NewWeights(fam.cfg, 42, fam.dt)
		if err != nil {
			t.Fatal(err)
		}
		if k == KernelInt8 {
			w.QuantizeAll()
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

// TestConcurrentTiersMatchGoldens builds all five tiers at once over one
// Weights (run it under -race): the packs of two precisions, each built on
// its engine's pool, and the tied head must come out as a serial build's.
// The packed tiers are held to their golden tokens and logits hash, the
// INT8 tier to an engine built alone over separate weights.
func TestConcurrentTiersMatchGoldens(t *testing.T) {
	fam := goldenFamilies[0]
	weights := func() *Weights {
		w, err := NewWeights(fam.cfg, 42, fam.dt)
		if err != nil {
			t.Fatal(err)
		}
		w.QuantizeAll()
		return w
	}
	w := weights()
	tiers := []Kernel{KernelBlocked, KernelParallel, KernelTileBF16, KernelTileBF16Parallel, KernelInt8}
	engines := make([]*Engine, len(tiers))
	var wg sync.WaitGroup
	for i, k := range tiers {
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
	alone, err := New(weights(), Options{Kernel: KernelInt8})
	if err != nil {
		t.Fatal(err)
	}
	golden := readGolden(t)
	for i, e := range engines {
		prompts := make([][]int, goldenBatch)
		for b := range prompts {
			prompts[b] = prompt(e, goldenPrompt, int64(100+b))
		}
		newTokens := goldenNew
		if tiers[i] == KernelInt8 {
			// Its own reference, so any shape will do: a short one, as
			// its Go loop is slow under -race.
			prompts, newTokens = [][]int{prompts[0][:8]}, 4
		}
		got := generateOn(t, e, e.NewSession(len(prompts), len(prompts[0])+newTokens), prompts, newTokens)
		var want goldenEntry
		switch tiers[i] {
		case KernelInt8:
			want = generateOn(t, alone, alone.NewSession(len(prompts), len(prompts[0])+newTokens), prompts, newTokens)
		case KernelTileBF16, KernelTileBF16Parallel:
			want = golden[fmt.Sprintf("%s/bf16/flash=false", fam.name)]
		default:
			want = golden[fmt.Sprintf("%s/fp32/flash=false", fam.name)]
		}
		if !reflect.DeepEqual(got.Tokens, want.Tokens) {
			t.Errorf("%s: tokens differ\n got %v\nwant %v", tiers[i], got.Tokens, want.Tokens)
		} else if runtime.GOARCH == "amd64" && got.LogitsFNV != want.LogitsFNV {
			t.Errorf("%s: final logits hash %s, want %s", tiers[i], got.LogitsFNV, want.LogitsFNV)
		}
	}
}
