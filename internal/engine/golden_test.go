package engine

// golden_test.go pins "numerics unchanged" as a committed check: greedy
// token ids on the bench-shaped model (4 layers × d256, seed 42) for both
// families, recorded once per numerics class (FP32 or BF16 tiers) in
// testdata/golden_tokens.json. Every packed tier × dense/paged session must
// reproduce its class's ids. Regenerate (only when a numerics change is
// intended) with
//
//	go test ./internal/engine/ -run TestGoldenTokens -args -update-golden

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_tokens.json from this build")

const (
	goldenPath   = "testdata/golden_tokens.json"
	goldenBatch  = 4
	goldenPrompt = 32
	goldenNew    = 16
)

// goldenFamilies are the two bench-shaped models. OPT is the benchmark's
// model exactly (BF16-representable weights, tied head); LLaMA-2 keeps FP32
// weights so the FP32 pack storage, the untied head and GQA are pinned too.
var goldenFamilies = []struct {
	name string
	cfg  model.Config
	dt   tensor.DType
}{
	{"opt", model.Config{Name: "bench-OPT", Family: model.OPT,
		Layers: 4, DModel: 256, Heads: 8, KVHeads: 8, DFF: 1024, Vocab: 2048, MaxSeq: 512}, tensor.BF16},
	{"llama", model.Config{Name: "bench-LLaMA", Family: model.LLaMA2,
		Layers: 4, DModel: 256, Heads: 8, KVHeads: 4, DFF: 1024, Vocab: 2048, MaxSeq: 512}, tensor.FP32},
}

// goldenEntry is one numerics class's record: the greedy ids, and an FNV-1a
// hash over the Float32bits of the last decode step's logits — random
// weights make greedy ids repeat, so the hash is what notices a one-ulp
// change. The hash is compared on amd64 only: other ports may fuse
// multiply-adds.
type goldenEntry struct {
	Tokens    [][]int `json:"tokens"`
	LogitsFNV string  `json:"logits_fnv"`
}

// generateOn greedily generates maxNew tokens per sequence on session s.
func generateOn(t *testing.T, e *Engine, s *Session, prompts [][]int, maxNew int) goldenEntry {
	t.Helper()
	toks, err := e.Prefill(s, prompts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]int, len(prompts))
	for step := 0; ; step++ {
		for b := range out {
			out[b] = append(out[b], toks[b])
		}
		if step == maxNew-1 {
			break
		}
		if toks, err = e.DecodeStep(s, toks); err != nil {
			t.Fatal(err)
		}
	}
	h := fnv.New64a()
	for _, v := range s.ar.logits[:len(prompts)*e.cfg.Vocab] {
		bits := math.Float32bits(v)
		h.Write([]byte{byte(bits), byte(bits >> 8), byte(bits >> 16), byte(bits >> 24)})
	}
	return goldenEntry{Tokens: out, LogitsFNV: fmt.Sprintf("%016x", h.Sum64())}
}

func TestGoldenTokens(t *testing.T) {
	golden := map[string]goldenEntry{}
	if !*updateGolden {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
	}
	tiers := []struct {
		k     Kernel
		class string
	}{
		{KernelBlocked, "fp32"}, {KernelParallel, "fp32"},
		{KernelTileBF16, "bf16"}, {KernelTileBF16Parallel, "bf16"},
	}
	for _, fam := range goldenFamilies {
		w, err := NewWeights(fam.cfg, 42, fam.dt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range tiers {
			e, err := New(w, Options{Kernel: tier.k})
			if err != nil {
				t.Fatal(err)
			}
			prompts := make([][]int, goldenBatch)
			for b := range prompts {
				prompts[b] = prompt(e, goldenPrompt, int64(100+b))
			}
			// The keys date from when a flash-attention class sat beside
			// this one; the entries have not been regenerated since.
			key := fmt.Sprintf("%s/%s/flash=false", fam.name, tier.class)
			for _, paged := range []bool{false, true} {
				s := sessionOf(e, paged, goldenBatch, goldenPrompt+goldenNew, 12)
				got := generateOn(t, e, s, prompts, goldenNew)
				if want, ok := golden[key]; !ok {
					if !*updateGolden {
						t.Fatalf("%s: no golden entry", key)
					}
					golden[key] = got
				} else if !reflect.DeepEqual(got.Tokens, want.Tokens) {
					t.Errorf("%s tier=%s paged=%v: tokens differ from golden\n got %v\nwant %v",
						key, tier.k, paged, got.Tokens, want.Tokens)
				} else if runtime.GOARCH == "amd64" && got.LogitsFNV != want.LogitsFNV {
					t.Errorf("%s tier=%s paged=%v: final logits hash %s, golden %s",
						key, tier.k, paged, got.LogitsFNV, want.LogitsFNV)
				}
			}
		}
	}
	if *updateGolden {
		// One class per line keeps the file diffable.
		keys := make([]string, 0, len(golden))
		for key := range golden {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, key := range keys {
			ids, err := json.Marshal(golden[key])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, " %q: %s", key, ids)
			if i < len(keys)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("}\n")
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
