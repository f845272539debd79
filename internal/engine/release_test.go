package engine

// release_test.go checks the session lifecycle: KV blocks are
// reference-counted and recycled unzeroed, sessions hand their blocks and
// arena back with Release, and nothing a session computes may depend on
// what a recycled block or arena held before.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/tensor"
)

// poison makes every block freed during the test fill with NaN, so that a
// read of stale KV shows in every logit.
func poison(t *testing.T) {
	t.Helper()
	poisonFreed = true
	t.Cleanup(func() { poisonFreed = false })
}

// TestPoisonedBlocksKeepGoldenTokens: with freed blocks filled with NaN,
// sessions built on recycled blocks and arenas still reproduce the golden
// tokens and logits hashes, at both block sizes.
func TestPoisonedBlocksKeepGoldenTokens(t *testing.T) {
	poison(t)
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]goldenEntry{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]Kernel{"fp32": KernelBlocked, "bf16": KernelTileBF16Parallel}
	for _, fam := range goldenFamilies {
		w, err := NewWeights(fam.cfg, 42, fam.dt)
		if err != nil {
			t.Fatal(err)
		}
		for class, k := range tiers {
			e, err := New(w, Options{Kernel: k})
			if err != nil {
				t.Fatal(err)
			}
			prompts := make([][]int, goldenBatch)
			for b := range prompts {
				prompts[b] = prompt(e, goldenPrompt, int64(100+b))
			}
			want := golden[fmt.Sprintf("%s/%s/flash=false", fam.name, class)]
			for _, block := range []int{0, 12} {
				// The second and third sessions run on the first's
				// released (poisoned) blocks and arena.
				for run := 0; run < 3; run++ {
					s := e.NewPagedSession(goldenBatch, goldenPrompt+goldenNew, block)
					got := generateOn(t, e, s, prompts, goldenNew)
					s.Release()
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s block=%d run %d: got %v, golden %v", fam.name, class, block, run, got, want)
					}
				}
			}
		}
	}
}

// TestPoisonedBlocksKeepForkBitIdentical: forks, their copy-on-write
// writes and the parent's release all recycle blocks; a resumed fork must
// still match a cold prefill token for token.
func TestPoisonedBlocksKeepForkBitIdentical(t *testing.T) {
	poison(t)
	const promptLen, prefixLen, steps = 28, 20, 8
	for _, f := range []model.Family{model.OPT, model.LLaMA2} {
		e := tinyEngine(t, f, KernelTileBF16)
		p := prompt(e, promptLen, 11)
		for _, block := range []int{0, forkBlock} {
			cold := e.NewPagedSession(1, promptLen+steps, block)
			want := generateVia(t, e, cold, steps, func() ([]int, error) { return e.Prefill(cold, [][]int{p}) })
			cold.Release()
			for round := 0; round < 3; round++ {
				parent := e.NewPagedSession(1, promptLen+steps, block)
				if _, err := e.Prefill(parent, [][]int{p[:prefixLen]}); err != nil {
					t.Fatal(err)
				}
				fork, err := e.ForkPagedSession(parent, prefixLen)
				if err != nil {
					t.Fatal(err)
				}
				if round > 0 {
					parent.Release() // the fork now holds the shared blocks alone
				}
				got := generateVia(t, e, fork, steps, func() ([]int, error) { return e.PrefillResume(fork, [][]int{p}) })
				fork.Release()
				parent.Release()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s block=%d round %d: fork %v, cold %v", f, block, round, got, want)
				}
			}
		}
	}
}

// TestRefcountConservation: across random forks (AdoptPrefix),
// copy-on-write Puts, Truncates and Releases, every live block's reference
// count equals the number of table entries holding it, and every cache
// reads back exactly what was written into it.
func TestRefcountConservation(t *testing.T) {
	const layers, kvDim, maxSeq = 2, 2, 24
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		block := 1 + rng.Intn(8)
		type holder struct {
			c      *PagedKVCache
			shadow [layers][maxSeq][2]float32 // key[0], value[0] per position
		}
		var live []*holder
		fresh := func() *holder {
			h := &holder{c: NewPagedKVCache(layers, kvDim, maxSeq, block)}
			live = append(live, h)
			return h
		}
		check := func(op string, i int) {
			t.Helper()
			held := map[*kvBlock]int32{}
			for _, h := range live {
				n := 0
				for _, blk := range h.c.table {
					if blk != nil {
						held[blk]++
						n++
					}
				}
				if got := h.c.AllocatedBlocks() + h.c.SharedBlocks(); got != n {
					t.Fatalf("seed %d op %d (%s): owned+shared %d, table holds %d", seed, i, op, got, n)
				}
				for l := 0; l < layers; l++ {
					for pos := 0; pos < h.c.Len(); pos++ {
						k, v := h.c.Run(l, pos)
						if k[0] != h.shadow[l][pos][0] || v[0] != h.shadow[l][pos][1] {
							t.Fatalf("seed %d op %d (%s): layer %d pos %d reads %v/%v, wrote %v",
								seed, i, op, l, pos, k[0], v[0], h.shadow[l][pos])
						}
					}
				}
			}
			for blk, n := range held {
				if r := blk.refs.Load(); r != n {
					t.Fatalf("seed %d op %d (%s): block refs %d, held by %d tables", seed, i, op, r, n)
				}
			}
		}
		put := func(h *holder, l, pos int) {
			k, v := float32(rng.Intn(1000)), float32(-rng.Intn(1000))
			h.c.Put(l, pos, []float32{k, k}, []float32{v, v})
			h.shadow[l][pos] = [2]float32{k, v}
		}
		fresh()
		for i := 0; i < 300; i++ {
			h := live[rng.Intn(len(live))]
			var op string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "put" // append, or overwrite a committed (maybe shared) position
				pos := rng.Intn(h.c.Len() + 1)
				if pos == maxSeq {
					continue
				}
				for l := 0; l < layers; l++ {
					put(h, l, pos)
				}
				if pos == h.c.Len() {
					h.c.ExtendTo(pos + 1)
				}
			case r < 6:
				op = "fork"
				if h.c.Len() == 0 {
					continue
				}
				f := fresh()
				f.c.AdoptPrefix(h.c, 1+rng.Intn(h.c.Len()))
				f.shadow = h.shadow
			case r < 8:
				op = "truncate"
				h.c.Truncate(rng.Intn(h.c.Len() + 1))
			default:
				op = "release"
				h.c.Truncate(0)
				for j := range live {
					if live[j] == h {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
				if len(live) == 0 {
					fresh()
				}
			}
			check(op, i)
		}
	}
}

// TestSessionRefcountsAcrossForks runs the same conservation check over
// engine sessions: prefills, forks, resumed decodes and Releases.
func TestSessionRefcountsAcrossForks(t *testing.T) {
	e := tinyEngine(t, model.LLaMA2, KernelBlocked)
	rng := rand.New(rand.NewSource(7))
	const maxSeq = 40
	var live []*Session
	for i := 0; i < 200; i++ {
		switch r := rng.Intn(8); {
		case r < 2 || len(live) == 0:
			s := e.NewPagedSession(1, maxSeq, 1+rng.Intn(6))
			if _, err := e.Prefill(s, [][]int{prompt(e, 1+rng.Intn(16), int64(i))}); err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
		case r < 4:
			src := live[rng.Intn(len(live))]
			fork, err := e.ForkPagedSession(src, 1+rng.Intn(src.Pos()))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, fork)
		case r < 6:
			s := live[rng.Intn(len(live))]
			if s.Pos() < maxSeq {
				if _, err := e.DecodeStep(s, []int{rng.Intn(e.Config().Vocab)}); err != nil {
					t.Fatal(err)
				}
			}
		default:
			j := rng.Intn(len(live))
			live[j].Release()
			live = append(live[:j], live[j+1:]...)
		}
		held := map[*kvBlock]int32{}
		for _, s := range live {
			for _, blk := range s.caches[0].table {
				if blk != nil {
					held[blk]++
				}
			}
		}
		for blk, n := range held {
			if r := blk.refs.Load(); r != n {
				t.Fatalf("op %d: block refs %d, held by %d sessions", i, r, n)
			}
		}
	}
}

// TestGenerateAllocatesOnlyItsResult: a warm Generate reuses the blocks and
// arena the previous call released, so what it allocates is its result
// (the outer slice and one per sequence) plus a fixed handful: the
// session, its cache table per sequence, the prefill's first tokens and
// the stop flags.
func TestGenerateAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	e := tinyEngine(t, model.OPT, KernelTileBF16Parallel)
	for _, batch := range []int{1, 4} {
		prompts := make([][]int, batch)
		for b := range prompts {
			prompts[b] = prompt(e, 16, int64(b+1))
		}
		generate := func() {
			if _, _, err := e.Generate(prompts, 32); err != nil {
				t.Fatal(err)
			}
		}
		generate()
		result := 1 + batch
		bookkeeping := 2 + 2*batch + 2 // session + caches slice, per-sequence cache and table, first tokens, stop flags
		if got := testing.AllocsPerRun(20, generate); got > float64(result+bookkeeping) {
			t.Errorf("batch %d: warm Generate allocated %v times, want ≤ %d (result %d + bookkeeping %d)",
				batch, got, result+bookkeeping, result, bookkeeping)
		}
	}
}

// TestConcurrentGenerateOnOneEngine: goroutines sharing an engine share its
// free lists; under -race their tokens must equal the serial tier's.
func TestConcurrentGenerateOnOneEngine(t *testing.T) {
	w, err := NewWeights(model.Tiny(model.LLaMA2), 42, tensor.FP32)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := New(w, Options{Kernel: KernelTileBF16})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(w, Options{Kernel: KernelTileBF16Parallel})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][][]int, 4)
	want := make([][][]int, len(inputs))
	for g := range inputs {
		for b := 0; b <= g%2; b++ { // batches of one and two
			inputs[g] = append(inputs[g], prompt(e, 6+g, int64(10*g+b)))
		}
		if want[g], _, err = serial.Generate(inputs[g], 12); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range inputs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				got, _, err := e.Generate(inputs[g], 12)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[g]) {
					t.Errorf("goroutine %d iteration %d: %v, serial tier %v", g, it, got, want[g])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUseAfterRelease: a released session's passes are errors, never reads
// of recycled memory; Release is idempotent.
func TestUseAfterRelease(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	p := prompt(e, 8, 5)
	s := e.NewPagedSession(1, 32, 4)
	first, err := e.Prefill(s, [][]int{p})
	if err != nil {
		t.Fatal(err)
	}
	s.Release()
	s.Release()
	if s.caches[0].AllocatedBlocks() != 0 {
		t.Fatal("Release left blocks in the table")
	}
	mustPanic(t, "run on a released cache", func() { s.caches[0].Run(0, 0) })
	unfilled := e.NewPagedSession(1, 32, 4)
	unfilled.Release()
	for name, call := range map[string]func() error{
		"Prefill": func() error { _, err := e.Prefill(unfilled, [][]int{p}); return err },
		"PrefillChunked": func() error {
			_, err := e.PrefillChunked(unfilled, [][]int{p}, 3, nil)
			return err
		},
		"DecodeStep":       func() error { _, err := e.DecodeStep(s, first); return err },
		"VerifyRows":       func() error { _, err := e.VerifyRows(s, first); return err },
		"PrefillResume":    func() error { _, err := e.PrefillResume(s, [][]int{append(p, 1)}); return err },
		"ForkPagedSession": func() error { _, err := e.ForkPagedSession(s, 4); return err },
	} {
		if err := call(); !errors.Is(err, errReleased) {
			t.Errorf("%s after Release: %v, want %v", name, err, errReleased)
		}
	}
}

// TestStatsCountStepsRun: when OnToken stops every sequence early, TPOT
// divides the decode time by the steps actually run, not by MaxNew.
func TestStatsCountStepsRun(t *testing.T) {
	e := tinyEngine(t, model.OPT, KernelBlocked)
	_, st, err := e.GenerateWith([][]int{prompt(e, 8, 19)}, GenerateOptions{MaxNew: 64,
		OnToken: func(_, step, _ int) bool { return step < 3 }})
	if err != nil {
		t.Fatal(err)
	}
	if st.TokensOut != 4 {
		t.Errorf("TokensOut = %d after a stop at step 3, want 4 (the prefill's and 3 decode steps)", st.TokensOut)
	}
	if want := st.DecodeSeconds / 3; st.TPOT() != want {
		t.Errorf("TPOT = %v, want DecodeSeconds/3 = %v", st.TPOT(), want)
	}
}
