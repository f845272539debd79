package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// bitsEqual reports whether two float32 slices are bit-for-bit identical
// (stricter than ==, which treats +0 and -0 as equal and NaN as unequal).
func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// packShapes stresses ragged edge panels (n % PanelCols != 0), GEMV rows,
// and k values straddling tile-depth boundaries.
var packShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{1, 15, 7},  // single ragged panel
	{1, 16, 32}, // exactly one panel
	{1, 17, 33}, // panel + 1-column edge
	{3, 5, 7},
	{4, 97, 64}, // vocab-like ragged edge
	{8, 48, 100},
	{16, 16, 32},
	{17, 19, 33},
	{1, 128, 96},  // decode GEMV
	{32, 256, 64}, // batched decode
}

func TestGemmPackedMatchesNaiveBitForBit(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, s := range packShapes {
		a, b := randMat(r, s.m*s.k), randMat(r, s.k*s.n)
		want := make([]float32, s.m*s.n)
		got := make([]float32, s.m*s.n)
		GemmNaive(s.m, s.n, s.k, a, b, want)
		pb := PackB(s.k, s.n, b)
		GemmPacked(s.m, a, pb, got)
		if i, ok := bitsEqual(want, got); !ok {
			t.Errorf("shape %+v: packed fp32 differs from naive at %d: %v vs %v",
				s, i, want[i], got[i])
		}
	}
}

func TestGemmPackedBF16MatchesTileBitForBit(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, s := range packShapes {
		a, b := randMat(r, s.m*s.k), randMat(r, s.k*s.n)
		want := make([]float32, s.m*s.n)
		got := make([]float32, s.m*s.n)
		GemmTileBF16(s.m, s.n, s.k, a, b, want)
		pb := PackBBF16(s.k, s.n, b)
		GemmPacked(s.m, a, pb, got)
		if i, ok := bitsEqual(want, got); !ok {
			t.Errorf("shape %+v: packed bf16 differs from tile kernel at %d: %v vs %v",
				s, i, want[i], got[i])
		}
	}
}

func TestGemvPackedMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	k, n := 100, 97
	x, b := randMat(r, k), randMat(r, k*n)
	want := make([]float32, n)
	got := make([]float32, n)
	GemmNaive(1, n, k, x, b, want)
	GemvPacked(x, PackB(k, n, b), got)
	if i, ok := bitsEqual(want, got); !ok {
		t.Errorf("gemv packed differs at %d", i)
	}
}

func TestPackBTransMatchesPackB(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	k, n := 33, 21
	b := randMat(r, k*n)
	bT := make([]float32, n*k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bT[j*k+p] = b[p*n+j]
		}
	}
	x := randMat(r, k)
	want := make([]float32, n)
	got := make([]float32, n)
	GemmPacked(1, x, PackB(k, n, b), want)
	GemmPacked(1, x, PackBTrans(k, n, bT), got)
	if i, ok := bitsEqual(want, got); !ok {
		t.Errorf("PackBTrans differs from PackB at %d", i)
	}
}

func TestGemmPackedPooledMatchesSerialBitForBit(t *testing.T) {
	// Both split regimes (rows when every worker gets a register tile of
	// them, column panels otherwise) must reproduce the serial kernel
	// exactly, for FP32 and BF16 packs, across worker counts. No inline
	// threshold: at the default one every shape here runs inline.
	r := rand.New(rand.NewSource(15))
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		var job PackedJob
		for _, s := range packShapes {
			for _, bf16 := range []bool{false, true} {
				a, b := randMat(r, s.m*s.k), randMat(r, s.k*s.n)
				var pb *PackedB
				if bf16 {
					pb = PackBBF16(s.k, s.n, b)
				} else {
					pb = PackB(s.k, s.n, b)
				}
				want := make([]float32, s.m*s.n)
				got := make([]float32, s.m*s.n)
				GemmPacked(s.m, a, pb, want)
				gemmPackedPooled(p, &job, s.m, a, pb, got, 0)
				if i, ok := bitsEqual(want, got); !ok {
					t.Errorf("shape %+v workers=%d bf16=%v: pooled differs at %d",
						s, workers, bf16, i)
				}
			}
		}
		p.Close()
	}
}

// TestGemmPackedOverConcatenatedColumns: one GEMM over the pack of
// [W_a | W_b] gives, column for column, the bits of the two GEMMs over
// W_a's and W_b's own packs — serial, and split over a pool (by column
// panels, or by rows where the level splits M = 32 and 128 so) — for FP32
// and BF16 packs, at decode and prefill M,
// with W_a's 200 columns ending inside a panel, and with W_b at the scale
// of W_a or far below it (a wider exponent range than either half's).
// Under -simd it runs at every level.
func TestGemmPackedOverConcatenatedColumns(t *testing.T) {
	const k, na, nb = 100, 200, 56
	r := rand.New(rand.NewSource(23))
	p := NewPool(3)
	defer p.Close()
	var job PackedJob
	for _, scaleB := range []float32{1, 0x1p-20} {
		wa, wb := randMat(r, k*na), randMat(r, k*nb)
		w := make([]float32, 0, k*(na+nb))
		for row := 0; row < k; row++ {
			for j := range nb {
				wb[row*nb+j] *= scaleB
			}
			w = append(append(w, wa[row*na:(row+1)*na]...), wb[row*nb:(row+1)*nb]...)
		}
		for _, pack := range []func(k, n int, b []float32) *PackedB{PackB, PackBBF16} {
			pa, pbb, pab := pack(k, na, wa), pack(k, nb, wb), pack(k, na+nb, w)
			for _, m := range []int{1, 4, 32, 128} {
				a := randMat(r, m*k)
				ca, cb := make([]float32, m*na), make([]float32, m*nb)
				GemmPacked(m, a, pa, ca)
				GemmPacked(m, a, pbb, cb)
				want := make([]float32, 0, m*(na+nb))
				for i := 0; i < m; i++ {
					want = append(append(want, ca[i*na:(i+1)*na]...), cb[i*nb:(i+1)*nb]...)
				}
				serial, pooled := make([]float32, m*(na+nb)), make([]float32, m*(na+nb))
				GemmPacked(m, a, pab, serial)
				gemmPackedPooled(p, &job, m, a, pab, pooled, 0)
				for name, got := range map[string][]float32{"serial": serial, "pooled": pooled} {
					if i, ok := bitsEqual(want, got); !ok {
						t.Errorf("bf16=%v scaleB=%g m=%d %s: column %d of row %d is %v, the separate GEMMs' %v",
							pab.BF16, scaleB, m, name, i%(na+nb), i/(na+nb), got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPoolSharedByConcurrentCallers(t *testing.T) {
	// Two (or more) engines share one pool in the gateway; concurrent Run
	// calls must interleave safely. Run under -race in CI. More callers
	// than workers and every GEMM split, so every caller both queues parts
	// and — once its own part 0 is done — drains parts that belong to the
	// others.
	p := NewPool(4)
	defer p.Close()
	r := rand.New(rand.NewSource(18))
	k, n := 256, 1031
	b := randMat(r, k*n)
	pb := PackBBF16(k, n, b)

	const callers, rows = 6, 16
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		a := randMat(r, rows*k)
		want := make([]float32, rows*n)
		GemmPacked(rows, a, pb, want)
		wg.Add(1)
		go func(a, want []float32) {
			defer wg.Done()
			var job PackedJob
			var ran countTask
			got := make([]float32, rows*n)
			for iter := 0; iter < 50; iter++ {
				for _, m := range []int{1, 5, rows} { // panel splits, and a row split on the AVX2 kernels
					for i := range got[:m*n] {
						got[i] = 0
					}
					gemmPackedPooled(p, &job, m, a, pb, got, 0)
					if i, ok := bitsEqual(want[:m*n], got[:m*n]); !ok {
						errs <- fmt.Sprintf("shared-pool result differs at index %d (m=%d)", i, m)
						return
					}
				}
				// Run returns only when every part of this call has run,
				// whoever ran it.
				ran.n.Store(0)
				p.Run(&ran, 9)
				if got := ran.n.Load(); got != 9 {
					errs <- fmt.Sprintf("Run returned with %d of 9 parts done", got)
					return
				}
			}
		}(a, want)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// countTask counts the parts that have finished.
type countTask struct{ n atomic.Int32 }

func (c *countTask) RunPart(part, parts int) { c.n.Add(1) }

func TestPoolRunCountsParts(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var calls [7]int32
	var mu sync.Mutex
	task := taskFunc(func(part, parts int) {
		mu.Lock()
		calls[part]++
		mu.Unlock()
	})
	p.Run(task, len(calls))
	for i, c := range calls {
		if c != 1 {
			t.Errorf("part %d ran %d times", i, c)
		}
	}
}

type taskFunc func(part, parts int)

func (f taskFunc) RunPart(part, parts int) { f(part, parts) }

func TestGemmPackedPooledZeroAllocSteadyState(t *testing.T) {
	// The decode hot path must not allocate: the PackedJob owns all
	// scratch and pool dispatch recycles its descriptors.
	r := rand.New(rand.NewSource(19))
	k, n := 64, 256
	b := randMat(r, k*n)
	pb := PackBBF16(k, n, b)
	a := randMat(r, 8*k)
	c := make([]float32, 8*n)
	p := NewPool(2)
	defer p.Close()
	job := &PackedJob{}
	GemmPackedPooled(p, job, 8, a, pb, c) // warm the rounding buffer
	allocs := testing.AllocsPerRun(20, func() {
		GemmPackedPooled(p, job, 8, a, pb, c)
		GemmPackedPooled(p, job, 1, a, pb, c)
	})
	if allocs != 0 {
		t.Errorf("GemmPackedPooled allocated %v times per run, want 0", allocs)
	}
}

func TestPackedBBytesAndPanels(t *testing.T) {
	b := make([]float32, 10*33)
	b[7] = 1.1 // not a bfloat16: 32-bit storage
	pb := PackB(10, 33, b)
	if got, want := pb.Panels(), 3; got != want {
		t.Errorf("Panels() = %d, want %d", got, want)
	}
	if got, want := pb.Bytes(), int64(3*10*PanelCols*4); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
	// Storage follows the data: all-bfloat16 values take 16 bits each.
	b[7] = 1.5
	if got, want := PackB(10, 33, b).Bytes(), int64(3*10*PanelCols*2); got != want {
		t.Errorf("Bytes() of bfloat16-representable weights = %d, want %d", got, want)
	}
	if runtime.GOMAXPROCS(0) < 1 {
		t.Fatal("impossible")
	}
}

// TestPackBBF16MatchesGoLoop holds the vector BF16 pack — from float32
// weights (PackBBF16) and from their bfloat16 bits (PackBBF16Bits) — to the
// Go loop bit for bit, pairs and exponent range, over odd K, ragged N and
// every special a weight can be: signed zeros, denormals (and values that
// round to one), infinities, quiet and signalling NaNs, and values that
// round up to Inf. The FP32 pack of the bits must be PackB's. Under
// -simd it runs at every level.
func TestPackBBF16MatchesGoLoop(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	snan := math.Float32frombits(0x7f800001)
	specials := []float32{0, negZero, denormal, -denormal, 1e-39, -1.17e-38, inf, -inf, nan, snan,
		math.MaxFloat32, -math.MaxFloat32, 1e30, 3e-38}
	shapes := []struct{ k, n int }{{1, 1}, {1, 15}, {2, 16}, {3, 17}, {7, 33}, {33, 48}, {64, 97}, {65, 256}, {31, 1024}, {0, 5}, {4, 0}}
	for _, s := range shapes {
		for _, sp := range [][]float32{nil, specials, specials[:6], {inf}} {
			b := randMat(r, s.k*s.n)
			if sp != nil {
				sprinkle(r, b, sp...)
			}
			want := packInto(s.k, s.n, b, s.n, 1, true)
			bits := make([]uint16, len(b))
			NarrowBF16(bits, b)
			for name, got := range map[string]*PackedB{"PackBBF16": PackBBF16(s.k, s.n, b), "PackBBF16Bits": PackBBF16Bits(s.k, s.n, bits)} {
				if got.exps != want.exps {
					t.Errorf("%dx%d specials %v: %s exponent range %+v, Go loop %+v", s.k, s.n, sp, name, got.exps, want.exps)
				}
				if len(got.pairs) != len(want.pairs) || got.data != nil || got.bf != nil || !got.BF16 {
					t.Fatalf("%dx%d: %s storage differs from the Go loop's", s.k, s.n, name)
				}
				for i := range want.pairs {
					if got.pairs[i] != want.pairs[i] {
						t.Errorf("%dx%d specials %v: %s word %d is %#08x, Go loop %#08x", s.k, s.n, sp, name, i, got.pairs[i], want.pairs[i])
						break
					}
				}
			}
			widened := make([]float32, len(bits))
			for i, h := range bits {
				widened[i] = math.Float32frombits(uint32(h) << 16)
			}
			if fp32, ref := PackBBits(s.k, s.n, bits), PackB(s.k, s.n, widened); ref.bf != nil && !slices.Equal(fp32.bf, ref.bf) {
				t.Errorf("%dx%d specials %v: PackBBits differs from PackB of the widened bits", s.k, s.n, sp)
			}
		}
	}
}
