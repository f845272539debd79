package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randMat(r *rand.Rand, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32(r.NormFloat64())
	}
	return m
}

func maxAbsDiff(a, b []float32) float64 {
	var md float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > md {
			md = d
		}
	}
	return md
}

// gemmShapes covers square, tall, wide, tile-aligned and ragged shapes.
var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{3, 5, 7},
	{16, 16, 32}, // exactly one AMX tile step
	{17, 19, 33}, // ragged around tile boundaries
	{64, 64, 64},
	{1, 128, 96}, // GEMV-like
	{128, 1, 96},
	{80, 48, 100},
}

func TestGemmTileBF16MatchesBF16Reference(t *testing.T) {
	// The tile kernel must equal a naive GEMM over bf16-rounded inputs
	// with FP32 accumulation (same accumulation order up to tiling; allow
	// small reassociation slack).
	r := rand.New(rand.NewSource(3))
	for _, s := range gemmShapes {
		a, b := randMat(r, s.m*s.k), randMat(r, s.k*s.n)
		ar := make([]float32, len(a))
		for i := range a {
			ar[i] = tensor.RoundBF16(a[i])
		}
		br := make([]float32, len(b))
		for i := range b {
			br[i] = tensor.RoundBF16(b[i])
		}
		want := make([]float32, s.m*s.n)
		GemmNaive(s.m, s.n, s.k, ar, br, want)
		got := make([]float32, s.m*s.n)
		GemmTileBF16(s.m, s.n, s.k, a, b, got)
		if d := maxAbsDiff(want, got); d > 1e-3*float64(s.k) {
			t.Errorf("shape %+v: tile bf16 diff %g", s, d)
		}
	}
}

func TestGemmInt8MatchesDequantizedNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m, n, k := 24, 18, 40
	a, b := randMat(r, m*k), randMat(r, k*n)
	aq, sa := tensor.QuantizeInt8(a)
	bq, sb := tensor.QuantizeInt8(b)
	ad := tensor.DequantizeInt8(aq, sa)
	bd := tensor.DequantizeInt8(bq, sb)
	want := make([]float32, m*n)
	GemmNaive(m, n, k, ad, bd, want)
	got := make([]float32, m*n)
	GemmInt8(m, n, k, aq, sa, transposeInt8(k, n, bq), sb, got)
	if d := maxAbsDiff(want, got); d > 1e-3 {
		t.Errorf("int8 gemm diff %g", d)
	}
}

// gemmInt8RowMajor is GemmInt8 over a row-major k×n Bq, walking it down
// its columns: the oracle the transposed layout is held to.
func gemmInt8RowMajor(m, n, k int, aq []int8, scaleA float32, bq []int8, scaleB float32, c []float32) {
	scale := scaleA * scaleB
	for i := 0; i < m; i++ {
		arow := aq[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			var sum int32
			for p := 0; p < k; p++ {
				sum += int32(arow[p]) * int32(bq[p*n+j])
			}
			c[i*n+j] = float32(sum) * scale
		}
	}
}

// transposeInt8 returns the row-major k×n b as n×k.
func transposeInt8(k, n int, b []int8) []int8 {
	t := make([]int8, k*n)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			t[j*k+p] = b[p*n+j]
		}
	}
	return t
}

// TestGemmInt8MatchesRowMajorLoop holds GemmInt8 over the transposed
// weight to the row-major loop bit for bit, on ragged shapes and with the
// extremes -128 and 127 in both operands (sums that overflow int32 wrap
// alike either way).
func TestGemmInt8MatchesRowMajorLoop(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	randInt8 := func(n int) []int8 {
		q := make([]int8, n)
		for i := range q {
			switch r.Intn(8) {
			case 0:
				q[i] = -128
			case 1:
				q[i] = 127
			default:
				q[i] = int8(r.Intn(256) - 128)
			}
		}
		return q
	}
	for _, s := range []struct{ m, n, k int }{{1, 1, 1}, {1, 17, 33}, {3, 5, 7}, {4, 97, 64}, {5, 31, 130}, {2, 3, 1 << 17}} {
		aq, bq := randInt8(s.m*s.k), randInt8(s.k*s.n)
		want, got := make([]float32, s.m*s.n), make([]float32, s.m*s.n)
		gemmInt8RowMajor(s.m, s.n, s.k, aq, 0.5, bq, 0.25, want)
		GemmInt8(s.m, s.n, s.k, aq, 0.5, transposeInt8(s.k, s.n, bq), 0.25, got)
		if i, ok := bitsEqual(want, got); !ok {
			t.Errorf("shape %+v: GemmInt8 differs from the row-major loop at %d: %v vs %v", s, i, got[i], want[i])
		}
	}
	all := make([]int8, 1<<17) // 2^17 · (-128)² = 2^31: the sum wraps
	for i := range all {
		all[i] = -128
	}
	want, got := make([]float32, 1), make([]float32, 1)
	gemmInt8RowMajor(1, 1, len(all), all, 1, all, 1, want)
	GemmInt8(1, 1, len(all), all, 1, all, 1, got)
	if want[0] != got[0] {
		t.Errorf("wrapping sum: got %v, want %v", got[0], want[0])
	}
}

func TestGemmLinearityProperty(t *testing.T) {
	// Property: GEMM is linear in A — (αA)·B == α(A·B).
	r := rand.New(rand.NewSource(8))
	f := func(seed int64, alphaRaw uint8) bool {
		rr := rand.New(rand.NewSource(seed))
		alpha := float32(alphaRaw%7) - 3
		m, n, k := 1+rr.Intn(12), 1+rr.Intn(12), 1+rr.Intn(12)
		a, b := randMat(rr, m*k), randMat(rr, k*n)
		scaled := make([]float32, len(a))
		for i := range a {
			scaled[i] = alpha * a[i]
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		pb := PackB(k, n, b)
		GemmPacked(m, scaled, pb, c1)
		GemmPacked(m, a, pb, c2)
		for i := range c2 {
			c2[i] *= alpha
		}
		return maxAbsDiff(c1, c2) < 1e-3
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGemmIdentityProperty(t *testing.T) {
	// Property: A·I == A.
	r := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 5, 17, 32} {
		a := randMat(r, n*n)
		id := make([]float32, n*n)
		for i := 0; i < n; i++ {
			id[i*n+i] = 1
		}
		c := make([]float32, n*n)
		GemmPacked(n, a, PackB(n, n, id), c)
		if d := maxAbsDiff(a, c); d > 1e-5 {
			t.Errorf("n=%d: A·I diff %g", n, d)
		}
	}
}

func TestGemmPanicsOnShortSlices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on short slice")
		}
	}()
	GemmNaive(4, 4, 4, make([]float32, 15), make([]float32, 16), make([]float32, 16))
}
