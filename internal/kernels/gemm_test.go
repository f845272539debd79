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
