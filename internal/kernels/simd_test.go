package kernels

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
)

// -generic runs the whole package on the portable Go kernels, so CI checks
// the fallback on a host whose CPU would never select it:
//
//	go test ./internal/kernels/ -args -generic
var forceGeneric = flag.Bool("generic", false, "run every test on the generic Go kernels")

func TestMain(m *testing.M) {
	flag.Parse()
	if *forceGeneric {
		simdLevel = ""
	}
	os.Exit(m.Run())
}

func TestSIMDLevelReported(t *testing.T) {
	t.Logf("packed GEMM micro-kernel: %s", SIMDLevel())
	if *forceGeneric && SIMDLevel() != "generic" {
		t.Errorf("SIMDLevel() = %q under -generic", SIMDLevel())
	}
}

var (
	negZero = float32(math.Copysign(0, -1))
	inf     = float32(math.Inf(1))
	// The NaN x86 itself produces for Inf−Inf and 0·Inf, so every NaN in
	// play has one bit pattern. Which of two different NaNs an add keeps is
	// the compiler's choice of operand order — the FP32 and BF16 Go loops
	// already disagree on it — and nothing a kernel can match.
	nan = math.Float32frombits(0xffc00000)
)

// sprinkle overwrites about one value in eight with one of specials.
func sprinkle(r *rand.Rand, v []float32, specials ...float32) {
	for i := range v {
		if r.Intn(8) == 0 {
			v[i] = specials[r.Intn(len(specials))]
		}
	}
}

// simdCase is one randomly drawn packed GEMM; everything about it derives
// from the seed, so a failure replays.
type simdCase struct {
	m, k, n int
	bf16    bool
	off     int // a and c start this many elements into their backing arrays
	a, b    []float32
}

func drawSIMDCase(seed int64) simdCase {
	r := rand.New(rand.NewSource(seed))
	pick := func(v ...int) int { return v[r.Intn(len(v))] }
	s := simdCase{
		m:    pick(1, 3, 4, 5, 32),
		k:    pick(0, 1, 2, 3, 7, 16, 17, 33, 64, 255, 1000+r.Intn(200)),
		n:    pick(1, 15, 16, 17, 31, 33, 48, 63, 64, 65, 97, 1+r.Intn(130)),
		bf16: r.Intn(2) == 0,
		off:  r.Intn(8), // float32 slices are only ever 4-byte aligned
	}
	s.a = randMat(r, s.off+s.m*s.k)[s.off:]
	s.b = randMat(r, s.k*s.n)
	switch r.Intn(4) {
	case 0: // zeros of both signs: the BF16 skip
		sprinkle(r, s.a, 0, negZero)
	case 1:
		sprinkle(r, s.a, 0, negZero, nan, inf, -inf)
	case 2: // non-finite weights: 0·Inf must stay skipped on a BF16 pack
		sprinkle(r, s.a, 0, negZero)
		sprinkle(r, s.b, inf, -inf)
	}
	return s
}

func (s simdCase) pack() *PackedB {
	if s.bf16 {
		return PackBBF16(s.k, s.n, s.b)
	}
	return PackB(s.k, s.n, s.b)
}

// out returns a fresh output slice at the case's unaligned offset, filled
// with a value no GEMM produces so an unwritten element shows.
func (s simdCase) out() []float32 {
	c := make([]float32, s.off+s.m*s.n)
	for i := range c {
		c[i] = 12345
	}
	return c[s.off:]
}

func TestSIMDMatchesGenericQuick(t *testing.T) {
	pool := NewPool(3)
	defer pool.Close()
	var job PackedJob
	prop := func(seed int64) bool {
		s := drawSIMDCase(seed)
		pb := s.pack()
		want, got, pooled := s.out(), s.out(), s.out()
		GemmPackedGeneric(s.m, s.a, pb, want)
		GemmPacked(s.m, s.a, pb, got)
		GemmPackedPooled(pool, &job, s.m, s.a, pb, pooled)
		for name, c := range map[string][]float32{"serial": got, "pooled": pooled} {
			if i, ok := bitsEqual(want, c); !ok {
				t.Errorf("seed %d (m=%d k=%d n=%d bf16=%v off=%d) %s: element %d is %x, generic %x",
					seed, s.m, s.k, s.n, s.bf16, s.off, name, i,
					math.Float32bits(c[i]), math.Float32bits(want[i]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20))}); err != nil {
		t.Error(err)
	}
}

// TestSIMDSkipFreeOnFinitePack pins the argument the BF16 kernels rest on:
// over finite weights, multiplying a zero activation through instead of
// skipping it leaves every bit the same — including when NaN and ±Inf
// activations have already poisoned the accumulator.
func TestSIMDSkipFreeOnFinitePack(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 4} {
		k, n := 300, 40
		a, b := randMat(r, m*k), randMat(r, k*n)
		sprinkle(r, a, 0, negZero, 0, negZero, nan, inf, -inf)
		sprinkle(r, b, 0, negZero) // −0 weights: products of either sign of zero
		pb := PackBBF16(k, n, b)
		if !pb.finite {
			t.Fatal("finite weights packed as non-finite")
		}
		want, got := make([]float32, m*n), make([]float32, m*n)
		GemmPackedGeneric(m, a, pb, want)
		GemmPacked(m, a, pb, got)
		if i, ok := bitsEqual(want, got); !ok {
			t.Errorf("m=%d: element %d is %x, generic %x", m, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	if PackBBF16(1, 1, []float32{inf}).finite || PackBBF16(1, 1, []float32{nan}).finite {
		t.Error("non-finite weight not detected at pack time")
	}
	// A finite FP32 value can round up to a BF16 infinity.
	if PackBBF16(1, 1, []float32{math.MaxFloat32}).finite {
		t.Error("BF16 overflow to Inf not detected at pack time")
	}
}

// TestGemmPackedPooledSplitsMatchGeneric covers both pool splits with
// GEMMs above minSplitMACs (the shapes in packShapes all run inline): row
// bands whose size is not a multiple of the register block, panel bands
// that are not a multiple of four, and a ragged last panel.
func TestGemmPackedPooledSplitsMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	shapes := []struct{ m, n, k int }{
		{1, 1031, 1100}, // GEMV, panel split, 65 panels
		{5, 520, 512},   // panel split, several rows
		{32, 263, 130},  // row split
		{13, 700, 128},  // row split at 2-3 workers, panel split at 8
	}
	for _, workers := range []int{2, 3, 8} {
		p := NewPool(workers)
		var job PackedJob
		for _, s := range shapes {
			if s.m*s.k*((s.n+PanelCols-1)/PanelCols)*PanelCols < minSplitMACs {
				t.Fatalf("shape %+v would run inline", s)
			}
			for _, bf16 := range []bool{false, true} {
				c := simdCase{m: s.m, k: s.k, n: s.n, bf16: bf16, a: randMat(r, s.m*s.k), b: randMat(r, s.k*s.n)}
				sprinkle(r, c.a, 0, negZero)
				pb := c.pack()
				want, got := c.out(), c.out()
				GemmPackedGeneric(s.m, c.a, pb, want)
				GemmPackedPooled(p, &job, s.m, c.a, pb, got)
				if i, ok := bitsEqual(want, got); !ok {
					t.Errorf("shape %+v workers=%d bf16=%v: pooled differs from generic at %d", s, workers, bf16, i)
				}
			}
		}
		p.Close()
	}
}

func TestPackedZeroAlloc(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	k, n := 256, 1040
	pb := PackBBF16(k, n, randMat(r, k*n))
	a := randMat(r, 16*k)
	c := make([]float32, 16*n)

	// The serial entry the gemv probe times: the rounded activation copy
	// must not come from the heap.
	if allocs := testing.AllocsPerRun(20, func() { GemvPacked(a[:k], pb, c[:n]) }); allocs != 0 {
		t.Errorf("GemvPacked on a BF16 pack allocated %v times per run, want 0", allocs)
	}
	GemmPacked(16, a, pb, c) // too big for the stack buffer: warm the recycled scratch
	if allocs := testing.AllocsPerRun(20, func() { GemmPacked(16, a, pb, c) }); allocs != 0 {
		t.Errorf("GemmPacked (recycled scratch) allocated %v times per run, want 0", allocs)
	}

	// Pool dispatch in both split regimes (these GEMMs are above
	// minSplitMACs, unlike TestGemmPackedPooledZeroAllocSteadyState's).
	p := NewPool(2)
	defer p.Close()
	job := &PackedJob{}
	GemmPackedPooled(p, job, 16, a, pb, c)
	allocs := testing.AllocsPerRun(20, func() {
		GemmPackedPooled(p, job, 16, a, pb, c) // rows
		GemmPackedPooled(p, job, 5, a, pb, c)  // panels
	})
	if allocs != 0 {
		t.Errorf("pooled dispatch allocated %v times per run, want 0", allocs)
	}
}
