package kernels

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
	"testing/quick"
)

// -simd runs the whole package at a lower SIMD level than the host's, so
// CI checks the levels a host's CPU would never select (`make
// kernels-portable` runs every one the runner has):
//
//	go test ./internal/kernels/ -args -simd=avx2
//
// A level above the host's is clamped to it. -generic is -simd=generic.
var (
	forceSIMD    = flag.String("simd", "", "run every test at this SIMD level: one of levelNames, at most the host's")
	forceGeneric = flag.Bool("generic", false, "run every test on the generic Go kernels (-simd=generic)")
)

func TestMain(m *testing.M) {
	flag.Parse()
	if *forceGeneric {
		*forceSIMD = "generic"
	}
	if *forceSIMD != "" {
		want := slices.Index(levelNames[:], *forceSIMD)
		if want < 0 {
			fmt.Fprintf(os.Stderr, "-simd=%s: not one of %v\n", *forceSIMD, levelNames)
			os.Exit(2)
		}
		simdLevel = min(simdLevel, level(want))
	}
	os.Exit(m.Run())
}

func TestSIMDLevelReported(t *testing.T) {
	t.Logf("packed GEMM micro-kernel: %s", SIMDLevel())
	if *forceSIMD == "" {
		return
	}
	if want := slices.Index(levelNames[:], *forceSIMD); int(simdLevel) > want {
		t.Errorf("SIMDLevel() = %q under -simd=%s", SIMDLevel(), *forceSIMD)
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
		// Around every tile height (4, 8, 16, and TMUL's band of 32) and the
		// row-split bounds.
		m: pick(1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 48, 64, 100, 128),
		// Around TMUL's block of 32, and long.
		k: pick(0, 1, 2, 3, 7, 16, 17, 31, 32, 33, 64, 255, 1000+r.Intn(200)),
		// Around one panel, the 4 × 2 tile's pair, and the GEMV's four and
		// eight.
		n:    pick(1, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 97, 127, 128, 129, 1+r.Intn(130)),
		bf16: r.Intn(2) == 0,
		off:  r.Intn(8), // float32 slices are only ever 4-byte aligned
	}
	if s.m > 32 && s.m != 64 && s.k > 255 {
		s.k = 255 // past 32 rows only 64 keeps the long K: the Go loops are slow under -race
	}
	s.a = randMat(r, s.off+s.m*s.k)[s.off:]
	s.b = randMat(r, s.k*s.n)
	switch r.Intn(5) {
	case 0: // zeros of both signs: the BF16 skip
		sprinkle(r, s.a, 0, negZero)
	case 1:
		sprinkle(r, s.a, 0, negZero, nan, inf, -inf)
	case 2: // non-finite weights: 0·Inf must stay skipped on a BF16 pack
		sprinkle(r, s.a, 0, negZero)
		sprinkle(r, s.b, inf, -inf)
	case 3:
		// Exponent stress: products that overflow (an unrounded −2¹³⁰ added
		// to +Inf is +Inf where the rounded one gives NaN), that fall into
		// or below the denormals (where the product's rounding is no longer
		// a no-op), or neither — and bfloat16 denormals among the operands.
		// A fused multiply-add differs on these unless it is guarded.
		scale(s.a, pick(-70, -60, 60, 70)+r.Intn(5))
		scale(s.b, pick(-70, -60, 60, 70)+r.Intn(5))
		if r.Intn(2) == 0 {
			sprinkle(r, s.a, 0, bf16Denormal, -bf16Denormal)
			sprinkle(r, s.b, bf16Denormal, -bf16Denormal)
		}
	}
	return s
}

// bf16Denormal survives rounding to bfloat16 as a denormal.
var bf16Denormal = math.Float32frombits(0x00250000)

// scale multiplies v by 2^exp.
func scale(v []float32, exp int) {
	for i := range v {
		v[i] = float32(math.Ldexp(float64(v[i]), exp))
	}
}

func (s simdCase) pack() *PackedB {
	if s.bf16 {
		return PackBBF16(s.k, s.n, s.b)
	}
	return PackB(s.k, s.n, s.b)
}

// out returns a fresh output slice at the case's unaligned offset, filled
// with a value no GEMM produces so an unwritten element shows, and with a
// guard of the same value past its end (up to its capacity) that no store
// may reach.
func (s simdCase) out() []float32 {
	c := make([]float32, s.off+s.m*s.n+2*PanelCols)
	for i := range c {
		c[i] = 12345
	}
	return c[s.off : s.off+s.m*s.n]
}

func TestSIMDMatchesGenericQuick(t *testing.T) {
	// Every draw is small enough that GemmPackedPooled runs it inline; a
	// threshold of zero sends it through the pool's row and panel splits.
	// A BF16 draw's Go loop is held to GemmTileBF16 as well.
	pools := map[string]*Pool{}
	for _, workers := range []int{1, 2, 3} {
		pools[fmt.Sprintf("split over %d", workers)] = NewPool(workers)
	}
	defer func() {
		for _, p := range pools {
			p.Close()
		}
	}()
	var job PackedJob
	prop := func(seed int64) bool {
		s := drawSIMDCase(seed)
		pb := s.pack()
		want := s.out()
		GemmPackedGeneric(s.m, s.a, pb, want)
		got := map[string][]float32{"serial": s.out(), "pooled": s.out()}
		if s.bf16 {
			got["GemmTileBF16"] = s.out()
			GemmTileBF16(s.m, s.n, s.k, s.a, s.b, got["GemmTileBF16"])
		}
		GemmPacked(s.m, s.a, pb, got["serial"])
		GemmPackedPooled(pools["split over 3"], &job, s.m, s.a, pb, got["pooled"])
		for name, p := range pools {
			got[name] = s.out()
			gemmPackedPooled(p, &job, s.m, s.a, pb, got[name], 0)
		}
		for name, c := range got {
			for _, v := range c[len(c):cap(c)] {
				if v != 12345 {
					t.Errorf("seed %d %s: a store passed the end of C", seed, name)
					return false
				}
			}
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

// TestFMAExactIsSound multiplies, for every pair of exponents fmaExact
// admits, the bfloat16 values with the shortest and the longest significand
// at each. The float32 product must be the exact one, or a separate
// multiply would round what the rule does not; and a multiple of 2⁻¹²⁶,
// or a sum of products could be denormal and the rule would flush it. And
// the guard must admit what a model's operands look like, or the vector
// kernels would never run.
func TestFMAExactIsSound(t *testing.T) {
	admitted := 0
	for ea := 0; ea < 256; ea++ {
		for ew := 0; ew < 256; ew++ {
			if !fmaExact(expRange{uint8(ea), uint8(ea)}, expRange{uint8(ew), uint8(ew)}) {
				continue
			}
			admitted++
			for _, fa := range []uint32{0, 0x7f0000} {
				for _, fw := range []uint32{0, 0x7f0000} {
					a := math.Float32frombits(uint32(ea)<<23 | fa)
					w := math.Float32frombits(uint32(ew)<<23 | fw)
					exact := float64(a) * float64(w) // 16 significant bits: exact in float64
					switch p := a * w; {
					case float64(p) != exact:
						t.Fatalf("fmaExact admits exponents %d, %d but %g·%g = %g in float32, %g exactly", ea, ew, a, w, p, exact)
					case math.Mod(exact, 0x1p-126) != 0:
						t.Fatalf("fmaExact admits exponents %d, %d but %g·%g is not a multiple of 2⁻¹²⁶", ea, ew, a, w)
					}
				}
			}
		}
	}
	if admitted == 0 {
		t.Fatal("fmaExact admits nothing")
	}
	// Activations from 2⁻²⁰ to 2¹⁰ against weights from 2⁻²⁴ to 2².
	if !fmaExact(expRange{107, 137}, expRange{103, 129}) {
		t.Error("fmaExact rejects ordinary operands")
	}
	for _, r := range []expRange{{0, 130}, {120, 255}} { // a denormal; an Inf or NaN
		if fmaExact(r, expRange{120, 130}) || fmaExact(expRange{120, 130}, r) {
			t.Errorf("fmaExact admits %+v", r)
		}
	}
	if !fmaExact(noExps, expRange{1, 254}) || !fmaExact(expRange{1, 254}, noExps) {
		t.Error("fmaExact rejects an all-zero operand, whose products are all ±0")
	}
}

// TestFP32PackNeverFused holds the FP32-numerics packs to the separately
// rounded multiply and add at every level — including the pack that shares
// the BF16 packs' 16-bit panels because its weights happen to be bfloat16.
// The operands make the difference visible: the activations are not
// bfloat16, so nearly every product is inexact and a fused multiply-add
// (math.FMA here) lands on other bits.
func TestFP32PackNeverFused(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for _, m := range []int{2, 4, 8, 16, 33} {
		k, n := 64, 40
		a, b := randMat(r, m*k), randMat(r, k*n)
		for _, storage := range []string{"32-bit", "16-bit"} {
			if storage == "16-bit" {
				RoundBF16Into(b, b)
			}
			pb := PackB(k, n, b)
			if (pb.bf != nil) != (storage == "16-bit") {
				t.Fatalf("%s pack stored otherwise", storage)
			}
			fused := make([]float32, m*n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					acc := float32(0)
					for p := 0; p < k; p++ {
						acc = float32(math.FMA(float64(a[i*k+p]), float64(b[p*n+j]), float64(acc)))
					}
					fused[i*n+j] = acc
				}
			}
			want, got := make([]float32, m*n), make([]float32, m*n)
			GemmNaive(m, n, k, a, b, want)
			if _, same := bitsEqual(want, fused); same {
				t.Fatalf("m=%d %s: a fused multiply-add would not show on these operands", m, storage)
			}
			GemmPacked(m, a, pb, got)
			if i, ok := bitsEqual(want, got); !ok {
				t.Errorf("m=%d %s storage: element %d is %x, separately rounded %x (fused %x)", m, storage, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(fused[i]))
			}
		}
	}
}

// TestSIMDSkipFreeOnFinitePack pins what replaced the BF16 zero skip: the
// TMUL rule multiplies every activation through, so a zero against an
// infinite weight is NaN, and at every level a BF16 GEMM over zero, NaN and
// ±Inf activations has the Go loop's bits. The pack records non-finite
// weights (including a finite value that rounds up to a bfloat16 infinity),
// which keep the vector kernels off it.
func TestSIMDSkipFreeOnFinitePack(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, m := range []int{1, 4, 40} {
		k, n := 300, 40
		a, b := randMat(r, m*k), randMat(r, k*n)
		sprinkle(r, a, 0, negZero, 0, negZero, nan, inf, -inf)
		sprinkle(r, b, 0, negZero) // −0 weights: products of either sign of zero
		pb := PackBBF16(k, n, b)
		want, got := make([]float32, m*n), make([]float32, m*n)
		GemmPackedGeneric(m, a, pb, want)
		GemmPacked(m, a, pb, got)
		if i, ok := bitsEqual(want, got); !ok {
			t.Errorf("m=%d: element %d is %x, generic %x", m, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	c := []float32{1}
	if GemmTileBF16(1, 1, 1, []float32{0}, []float32{inf}, c); !math.IsNaN(float64(c[0])) {
		t.Errorf("0·Inf = %g, want NaN", c[0])
	}
	for _, w := range []float32{inf, nan, math.MaxFloat32} {
		if PackBBF16(1, 1, []float32{w}).exps.hi != 255 {
			t.Errorf("non-finite bfloat16 weight %g not detected at pack time", w)
		}
	}
}

// TestGemmPackedPooledSplitsMatchGeneric covers both pool splits with
// larger GEMMs than the quick test draws (the shapes in packShapes all run
// inline): row bands whose size is not a multiple of the register tile,
// panel bands that are not a multiple of four, and a ragged last panel.
// They are sent through the splits whatever the running level's threshold
// (a GEMM above the 512-bit tiles' takes the Go loop seconds under -race).
func TestGemmPackedPooledSplitsMatchGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	shapes := []struct{ m, n, k int }{
		{1, 1031, 1100}, // GEMV, panel split, 65 panels
		{5, 520, 512},   // panel split, several rows
		{32, 263, 130},  // row split at 2 workers (and at 3 on the AVX2 kernels)
		{13, 700, 128},  // AVX2 kernels: row split at 2-3 workers, panel split at 8
		{45, 130, 190},  // row split, a ragged last band
	}
	for _, workers := range []int{2, 3, 8} {
		p := NewPool(workers)
		var job PackedJob
		for _, s := range shapes {
			for _, bf16 := range []bool{false, true} {
				c := simdCase{m: s.m, k: s.k, n: s.n, bf16: bf16, a: randMat(r, s.m*s.k), b: randMat(r, s.k*s.n)}
				sprinkle(r, c.a, 0, negZero)
				pb := c.pack()
				want, got := c.out(), c.out()
				GemmPackedGeneric(s.m, c.a, pb, want)
				gemmPackedPooled(p, &job, s.m, c.a, pb, got, 0)
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
	a := randMat(r, 32*k)
	c := make([]float32, 32*n)

	// The serial entries, the gemv probe's among them: the rounded or
	// narrowed activation copy comes from recycled scratch, race detector
	// or not.
	if allocs := testing.AllocsPerRun(20, func() { GemvPacked(a[:k], pb, c[:n]) }); allocs != 0 {
		t.Errorf("GemvPacked on a BF16 pack allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { GemmPacked(16, a, pb, c) }); allocs != 0 {
		t.Errorf("GemmPacked (recycled scratch) allocated %v times per run, want 0", allocs)
	}

	// Pool dispatch in both split regimes (unlike
	// TestGemmPackedPooledZeroAllocSteadyState's GEMMs, which run inline).
	p := NewPool(2)
	defer p.Close()
	job := &PackedJob{}
	gemmPackedPooled(p, job, 32, a, pb, c, 0)
	allocs := testing.AllocsPerRun(20, func() {
		gemmPackedPooled(p, job, 32, a, pb, c, 0) // rows
		gemmPackedPooled(p, job, 5, a, pb, c, 0)  // panels
	})
	if allocs != 0 {
		t.Errorf("pooled dispatch allocated %v times per run, want 0", allocs)
	}
}
