package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rowCase is one randomly drawn row for the row ops; everything derives
// from the seed, so a failure replays.
type rowCase struct {
	r *rand.Rand
	n int
}

// drawRowCase picks a length in 1..600: short rows (attention at the start
// of a context), every tail around multiples of eight and sixteen, and
// long ones.
func drawRowCase(seed int64) rowCase {
	r := rand.New(rand.NewSource(seed))
	var n int
	switch r.Intn(3) {
	case 0:
		n = 1 + r.Intn(40)
	case 1:
		n = max(1, 16*(1+r.Intn(20))+r.Intn(7)-3)
	default:
		n = 1 + r.Intn(600)
	}
	return rowCase{r: r, n: n}
}

// row returns n values at an unaligned offset, scaled so that exp's range
// is crossed (softmax logits a thousand apart underflow), and about one row
// in two with specials: signed zeros, denormals, infinities, the one NaN,
// and the edges of Exp32's range.
func (c rowCase) row(n int) []float32 {
	off := c.r.Intn(8)
	v := randMat(c.r, off+n)[off:]
	scale := []float32{1, 8, 60, 1000}[c.r.Intn(4)]
	for i := range v {
		v[i] *= scale
	}
	if c.r.Intn(2) == 0 {
		up := float32(math.Inf(1))
		sprinkle(c.r, v, 0, negZero, denormal, -denormal, inf, -inf, nan, math.MaxFloat32, 1e-30,
			expHi, math.Nextafter32(expHi, up), expLo, math.Nextafter32(expLo, -up), -expHi, -expLo)
	}
	return v
}

func TestRowOpsMatchGoLoopsQuick(t *testing.T) {
	prop := func(seed int64) bool {
		c := drawRowCase(seed)
		ok := true

		x := c.row(c.n)
		want, got := clone(x), clone(x)
		SoftmaxGo(want)
		Softmax(got)
		ok = sameBits(t, "Softmax", seed, want, got) && ok

		want, got = clone(x), clone(x)
		SiLUGo(want)
		SiLU(got)
		ok = sameBits(t, "SiLU", seed, want, got) && ok

		// The norms write into dst (stale values there must not leak in)
		// and in place.
		gain, bias := c.row(c.n), c.row(c.n)
		eps := []float32{1e-5, 0, 1}[c.r.Intn(3)]
		want, got = c.row(c.n), c.row(c.n)
		LayerNormGo(want, x, gain, bias, eps)
		LayerNorm(got, x, gain, bias, eps)
		ok = sameBits(t, "LayerNorm", seed, want, got) && ok
		inPlace := clone(x)
		LayerNorm(inPlace, inPlace, gain, bias, eps)
		ok = sameBits(t, "LayerNorm in place", seed, want, inPlace) && ok

		want, got = c.row(c.n), c.row(c.n)
		RMSNormGo(want, x, gain, eps)
		RMSNorm(got, x, gain, eps)
		ok = sameBits(t, "RMSNorm", seed, want, got) && ok
		inPlace = clone(x)
		RMSNorm(inPlace, inPlace, gain, eps)
		ok = sameBits(t, "RMSNorm in place", seed, want, inPlace) && ok
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1500, Rand: rand.New(rand.NewSource(32))}); err != nil {
		t.Error(err)
	}
}

// TestReductionRule pins the lane order on a row where any other order
// gives other bits: 2²⁴ followed by fifteen ones sums to 2²⁴ + 14 in
// sixteen lanes folded (l, l+8) … (l, l+1), where one ascending chain gives
// 2²⁴ (each 2²⁴ + 1 is a tie, rounded to even). RMSNorm of 4096 and fifteen
// ±1 squares to that row, so its first output is 4 only under the chain.
func TestReductionRule(t *testing.T) {
	var acc [redLanes]float32
	acc[0] = 1 << 24
	for l := 1; l < redLanes; l++ {
		acc[l] = 1
	}
	if got := fold(&acc); got != 1<<24+14 {
		t.Fatalf("fold = %v, want 2^24+14", got)
	}
	x, gain := make([]float32, 16), make([]float32, 16)
	x[0] = 4096
	for i := range gain {
		gain[i] = 1
		if i > 0 {
			x[i] = float32(1 - 2*(i%2))
		}
	}
	want := 4096 * (1 / float32(math.Sqrt(float64(float32(1<<24+14)/16))))
	for name, f := range map[string]func(dst, x, gain []float32, eps float32){"RMSNorm": RMSNorm, "RMSNormGo": RMSNormGo} {
		out := make([]float32, 16)
		if f(out, x, gain, 0); out[0] != want || out[0] == 4 {
			t.Errorf("%s of the probe row: first output %v, want %v", name, out[0], want)
		}
	}
}

// ulpsFrom is |got − want| in units of the last place of float32(want).
func ulpsFrom(got float32, want float64) float64 {
	w := float32(want)
	ulp := float64(math.Nextafter32(w, float32(math.Inf(1)))) - float64(w)
	return math.Abs(float64(got)-want) / ulp
}

// TestExp32Accuracy holds Exp32 to 2 ulp of math.Exp on a dense sweep of
// its finite range (every 509th float32 between the cutoffs) and on every
// float32 within 4096 of each cutoff and of zero, pins the special values,
// and — on a SIMD level — holds the vector exp to Exp32 bit for bit on the
// same inputs.
func TestExp32Accuracy(t *testing.T) {
	var xs []float32
	for b := uint64(0); b < 1<<32; b += 509 {
		if x := math.Float32frombits(uint32(b)); x >= expLo && x <= expHi {
			xs = append(xs, x)
		}
	}
	for _, edge := range []float32{expLo, expHi, 0, negZero} {
		x := edge
		for i := 0; i < 4096; i++ {
			x = math.Nextafter32(x, float32(math.Inf(-1)))
		}
		for i := 0; i < 8192; i++ {
			xs = append(xs, x)
			x = math.Nextafter32(x, float32(math.Inf(1)))
		}
	}
	worst, worstX := 0.0, float32(0)
	for _, x := range xs {
		got := Exp32(x)
		if x < expLo || x > expHi {
			continue // the cutoffs are pinned below
		}
		if e := ulpsFrom(got, math.Exp(float64(x))); e > worst {
			worst, worstX = e, x
		}
	}
	if worst > 2 {
		t.Errorf("Exp32(%v) is %.3f ulp from math.Exp", worstX, worst)
	}
	t.Logf("worst error %.3f ulp at %v over %d inputs", worst, worstX, len(xs))

	up := float32(math.Inf(1))
	for _, c := range []struct{ x, want float32 }{
		{0, 1}, {negZero, 1}, {inf, up}, {-inf, 0},
		{math.Nextafter32(expHi, up), up}, {math.MaxFloat32, up},
		{math.Nextafter32(expLo, -up), 0}, {-math.MaxFloat32, 0},
	} {
		if got := Exp32(c.x); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("Exp32(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if got := Exp32(expHi); math.IsInf(float64(got), 0) || got < 3.4e38 {
		t.Errorf("Exp32(expHi) = %v, want the largest finite result", got)
	}
	if got := Exp32(expLo); got < 0x1p-126 || got > 0x1.0001p-126 {
		t.Errorf("Exp32(expLo) = %v, want the smallest normal result", got)
	}
	snan := math.Float32frombits(0x7f800001) // arithmetic would quiet it
	for _, bits := range []uint32{0xffc00000, 0x7fc00000, 0x7fc00001, math.Float32bits(snan)} {
		if got := math.Float32bits(Exp32(math.Float32frombits(bits))); got != bits {
			t.Errorf("Exp32(NaN %#08x) = %#08x, want it unchanged", bits, got)
		}
	}

	if simdLevel < levelAVX2 {
		return
	}
	xs = append([]float32{inf, -inf, nan, -nan, snan, math.MaxFloat32, -math.MaxFloat32, denormal, -denormal}, xs...)
	got := make([]float32, len(xs)&^(vecLanes-1))
	exp32Vec(&got[0], &xs[0], len(got))
	for i, x := range xs[:len(got)] {
		if want := Exp32(x); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("vector exp(%v = %#08x) = %#08x, Exp32 %#08x",
				x, math.Float32bits(x), math.Float32bits(got[i]), math.Float32bits(want))
		}
	}
}
