package kernels

import "math"

// The row ops: softmax, LayerNorm, RMSNorm and SiLU. Their numerics are
// written down so that a vector unit and a Go loop produce the same bits,
// and each op is a Go loop (the …Go function: fallback, and the oracle its
// vector routine is tested against) plus, on hosts with a SIMD level, an
// AVX2 routine. The rule:
//
//   - A reduction — LayerNorm's mean and variance, RMSNorm's sum of
//     squares, softmax's sum — adds element i into lane i mod 16, i
//     ascending, every add rounded; a square is rounded before it is
//     added, never fused. The lanes then fold (l, l+8) → (l, l+4) →
//     (l, l+2) → (l, l+1). Sixteen lanes are two YMM chains, or one ZMM.
//   - exp is Exp32, one float32 routine for softmax and SiLU.
//   - Everything else is one separately rounded float32 operation per
//     step, in the order written; explicit float32(…) conversions keep a
//     compiler that fuses multiply-adds from fusing any of them.
//
// Every op works on one row, so its output does not depend on how rows
// are batched, chunked or cached.

// redLanes is the number of lanes a reduction spreads a row over.
const redLanes = 16

// fold reduces the lane sums as the rule says and returns the total.
func fold(acc *[redLanes]float32) float32 {
	for w := redLanes / 2; w > 0; w /= 2 {
		for l := 0; l < w; l++ {
			acc[l] += acc[l+w]
		}
	}
	return acc[0]
}

// Exp32's constants (the assembly's expc table holds the same bits). The
// reduction is Cody–Waite: ln2Hi has nine significant bits, so n·ln2Hi is
// exact for every n in range. The polynomial is a degree-6 fit of e^r on
// |r| ≤ ln2/2 with its two leading coefficients pinned to 1.
var (
	expLog2e = math.Float32frombits(0x3fb8aa3b) // log2(e)
	expLn2Hi = math.Float32frombits(0x3f318000) // 0.693359375
	expLn2Lo = math.Float32frombits(0xb95e8083) // ln 2 − ln2Hi
	expPoly  = [7]float32{1, 1,
		math.Float32frombits(0x3efffffc), math.Float32frombits(0x3e2aaa47),
		math.Float32frombits(0x3d2aadac), math.Float32frombits(0x3c091dcd),
		math.Float32frombits(0x3ab43e01)}
	// expHi is the largest x whose e^x is finite in float32, and expLo the
	// smallest whose e^x is normal: past them Exp32 returns +Inf and +0.
	expHi = math.Float32frombits(0x42b17217) // 88.72283
	expLo = math.Float32frombits(0xc2aeac4f) // −87.33654
)

// Exp32 is e^x in float32, within 2 ulp of math.Exp where the result is
// a normal number: n = roundEven(x·log2e), r = (x − n·ln2Hi) − n·ln2Lo, a
// degree-6 Horner polynomial in r, then n added to the result's exponent
// bits. Above expHi it returns +Inf, below expLo +0 (results that would be
// denormal flush), and a NaN passes through unchanged.
func Exp32(x float32) float32 {
	switch {
	case x > expHi:
		return float32(math.Inf(1))
	case x < expLo:
		return 0
	case x != x:
		return x
	}
	n := float32(math.RoundToEven(float64(float32(x * expLog2e))))
	r := float32(x-float32(n*expLn2Hi)) - float32(n*expLn2Lo)
	p := expPoly[6]
	for i := 5; i >= 0; i-- {
		p = float32(p*r) + expPoly[i]
	}
	return math.Float32frombits(math.Float32bits(p) + uint32(int32(n))<<23)
}

// Softmax computes an in-place numerically stable softmax over x:
// e_i = Exp32(x_i − max), then every e_i times 1/Σe.
func Softmax(x []float32) {
	if len(x) > 0 && simdLevel >= levelAVX2 {
		softmaxVec(&x[0], len(x))
		return
	}
	SoftmaxGo(x)
}

// SoftmaxGo is Softmax's portable loop.
func SoftmaxGo(x []float32) {
	if len(x) == 0 {
		return
	}
	maxV := x[0]
	for _, v := range x[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var acc [redLanes]float32
	for i, v := range x {
		e := Exp32(v - maxV)
		x[i] = e
		acc[i%redLanes] += e
	}
	inv := 1 / fold(&acc)
	for i := range x {
		x[i] *= inv
	}
}

// LayerNorm writes x normalized to zero mean and unit variance, then
// scaled by gain and shifted by bias elementwise, into dst (len(x) values;
// dst may be x). eps guards the variance. OPT models use LayerNorm.
func LayerNorm(dst, x, gain, bias []float32, eps float32) {
	n := len(x)
	dst, gain, bias = dst[:n], gain[:n], bias[:n]
	if n > 0 && simdLevel >= levelAVX2 {
		layerNormVec(&dst[0], &x[0], &gain[0], &bias[0], n, eps)
		return
	}
	LayerNormGo(dst, x, gain, bias, eps)
}

// LayerNormGo is LayerNorm's portable loop.
func LayerNormGo(dst, x, gain, bias []float32, eps float32) {
	n := float32(len(x))
	var acc [redLanes]float32
	for i, v := range x {
		acc[i%redLanes] += v
	}
	mean := fold(&acc) / n
	acc = [redLanes]float32{}
	for i, v := range x {
		d := v - mean
		acc[i%redLanes] += float32(d * d)
	}
	variance := fold(&acc) / n
	inv := 1 / float32(math.Sqrt(float64(variance+eps)))
	for i, v := range x {
		dst[i] = float32(float32((v-mean)*inv)*gain[i]) + bias[i]
	}
}

// RMSNorm writes x scaled to unit root mean square, then by gain
// elementwise, into dst (len(x) values; dst may be x) — the normalization
// LLaMA-2 uses.
func RMSNorm(dst, x, gain []float32, eps float32) {
	n := len(x)
	dst, gain = dst[:n], gain[:n]
	if n > 0 && simdLevel >= levelAVX2 {
		rmsNormVec(&dst[0], &x[0], &gain[0], n, eps)
		return
	}
	RMSNormGo(dst, x, gain, eps)
}

// RMSNormGo is RMSNorm's portable loop.
func RMSNormGo(dst, x, gain []float32, eps float32) {
	var acc [redLanes]float32
	for i, v := range x {
		acc[i%redLanes] += float32(v * v)
	}
	inv := 1 / float32(math.Sqrt(float64(fold(&acc)/float32(len(x))+eps)))
	for i, v := range x {
		dst[i] = v * inv * gain[i]
	}
}

// SiLU applies x·sigmoid(x) = x / (1 + Exp32(−x)) in place (LLaMA-2 FFN
// activation).
func SiLU(x []float32) {
	n := vecPrefix(len(x))
	if n > 0 {
		siluVec(&x[0], n)
	}
	SiLUGo(x[n:])
}

// SiLUGo is SiLU's portable loop.
func SiLUGo(x []float32) {
	for i, v := range x {
		x[i] = v / (1 + Exp32(-v))
	}
}
