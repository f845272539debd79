package kernels

import (
	"math"

	"repro/internal/tensor"
)

// Intel AMX tile geometry (§II-D of the paper): a tile register is 16 rows
// of 64 bytes. For BF16 that is 16×32 elements; TMUL TDPBF16PS multiplies
// a 16×32 BF16 A-tile by a 16×32 BF16 B-tile (interpreted as 32×16 via the
// VNNI pair layout) accumulating into a 16×16 FP32 C-tile.
const (
	// TileRows is the number of rows in an AMX tile register.
	TileRows = 16
	// TileColsBF16 is the number of BF16 elements per tile row (64 bytes).
	TileColsBF16 = 32
)

// GemmTileBF16 computes C = A·B with both operands rounded to bfloat16,
// under the rule one AMX TDPBF16PS instruction applies — measured on the
// hardware, and the numerics every kernel over a BF16 pack reproduces bit
// for bit. It is the serial oracle of those kernels.
//
// K is zero-padded to a multiple of 32, and each block of 32 k values,
// from k = 0 on, is one instruction. Within a block every output element
// keeps two float32 chains, both starting at +0: e adds the even-k
// products and o the odd-k products, each in ascending k. The block then
// ends with c = c + (e + o), c starting at +0. Every addition rounds to
// nearest even. A chain adds the exact product — it is never rounded,
// flushed or overflowed on its own — and rounds the sum once, as a fused
// multiply-add does. bfloat16 denormal inputs read as zero (DAZ), and a
// denormal result flushes to a zero of its sign (FTZ).
func GemmTileBF16(m, n, k int, a, b, c []float32) {
	checkDims(m, n, k, a, b, c)
	ab := roundBF16Slice(a[:m*k])
	bb := roundBF16Slice(b[:k*n])
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p0 := 0; p0 < k; p0 += TileColsBF16 {
				var chain [2]float32 // e, o
				for p := p0; p < p0+TileColsBF16; p++ {
					var av, bv float32 // the zero padding past K
					if p < k {
						av, bv = ab[i*k+p], bb[p*n+j]
					}
					chain[p%2] = tmulStep(chain[p%2], av, bv)
				}
				acc = flushDenormal(acc + flushDenormal(chain[0]+chain[1]))
			}
			c[i*n+j] = acc
		}
	}
}

// roundBF16Slice returns src rounded to bfloat16, denormals read as zero.
func roundBF16Slice(src []float32) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = flushDenormal(tensor.RoundBF16(v))
	}
	return dst
}

// flushDenormal returns x, or a zero of x's sign when x is denormal: how
// TMUL reads a denormal input and writes a denormal result.
func flushDenormal(x float32) float32 {
	if b := math.Float32bits(x); b&0x7f800000 == 0 {
		return math.Float32frombits(b & 0x80000000)
	}
	return x
}

// tmulStep is one step of a TDPBF16PS chain: acc + a·w, rounded once, for
// bfloat16 a and w that are not denormal. The float64 product is exact (16
// significant bits, exponents far inside float64's), and so is the sum
// unless one addend dwarfs the other — by more than 2²⁹, where the smaller
// cannot reach a float32 rounding boundary and the double rounding is
// harmless.
func tmulStep(acc, a, w float32) float32 {
	return flushDenormal(float32(float64(acc) + float64(a)*float64(w)))
}
