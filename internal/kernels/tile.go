package kernels

import "repro/internal/tensor"

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

// GemmTileBF16 computes C = A·B emulating the AMX TMUL dataflow: inputs
// are rounded to bfloat16, the matrices are processed in 16×32 (A) and
// 32×16 (B) tiles, and products are accumulated in FP32. The result is
// bit-faithful to what an AMX kernel computing in BF16 would produce
// (up to FP32 accumulation order within a tile column, which we fix as
// ascending k). It is the serial oracle of the BF16 packed kernel, which
// must match it bit for bit.
func GemmTileBF16(m, n, k int, a, b, c []float32) {
	checkDims(m, n, k, a, b, c)
	// Pre-round both operands to bf16 once, as a real kernel would convert
	// (or load pre-converted weights) before issuing TMUL.
	ab := roundBF16Slice(a[:m*k])
	bb := roundBF16Slice(b[:k*n])
	var acc [TileRows * TileRows]float32 // one 16×16 FP32 accumulator tile
	for i0 := 0; i0 < m; i0 += TileRows {
		iMax := min(i0+TileRows, m)
		for j0 := 0; j0 < n; j0 += TileRows {
			jMax := min(j0+TileRows, n)
			for idx := range acc {
				acc[idx] = 0
			}
			for p0 := 0; p0 < k; p0 += TileColsBF16 {
				pMax := min(p0+TileColsBF16, k)
				// TDPBF16PS: acc[i][j] += Σ_p A[i][p]*B[p][j] over the
				// 32-deep tile, accumulated in FP32.
				for i := i0; i < iMax; i++ {
					arow := ab[i*k:]
					for p := p0; p < pMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := bb[p*n:]
						ti := (i - i0) * TileRows
						for j := j0; j < jMax; j++ {
							acc[ti+(j-j0)] += av * brow[j]
						}
					}
				}
			}
			// Tile store.
			for i := i0; i < iMax; i++ {
				ti := (i - i0) * TileRows
				for j := j0; j < jMax; j++ {
					c[i*n+j] = acc[ti+(j-j0)]
				}
			}
		}
	}
}

func roundBF16Slice(src []float32) []float32 {
	dst := make([]float32, len(src))
	for i, v := range src {
		dst[i] = tensor.RoundBF16(v)
	}
	return dst
}

// GemmInt8 computes C = scaleA·scaleB·(Aq·Bq) emulating the AMX INT8 path
// (TDPBSSD): int8×int8 products accumulate into int32 tiles, then a single
// dequantization scales to FP32.
func GemmInt8(m, n, k int, aq []int8, scaleA float32, bq []int8, scaleB float32, c []float32) {
	if len(aq) < m*k || len(bq) < k*n || len(c) < m*n {
		panic("kernels: GemmInt8: slices too short")
	}
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
