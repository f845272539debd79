// Package kernels implements the compute kernels of the functional
// inference engine. There is one linear path per numeric path: the
// panel-packed GEMM (pack.go; an AVX2 micro-kernel on amd64, a Go loop
// elsewhere, split over a persistent Pool) with FP32 or BF16 numerics, and
// an INT8 kernel with VNNI-style int32 accumulate. GemmNaive and the serial
// AMX-emulating GemmTileBF16 are the FP32 and BF16 oracles the packed
// kernel is held to bit for bit. Around them sit the attention, pointwise
// and normalization operators of a decoder-only transformer.
//
// All matrices are dense row-major float32 unless stated otherwise. The
// reduced-precision kernels emulate hardware numerics faithfully: BF16
// kernels round inputs to bfloat16 and accumulate in FP32 exactly as Intel
// AMX TMUL (TDPBF16PS) does.
package kernels

import "fmt"

func checkDims(m, n, k int, a, b, c []float32) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("kernels: gemm %dx%dx%d: slices too short (a=%d b=%d c=%d)",
			m, n, k, len(a), len(b), len(c)))
	}
}

// GemmNaive is the triple-loop FP32 reference implementation: the oracle
// of the FP32 packed kernel.
func GemmNaive(m, n, k int, a, b, c []float32) {
	checkDims(m, n, k, a, b, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = sum
		}
	}
}
