//go:build !amd64

package kernels

// No vector routines on this architecture: detectSIMD reports no level, so
// vecops.go never reaches these.

func reluVec(x *float32, n int)         { panic("kernels: no SIMD level") }
func addVec(dst, src *float32, n int)   { panic("kernels: no SIMD level") }
func mulVec(dst, src *float32, n int)   { panic("kernels: no SIMD level") }
func mulVec16(dst, src *float32, n int) { panic("kernels: no SIMD level") }

func roundBF16Vec(dst, src *float32, n int, lohi *[16]uint32) { panic("kernels: no SIMD level") }

func dotRowsVec(q *float32, cols int, rows *float32, strideBytes, groups int, scale float32, out *float32) {
	panic("kernels: no SIMD level")
}

func accumRows32(out, w, rows *float32, strideBytes, n int) { panic("kernels: no SIMD level") }
func accumRows8(out, w, rows *float32, strideBytes, n int)  { panic("kernels: no SIMD level") }

func transposeKeys8(kt, keys *float32, strideBytes, cols, colBytes int) {
	panic("kernels: no SIMD level")
}

func scoreRows16(kt *float32, cols int, q *float32, qStrideBytes, rows int, scale float32, s *float32, sStrideBytes, lanes int) {
	panic("kernels: no SIMD level")
}

func accumRowsBlock16(out *float32, outStrideBytes int, w *float32, wStrideBytes int, vals *float32, valStrideBytes, n, tri, cols16 int) {
	panic("kernels: no SIMD level")
}

func scoreRowsVec(kt *float32, cols int, q *float32, qStrideBytes, rows int, scale float32, s *float32, sStrideBytes, lanes int) {
	panic("kernels: no SIMD level")
}

func accumRowsBlock8(out *float32, outStrideBytes int, w *float32, wStrideBytes int, vals *float32, valStrideBytes, n, tri, cols8 int) {
	panic("kernels: no SIMD level")
}

func softmaxVec(x *float32, n int) { panic("kernels: no SIMD level") }

func softmaxRows16(x *float32, strideBytes, groups, n0 int) { panic("kernels: no SIMD level") }
func softmaxRows8(x *float32, strideBytes, pairs, n0 int)   { panic("kernels: no SIMD level") }
func siluVec(x *float32, n int)                             { panic("kernels: no SIMD level") }

func layerNormVec(dst, x, gain, bias *float32, n int, eps float32) { panic("kernels: no SIMD level") }
func rmsNormVec(dst, x, gain *float32, n int, eps float32)         { panic("kernels: no SIMD level") }
func exp32Vec(dst, src *float32, n int)                            { panic("kernels: no SIMD level") }

func narrowBF16x8(dst *uint16, src *float32, n int) { panic("kernels: no SIMD level") }
func narrowBF16(dst *uint16, src *float32, n int)   { panic("kernels: no SIMD level") }

func pairRows16(dst *uint32, lo, hi *uint16, panels, dstStride int, lohi *[32]uint32) {
	panic("kernels: no SIMD level")
}

func pairRows8(dst *uint32, lo, hi *uint16, panels, dstStride int, lohi *[32]uint32) {
	panic("kernels: no SIMD level")
}
