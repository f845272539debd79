//go:build !amd64

package kernels

// No vector routines on this architecture: detectSIMD reports no level, so
// vecops.go never reaches these.

func reluVec(x *float32, n int)             { panic("kernels: no SIMD level") }
func addVec(dst, src *float32, n int)       { panic("kernels: no SIMD level") }
func roundBF16Vec(dst, src *float32, n int) { panic("kernels: no SIMD level") }

func dotRowsVec(q *float32, cols int, rows *float32, strideBytes, groups int, scale float32, out *float32) {
	panic("kernels: no SIMD level")
}

func accumRows32(out, w, rows *float32, strideBytes, n int) { panic("kernels: no SIMD level") }
func accumRows8(out, w, rows *float32, strideBytes, n int)  { panic("kernels: no SIMD level") }
