//go:build !amd64

package kernels

func detectSIMD() string { return "" }

func gemmPanelsSIMD(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	panic("kernels: no SIMD level")
}

func gemmPanels512(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32, exact bool) {
	panic("kernels: no SIMD level")
}

func roundBF16Exact(dst, src []float32, w expRange) bool { panic("kernels: no SIMD level") }

func mulAddSIMD(iters int, mix string) int64 { return 0 }
