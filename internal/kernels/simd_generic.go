//go:build !amd64

package kernels

func detectSIMD() level { return levelGeneric }

func gemmPanelsSIMD(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	panic("kernels: no SIMD level")
}

func gemmPanels512(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	panic("kernels: no SIMD level")
}

func mulAddSIMD(iters int, mix string) int64 { return 0 }

func gemmPairsSIMD(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	panic("kernels: no SIMD level")
}

func gemmPanelsAMX(i0, i1, pn0, pn1 int, an []uint16, pb *PackedB, c []float32) {
	panic("kernels: no SIMD level")
}

func narrowRows(dst []uint16, a []float32, m, k, kp int) { panic("kernels: no SIMD level") }
