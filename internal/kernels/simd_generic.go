//go:build !amd64

package kernels

func detectSIMD() string { return "" }

func gemmPanelsSIMD(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) bool {
	return false
}

func mulAddSIMD(iters int) int64 { return 0 }
