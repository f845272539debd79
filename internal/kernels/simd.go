package kernels

// simdLevel names the micro-kernel gemmPackedPanels runs on this host,
// chosen once at start-up from what the CPU and OS report; "" means the
// portable Go loop (which the package's tests can force with -generic).
var simdLevel = detectSIMD()

// SIMDLevel reports which packed-GEMM micro-kernel this process runs:
// "avx2", or "generic" for the portable Go loop.
func SIMDLevel() string {
	if simdLevel == "" {
		return "generic"
	}
	return simdLevel
}

// MulAddPeak executes about iters k-steps of the packed kernels' arithmetic
// on values that never leave registers or L1 — independent multiplies
// feeding separate accumulator chains of adds, rounded separately — and
// returns the floating-point operations performed. Timed, it is the
// compute ceiling cmd/gemmbench holds every kernel point against: the
// micro-kernel's instruction mix on registers with simd set (and a
// micro-kernel present), otherwise the Go loop over one L1-resident panel.
func MulAddPeak(iters int, simd bool) (flops int64) {
	if simd && simdLevel != "" {
		return mulAddSIMD(iters)
	}
	const k = 256
	a, b := make([]float32, k), make([]float32, k*PanelCols)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range b {
		b[i] = (1 + 1.0/(1<<20)) / (1 << 20) // not a bfloat16: the pack keeps 32-bit storage
	}
	pb := PackB(k, PanelCols, b)
	var c [PanelCols]float32
	rounds := (iters + k - 1) / k
	for r := 0; r < rounds; r++ {
		gemmPackedPanelsGo(0, 1, 0, 1, a, pb, c[:])
	}
	return int64(rounds) * k * 2 * PanelCols
}
