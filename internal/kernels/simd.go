package kernels

// level is a set of micro-kernels the packed GEMM can run on; each includes
// the ones below it.
type level uint8

const (
	levelGeneric level = iota // the portable Go loops
	levelAVX2
	levelAVX512
	levelAMX // AVX-512 and the TMUL tiles
)

// levelNames are the levels as SIMDLevel reports them.
var levelNames = [...]string{"generic", "avx2", "avx512", "amx"}

// simdLevel is the widest level this host runs, chosen once at start-up
// from what the CPU and OS report (the package's tests step down with
// -simd).
var simdLevel = detectSIMD()

// SIMDLevel reports which packed-GEMM micro-kernels this process runs:
// "amx", "avx512", "avx2", or "generic" for the portable Go loop.
func SIMDLevel() string { return levelNames[simdLevel] }

// The instruction mixes a packed GEMM can run as: the Go loop, or a SIMD
// level's separately rounded multiply and add, or its fused multiply-add,
// or TMUL's TDPBF16PS.
const (
	MixGo        = "go"
	MixAVX2      = "avx2-muladd"
	MixAVX512    = "avx512-muladd"
	MixAVX512FMA = "avx512-fma"
	MixAMX       = "amx-bf16"
)

// Mixes lists the instruction mixes this process can issue, narrowest
// first.
func Mixes() []string {
	switch simdLevel {
	case levelAMX:
		return []string{MixGo, MixAVX2, MixAVX512, MixAVX512FMA, MixAMX}
	case levelAVX512:
		return []string{MixGo, MixAVX2, MixAVX512, MixAVX512FMA}
	case levelAVX2:
		return []string{MixGo, MixAVX2}
	}
	return []string{MixGo}
}

// Mix reports the instruction mix an m-row GemmPacked over this pack runs
// as on this host (for a BF16 pack: when the activations pass fmaExact, as
// any but contrived ones do) — which of the MulAddPeak ceilings the call
// is to be held against.
func (pb *PackedB) Mix(m int) string {
	switch path := pb.path(m); {
	case path == pathGo:
		return MixGo
	case path == pathAMX:
		return MixAMX
	case simdLevel == levelAVX2 || m == 1:
		return MixAVX2
	case pb.BF16:
		return MixAVX512FMA
	}
	return MixAVX512
}

// MulAddPeak executes about iters k-steps of a packed kernel's arithmetic
// on values that never leave registers or L1 — independent multiplies
// feeding separate accumulator chains, rounded separately or fused as the
// mix says; for MixAMX, iters rounds of four TDPBF16PS on tiles held in the
// tile registers — and returns the floating-point operations performed (0
// for a mix this process cannot issue). Timed, it is the compute ceiling
// cmd/gemmbench holds a kernel point of that mix against. MixGo is the Go
// loop over one L1-resident panel.
func MulAddPeak(iters int, mix string) (flops int64) {
	if mix != MixGo {
		return mulAddSIMD(iters, mix)
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
