package kernels

import (
	"math"
	"unsafe"

	"repro/internal/tensor"
)

// AVX-512 micro-kernels for the packed GEMM (simd512_amd64.s): register
// tiles of 16 × 1, 8 × 1 and 4 × 2 (activation rows × panels), each in
// three arithmetic variants, all writing their tile straight into C.

// The rows × 1 tiles compute `rows` consecutive activation rows starting
// at a (k values each, one after another) against the panel at w, and
// write column j of output row r to c[r*n+j] for every j set in mask.
//
// The 4 × 2 tile takes its rows by pointer, so that a block of fewer than
// four repeats one, and two panels, masks for w0 in the low half and for w1
// in the high half; it writes the first `rows` rows, w1's columns 16 on
// from w0's. A lone panel is passed twice with an empty high mask.

//go:noescape
func tile16BF16FMA(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)

//go:noescape
func tile16BF16(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)

//go:noescape
func tile16F32(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)

//go:noescape
func tile8BF16FMA(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)

//go:noescape
func tile8BF16(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)

//go:noescape
func tile8F32(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)

//go:noescape
func tile4x2BF16FMA(a0, a1, a2, a3 *float32, k int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)

//go:noescape
func tile4x2BF16(a0, a1, a2, a3 *float32, k int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)

//go:noescape
func tile4x2F32(a0, a1, a2, a3 *float32, k int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)

// tiles512 is an arithmetic variant of the tiles. (Its methods switch
// rather than hold function values: a call through a value would make
// every operand escape, the callers' stack buffers included.)
type tiles512 int

const (
	// 32-bit panels, multiply then add.
	tilesF32 tiles512 = iota
	// 16-bit panels, multiply then add: BF16 packs that fail the proof, and
	// FP32-numerics packs whose weights happen to be bfloat16.
	tilesBF16
	// 16-bit panels, fused multiply-add: BF16 packs whose products are
	// proven exact (fmaExact), where fusing keeps the Go loop's bits.
	tilesBF16FMA
)

func (t tiles512) t16(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32) {
	switch t {
	case tilesBF16FMA:
		tile16BF16FMA(a, k, w, c, n, mask)
	case tilesBF16:
		tile16BF16(a, k, w, c, n, mask)
	default:
		tile16F32(a, k, w, c, n, mask)
	}
}

func (t tiles512) t8(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32) {
	switch t {
	case tilesBF16FMA:
		tile8BF16FMA(a, k, w, c, n, mask)
	case tilesBF16:
		tile8BF16(a, k, w, c, n, mask)
	default:
		tile8F32(a, k, w, c, n, mask)
	}
}

func (t tiles512) t4x2(a0, a1, a2, a3 *float32, k int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32) {
	switch t {
	case tilesBF16FMA:
		tile4x2BF16FMA(a0, a1, a2, a3, k, w0, w1, c, n, rows, masks)
	case tilesBF16:
		tile4x2BF16(a0, a1, a2, a3, k, w0, w1, c, n, rows, masks)
	default:
		tile4x2F32(a0, a1, a2, a3, k, w0, w1, c, n, rows, masks)
	}
}

// mulAddLoop512 and fmaLoop512 run iters rounds of sixteen accumulator
// chains — one tile16 k-step of either mix — on constants in registers.
func mulAddLoop512(iters int)
func fmaLoop512(iters int)

// roundBF16Range512 is roundBF16Vec on n values, a positive multiple of 16,
// that also folds the rounded values' magnitudes into lohi (see the
// routine).
//
//go:noescape
func roundBF16Range512(dst, src *float32, n int, lohi *[32]uint32)

// roundBF16Exact is roundActivations on the 512-bit level: the rounding
// pass collects the activations' exponent range as it goes.
func roundBF16Exact(dst, src []float32, w expRange) bool {
	var lohi [32]uint32
	for i := range lohi[:16] {
		lohi[i] = math.MaxUint32
	}
	n := len(dst) &^ 15
	if n > 0 {
		roundBF16Range512(&dst[0], &src[:n][0], n, &lohi)
	}
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for i := 0; i < 16; i++ {
		lo, hi = min(lo, lohi[i]), max(hi, lohi[16+i])
	}
	for i := n; i < len(dst); i++ {
		dst[i] = tensor.RoundBF16(src[i])
		abs := math.Float32bits(dst[i]) &^ (1 << 31)
		lo, hi = min(lo, abs-1), max(hi, abs)
	}
	a := noExps
	if hi != 0 {
		a = expRange{lo: uint8((lo + 1) >> 23), hi: uint8(hi >> 23)}
	}
	return fmaExact(a, w)
}

// gemmPanels512 is gemmPackedPanels for two or more rows over the 512-bit
// tiles. Eight rows or more run rows × 1 tiles, panel outermost so that it
// stays in L1 across the row blocks; a band that does not divide ends in a
// tile moved back to end with it, recomputing the rows it overlaps (the
// same bits) instead of taking a remainder path. Fewer rows run 4 × 2.
func gemmPanels512(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32, exact bool) {
	k, n := pb.K, pb.N
	t, base, stride := tilesF32, unsafe.Pointer(unsafe.SliceData(pb.data)), k*PanelCols*4
	if pb.bf != nil {
		t, base, stride = tilesBF16, unsafe.Pointer(unsafe.SliceData(pb.bf)), k*bf16Words*4
		if pb.BF16 && exact {
			t = tilesBF16FMA
		}
	}
	panel := func(pn int) unsafe.Pointer { return unsafe.Add(base, pn*stride) }
	mask := func(pn int) uint32 { return 1<<min(PanelCols, n-pn*PanelCols) - 1 }
	rows, last := i1-i0, i1-1
	if rows < 8 {
		for pn := pn0; pn < pn1; pn += 2 {
			w0, w1, masks := panel(pn), panel(pn), mask(pn)
			if pn+1 < pn1 {
				w1, masks = panel(pn+1), masks|mask(pn+1)<<16
			}
			for i := i0; i < i1; i += 4 {
				t.t4x2(&a[i*k], &a[min(i+1, last)*k], &a[min(i+2, last)*k], &a[min(i+3, last)*k],
					k, w0, w1, &c[i*n+pn*PanelCols], n, min(4, i1-i), masks)
			}
		}
		return
	}
	for pn := pn0; pn < pn1; pn++ {
		w, m := panel(pn), mask(pn)
		for i := i0; i < i1; {
			if rem := i1 - i; rem >= 16 || (rem > 8 && rows >= 16) {
				i = min(i, i1-16)
				t.t16(&a[i*k], k, w, &c[i*n+pn*PanelCols], n, m)
				i += 16
			} else {
				i = min(i, i1-8)
				t.t8(&a[i*k], k, w, &c[i*n+pn*PanelCols], n, m)
				i += 8
			}
		}
	}
}
