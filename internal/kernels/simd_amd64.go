package kernels

import "unsafe"

// SIMD level detection, and the AVX2 micro-kernels for the packed GEMM
// (simd_amd64.s; the AVX-512 ones are in simd512_amd64.go, the TMUL ones in
// amx_amd64.go). A panel row is 16 consecutive output columns, so it fills
// two YMM registers and every vector lane owns one output element: per k
// the kernel broadcasts one activation, multiplies, then adds — two
// separately rounded instructions, never FMA — which is, lane by lane, the
// scalar loop's ascending-k `acc[j] += av * prow[j]`. The results are the
// same bits.

// cpuid and xgetbv are hand-rolled: the module has no dependencies and
// internal/cpu cannot be imported.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

const (
	osxsave   = 1 << 27    // CPUID.1:ECX
	avx       = 1 << 28    // CPUID.1:ECX
	avx2      = 1 << 5     // CPUID.7.0:EBX
	avx512f   = 1 << 16    // CPUID.7.0:EBX
	amxBF16   = 1 << 22    // CPUID.7.0:EDX
	amxTile   = 1 << 24    // CPUID.7.0:EDX
	ymmXMM    = 0b110      // XCR0: the OS saves XMM and YMM state
	zmmK      = 0xe0       // XCR0: and opmask, ZMM0-15 upper halves, ZMM16-31
	tileState = 0b11 << 17 // XCR0: and XTILECFG, XTILEDATA
)

// hostFacts is what the level is decided from: CPUID leaves 0, 1 and 7.0,
// XCR0 (the state the OS saves on a context switch), and whether the OS
// let this process use the AMX tile data.
type hostFacts struct {
	maxLeaf, ecx1, ebx7, edx7, xcr0 uint32
	amxGranted                      bool
}

// readHost reads the facts, asking the OS for the tile data state on the
// way when the CPU has AMX.
func readHost() hostFacts {
	var f hostFacts
	if f.maxLeaf, _, _, _ = cpuid(0, 0); f.maxLeaf < 7 {
		return f
	}
	_, _, f.ecx1, _ = cpuid(1, 0)
	_, f.ebx7, _, f.edx7 = cpuid(7, 0)
	if f.edx7&(amxBF16|amxTile) == amxBF16|amxTile {
		f.amxGranted = requestAMX()
	}
	if f.ecx1&osxsave != 0 {
		f.xcr0, _ = xgetbv()
	}
	return f
}

// level is the widest level the facts allow.
func (f hostFacts) level() level {
	switch {
	case f.maxLeaf < 7 || f.ecx1&(osxsave|avx) != osxsave|avx || f.xcr0&ymmXMM != ymmXMM || f.ebx7&avx2 == 0:
		return levelGeneric
	case f.ebx7&avx512f == 0 || f.xcr0&zmmK != zmmK:
		return levelAVX2
	case f.edx7&(amxBF16|amxTile) != amxBF16|amxTile || f.xcr0&tileState != tileState || !f.amxGranted:
		return levelAVX512
	}
	return levelAMX
}

func detectSIMD() level { return readHost().level() }

// gemv4* compute one activation row against four panels: out[p*16+j] =
// Σ_k a[k]·w_p[k][j]. Eight independent accumulator registers hide the add
// latency and the activation broadcast is shared. The F32 kernels read
// float32 panels, the BF16 kernels 16-bit panels (PackedB.bf).
//
//go:noescape
func gemv4F32(a *float32, k int, w0, w1, w2, w3 *float32, out *[4 * PanelCols]float32)

//go:noescape
func gemv4BF16(a *float32, k int, w0, w1, w2, w3 *uint32, out *[4 * PanelCols]float32)

// gemm4* compute four activation rows against one panel: out[r*16+j] =
// Σ_k a_r[k]·w[k][j]. Each panel row is loaded once for four rows.
//
//go:noescape
func gemm4F32(a0, a1, a2, a3 *float32, k int, w *float32, out *[4 * PanelCols]float32)

//go:noescape
func gemm4BF16(a0, a1, a2, a3 *float32, k int, w *uint32, out *[4 * PanelCols]float32)

// mulAddLoop runs iters rounds of four MULADD blocks — the arithmetic of one
// gemv4/gemm4 k-step — on constants held in registers.
func mulAddLoop(iters int)

func mulAddSIMD(iters int, mix string) int64 {
	switch {
	case mix == MixAVX2 && simdLevel >= levelAVX2:
		mulAddLoop(iters)
		return int64(iters) * 4 * 2 * 2 * 8 // blocks × (mul, add) × registers × lanes
	case mix == MixAVX512 && simdLevel >= levelAVX512:
		mulAddLoop512(iters)
	case mix == MixAVX512FMA && simdLevel >= levelAVX512:
		fmaLoop512(iters)
	case mix == MixAMX && simdLevel >= levelAMX:
		amxPeakLoop(iters)
		return int64(iters) * 4 * TileRows * TileRows * TileColsBF16 * 2 // tiles × rows × columns × k × (mul, add)
	default:
		return 0
	}
	return int64(iters) * 16 * 2 * 16 // chains × (mul, add) × lanes
}

// gemmPanelsSIMD is gemmPackedPanels over the AVX2 micro-kernels, for a pack
// they can run (gemmPackedPanels sends the others to the Go loop). The
// blocking lives here: a single row runs four panels per call, two or more
// rows run four rows per panel (panel outermost, so it stays in L1 across
// row blocks). A short last block repeats its final row or panel instead
// of taking a remainder path; the repeats are computed and dropped.
func gemmPanelsSIMD(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	k, n := pb.K, pb.N
	var acc [4 * PanelCols]float32
	store := func(i, pn, q int) {
		j0 := pn * PanelCols
		copy(c[i*n+j0:i*n+min(j0+PanelCols, n)], acc[q*PanelCols:(q+1)*PanelCols])
	}
	narrow := pb.bf != nil
	stride := k * PanelCols
	if narrow {
		stride = k * bf16Words
	}
	if i1-i0 == 1 {
		arow := &a[i0*k]
		for pn, last := pn0, pn1-1; pn < pn1; pn += 4 {
			p0, p1, p2, p3 := pn*stride, min(pn+1, last)*stride, min(pn+2, last)*stride, min(pn+3, last)*stride
			if narrow {
				gemv4BF16(arow, k, &pb.bf[p0], &pb.bf[p1], &pb.bf[p2], &pb.bf[p3], &acc)
			} else {
				gemv4F32(arow, k, &pb.data[p0], &pb.data[p1], &pb.data[p2], &pb.data[p3], &acc)
			}
			for q := 0; q < 4 && pn+q < pn1; q++ {
				store(i0, pn+q, q)
			}
		}
		return
	}
	for pn := pn0; pn < pn1; pn++ {
		for i, last := i0, i1-1; i < i1; i += rowBlock {
			a0, a1, a2, a3 := &a[i*k], &a[min(i+1, last)*k], &a[min(i+2, last)*k], &a[min(i+3, last)*k]
			if narrow {
				gemm4BF16(a0, a1, a2, a3, k, &pb.bf[pn*stride], &acc)
			} else {
				gemm4F32(a0, a1, a2, a3, k, &pb.data[pn*stride], &acc)
			}
			for r := 0; r < rowBlock && i+r < i1; r++ {
				store(i+r, pn, r)
			}
		}
	}
}

// gemvPairs computes one activation row (kp values) against two panels of a
// BF16 pack into out, panel w0's columns first.
//
//go:noescape
func gemvPairs(a *float32, kp int, w0, w1 *uint32, out *[2 * PanelCols]float32)

// tile4x2Pairs is tile4x2F32 for a BF16 pack (kp values per row).
//
//go:noescape
func tile4x2Pairs(a0, a1, a2, a3 *float32, kp int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)

// gemmPairsSIMD is a BF16 pack's GEMM on the vector kernels, for operands
// fmaExact admits; a is the rounded rows, kp apart. A single row (and
// every row on the AVX2 level) runs two panels per call; two or more rows
// on the 512-bit level run 4 × 2 tiles, panel pair outermost. Short blocks
// repeat a row or panel, as gemmPanelsSIMD's do.
func gemmPairsSIMD(i0, i1, pn0, pn1 int, a []float32, pb *PackedB, c []float32) {
	kp, n := padK(pb.K), pb.N
	panelWords := kp / 2 * PanelCols
	if i1-i0 == 1 || simdLevel == levelAVX2 {
		var acc [2 * PanelCols]float32
		end := min(pn1*PanelCols, n)
		for i := i0; i < i1; i++ {
			for pn := pn0; pn < pn1; pn += 2 {
				gemvPairs(&a[i*kp], kp, &pb.pairs[pn*panelWords], &pb.pairs[min(pn+1, pn1-1)*panelWords], &acc)
				j0 := pn * PanelCols
				copy(c[i*n+j0:i*n+min(j0+2*PanelCols, end)], acc[:])
			}
		}
		return
	}
	base := unsafe.Pointer(unsafe.SliceData(pb.pairs))
	panel := func(pn int) unsafe.Pointer { return unsafe.Add(base, pn*panelWords*4) }
	mask := func(pn int) uint32 { return 1<<min(PanelCols, n-pn*PanelCols) - 1 }
	last := i1 - 1
	for pn := pn0; pn < pn1; pn += 2 {
		w0, w1, masks := panel(pn), panel(pn), mask(pn)
		if pn+1 < pn1 {
			w1, masks = panel(pn+1), masks|mask(pn+1)<<16
		}
		for i := i0; i < i1; i += 4 {
			tile4x2Pairs(&a[i*kp], &a[min(i+1, last)*kp], &a[min(i+2, last)*kp], &a[min(i+3, last)*kp],
				kp, w0, w1, &c[i*n+pn*PanelCols], n, min(4, i1-i), masks)
		}
	}
}
