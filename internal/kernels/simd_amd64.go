package kernels

// SIMD level detection, and the AVX2 micro-kernels for the packed GEMM
// (simd_amd64.s; the AVX-512 ones are in simd512_amd64.go). A panel row is 16
// consecutive output columns, so it fills two YMM registers and every
// vector lane owns one output element: per k the kernel broadcasts one
// activation, multiplies, then adds — two separately rounded instructions,
// never FMA — which is, lane by lane, the scalar loop's ascending-k
// `acc[j] += av * prow[j]`. The results are the same bits.

// cpuid and xgetbv are hand-rolled: the module has no dependencies and
// internal/cpu cannot be imported.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

func detectSIMD() string {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		avx512f = 1 << 16 // CPUID.7.0:EBX
		ymmXMM  = 0b110   // XCR0: OS saves XMM and YMM state
		zmmK    = 0xe0    // XCR0: and opmask, ZMM0-15 upper halves, ZMM16-31
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return ""
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return ""
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmXMM != ymmXMM {
		return ""
	}
	_, b, _, _ := cpuid(7, 0)
	if b&avx2 == 0 {
		return ""
	}
	if b&avx512f != 0 && xcr0&zmmK == zmmK {
		return "avx512"
	}
	return "avx2"
}

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
	case mix == MixAVX2 && simdLevel != "":
		mulAddLoop(iters)
		return int64(iters) * 4 * 2 * 2 * 8 // blocks × (mul, add) × registers × lanes
	case mix == MixAVX512 && simdLevel == "avx512":
		mulAddLoop512(iters)
	case mix == MixAVX512FMA && simdLevel == "avx512":
		fmaLoop512(iters)
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
