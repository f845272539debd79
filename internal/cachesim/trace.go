package cachesim

// Address-trace generators for two GEMM loop nests: the naive triple loop
// (kernels.GemmNaive) and a cache-blocked one. Matrices are laid out
// contiguously: A at 0, B after A, C after B, four bytes per float32
// element. The generators visit the element order the loop nest touches,
// so the simulated miss counts reflect its locality.

const elemBytes = 4

// matBases returns the base addresses of A (m×k), B (k×n), C (m×n).
func matBases(m, n, k int) (a, b, c uint64) {
	a = 0
	b = a + uint64(m*k*elemBytes)
	c = b + uint64(k*n*elemBytes)
	return
}

// TraceGemmNaive visits the i-j-p element stream of the naive kernel.
func TraceGemmNaive(m, n, k int, visit func(addr uint64)) {
	a, b, c := matBases(m, n, k)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			for p := 0; p < k; p++ {
				visit(a + uint64((i*k+p)*elemBytes))
				visit(b + uint64((p*n+j)*elemBytes))
			}
			visit(c + uint64((i*n+j)*elemBytes))
		}
	}
}

// Blocked-trace tile sizes: an MC×KC panel of A that stays L2-resident.
const (
	traceBlockM = 64
	traceBlockN = 256
	traceBlockK = 256
)

// TraceGemmBlocked visits the element stream of the cache-blocked kernel
// (MC/KC/NC blocking with an i-p-j inner order).
func TraceGemmBlocked(m, n, k int, visit func(addr uint64)) {
	a, b, c := matBases(m, n, k)
	for i0 := 0; i0 < m; i0 += traceBlockM {
		iMax := min(i0+traceBlockM, m)
		for p0 := 0; p0 < k; p0 += traceBlockK {
			pMax := min(p0+traceBlockK, k)
			for j0 := 0; j0 < n; j0 += traceBlockN {
				jMax := min(j0+traceBlockN, n)
				for i := i0; i < iMax; i++ {
					for p := p0; p < pMax; p++ {
						visit(a + uint64((i*k+p)*elemBytes))
						for j := j0; j < jMax; j++ {
							visit(b + uint64((p*n+j)*elemBytes))
							visit(c + uint64((i*n+j)*elemBytes))
						}
					}
				}
			}
		}
	}
}

// TraceWeightStream visits a pure streaming read of `bytes` bytes — the
// access pattern of reading model weights once per decode step. Every
// line is touched exactly once, so it misses at every level regardless of
// cache size: the mechanism behind decode-phase LLC MPKI.
func TraceWeightStream(bytes int, visit func(addr uint64)) {
	const base = 1 << 40 // far from the GEMM arrays
	for off := 0; off < bytes; off += elemBytes {
		visit(base + uint64(off))
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
