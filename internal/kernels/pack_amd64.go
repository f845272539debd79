package kernels

// The load-time routines of a BF16 pack (pack_amd64.s). n is a positive
// multiple of sixteen, panels positive.

// narrowBF16x8 is narrowBF16 on AVX2.
//
//go:noescape
func narrowBF16x8(dst *uint16, src *float32, n int)

// pairRows16 and pairRows8 interleave two bfloat16 rows' first `panels`
// panels into pair-row words, dstStride bytes apart, on AVX-512 and AVX2,
// folding the exponents into lohi (see pairRows).
//
//go:noescape
func pairRows16(dst *uint32, lo, hi *uint16, panels, dstStride int, lohi *[32]uint32)

//go:noescape
func pairRows8(dst *uint32, lo, hi *uint16, panels, dstStride int, lohi *[32]uint32)
