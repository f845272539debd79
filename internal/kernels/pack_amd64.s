#include "textflag.h"

// Load-time routines of a BF16 pack (pack.go): narrowing float32 rows to
// bfloat16 bits on AVX2 (narrowBF16 is the AVX-512 form), and the pair-row
// interleave of two bfloat16 rows into the TMUL B-tile layout.

// func narrowBF16x8(dst *uint16, src *float32, n int)
// narrowBF16 on eight-lane registers, sixteen values a round: round each
// as roundBF16Vec does, keep the upper halves, then pack the two vectors'
// 32-bit lanes to 16 bits. VPACKUSDW packs within 128-bit lanes, so VPERMQ
// puts the four quarters back in order.
TEXT ·narrowBF16x8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	VPCMPEQD Y15, Y15, Y15 // all ones
	VPSRLD   $31, Y15, Y14 // 1
	VPSRLD   $17, Y15, Y13 // 0x7fff
	VPSLLD   $16, Y15, Y12 // 0xffff0000
	VPSLLD   $22, Y14, Y11 // 0x00400000: the quiet bit

narrow:
	VMOVDQU   (SI), Y0
	VPSRLD    $16, Y0, Y1
	VPAND     Y14, Y1, Y1
	VPADDD    Y13, Y0, Y2
	VPADDD    Y1, Y2, Y2
	VPAND     Y12, Y0, Y3
	VPOR      Y11, Y3, Y3
	VCMPPS    $3, Y0, Y0, Y4
	VBLENDVPS Y4, Y3, Y2, Y5
	VPSRLD    $16, Y5, Y5
	VMOVDQU   32(SI), Y0
	VPSRLD    $16, Y0, Y1
	VPAND     Y14, Y1, Y1
	VPADDD    Y13, Y0, Y2
	VPADDD    Y1, Y2, Y2
	VPAND     Y12, Y0, Y3
	VPOR      Y11, Y3, Y3
	VCMPPS    $3, Y0, Y0, Y4
	VBLENDVPS Y4, Y3, Y2, Y6
	VPSRLD    $16, Y6, Y6
	VPACKUSDW Y6, Y5, Y5
	VPERMQ    $0xd8, Y5, Y5
	VMOVDQU   Y5, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       narrow
	VZEROUPPER
	RET

// FLUSH16 is the pack's treatment of sixteen bfloat16 values zero-extended
// to 32-bit lanes in z: a value with a zero exponent becomes a zero of its
// sign (how TMUL reads a denormal), and the exponents of the rest are
// folded into Z8 (the unsigned minimum of exponent−1, so that a zero
// exponent wraps to the top and drops out) and Z9 (the maximum). Z15 holds
// 0x7f80, Z14 0x8000, Z13 all ones and Z12 0xff; t is scratch.
#define FLUSH16(z, t) \
	VPTESTMD   Z15, z, K1  \
	VPANDD     Z14, z, t   \
	VMOVDQA32  z, K1, t    \
	VPSRLD     $7, t, z    \
	VPANDD     Z12, z, z   \
	VPMAXUD    z, Z9, Z9   \
	VPADDD     Z13, z, z   \
	VPMINUD    z, Z8, Z8

// func pairRows16(dst *uint32, lo, hi *uint16, panels, dstStride int, lohi *[32]uint32)
// Interleaves `panels` panels' worth of two consecutive rows: the sixteen
// bfloat16 columns of lo and of hi at panel i (32 bytes apart in each row)
// become sixteen words lo | hi<<16, flushed as FLUSH16 says, written
// dstStride bytes after panel i−1's. lohi[:16] and lohi[16:] carry FLUSH16's
// running minima and maxima in and out.
TEXT ·pairRows16(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ hi+16(FP), BX
	MOVQ panels+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ lohi+40(FP), DX
	VPTERNLOGD $0xff, Z13, Z13, Z13 // all ones
	VPSRLD     $24, Z13, Z12        // 0xff
	VPSLLD     $7, Z12, Z15         // 0x7f80
	VPSRLD     $31, Z13, Z14
	VPSLLD     $15, Z14, Z14        // 0x8000
	VMOVDQU32  (DX), Z8
	VMOVDQU32  64(DX), Z9

pair16:
	VPMOVZXWD (SI), Z0
	VPMOVZXWD (BX), Z1
	FLUSH16(Z0, Z2)
	FLUSH16(Z1, Z3)
	VPSLLD    $16, Z3, Z3
	VPORD     Z2, Z3, Z3
	VMOVDQU32 Z3, (DI)
	ADDQ      $32, SI
	ADDQ      $32, BX
	ADDQ      R8, DI
	DECQ      CX
	JNZ       pair16
	VMOVDQU32 Z8, (DX)
	VMOVDQU32 Z9, 64(DX)
	VZEROUPPER
	RET

// FLUSH8 is FLUSH16 on eight lanes: Y15 holds 0x7f80, Y14 0x8000, Y13 all
// ones, Y12 0xff and Y11 zero; the running minima and maxima are Y8 and Y9.
#define FLUSH8(y, t, m) \
	VPAND     Y15, y, m      \
	VPCMPEQD  Y11, m, m      \
	VPAND     Y14, y, t      \
	VPBLENDVB m, t, y, t     \
	VPSRLD    $7, t, y       \
	VPAND     Y12, y, y      \
	VPMAXUD   y, Y9, Y9      \
	VPADDD    Y13, y, y      \
	VPMINUD   y, Y8, Y8

// func pairRows8(dst *uint32, lo, hi *uint16, panels, dstStride int, lohi *[32]uint32)
// pairRows16 on AVX2: each panel in two halves of eight columns. The
// running minima are lohi[:8] and the maxima lohi[16:24].
TEXT ·pairRows8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ lo+8(FP), SI
	MOVQ hi+16(FP), BX
	MOVQ panels+24(FP), CX
	MOVQ dstStride+32(FP), R8
	MOVQ lohi+40(FP), DX
	VPCMPEQD Y13, Y13, Y13 // all ones
	VPSRLD   $24, Y13, Y12 // 0xff
	VPSLLD   $7, Y12, Y15  // 0x7f80
	VPSRLD   $31, Y13, Y14
	VPSLLD   $15, Y14, Y14 // 0x8000
	VPXOR    Y11, Y11, Y11
	VMOVDQU  (DX), Y8
	VMOVDQU  64(DX), Y9

pair8:
	VPMOVZXWD (SI), Y0
	VPMOVZXWD (BX), Y1
	FLUSH8(Y0, Y2, Y4)
	FLUSH8(Y1, Y3, Y4)
	VPSLLD    $16, Y3, Y3
	VPOR      Y2, Y3, Y3
	VMOVDQU   Y3, (DI)
	VPMOVZXWD 16(SI), Y0
	VPMOVZXWD 16(BX), Y1
	FLUSH8(Y0, Y2, Y4)
	FLUSH8(Y1, Y3, Y4)
	VPSLLD    $16, Y3, Y3
	VPOR      Y2, Y3, Y3
	VMOVDQU   Y3, 32(DI)
	ADDQ      $32, SI
	ADDQ      $32, BX
	ADDQ      R8, DI
	DECQ      CX
	JNZ       pair8
	VMOVDQU   Y8, (DX)
	VMOVDQU   Y9, 64(DX)
	VZEROUPPER
	RET
