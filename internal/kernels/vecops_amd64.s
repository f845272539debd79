#include "textflag.h"

// Vector forms of the loops in vecops.go. As in simd_amd64.s, a product is
// rounded (VMULPS) before it is added (VADDPS) — never FMA — and each lane
// runs one scalar loop's operations in that loop's order.

// func reluVec(x *float32, n int)
// max(+0, x) with x as the second source: VMAXPS returns the second source
// when the operands are both zero or either is NaN, so −0 and NaN survive
// as they do through `if v < 0 { x[i] = 0 }`.
TEXT ·reluVec(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	SHRQ $3, CX
	VXORPS Y0, Y0, Y0

relu:
	VMAXPS  (SI), Y0, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     relu
	VZEROUPPER
	RET

// func addVec(dst, src *float32, n int)
TEXT ·addVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

add:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     add
	VZEROUPPER
	RET

// func roundBF16Vec(dst, src *float32, n int, lohi *[16]uint32)
// tensor.RoundBF16 on integer lanes: bits + 0x7fff + (bits>>16 & 1), low
// half cleared; NaN lanes (VCMPPS unordered) take the truncated bits with
// the quiet bit set instead. It also folds every rounded value's magnitude
// bits into two running vectors: lohi[:8] takes the unsigned minimum of
// |v|−1 (a zero wraps to the top and drops out), lohi[8:] the maximum of |v|.
TEXT ·roundBF16Vec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ lohi+24(FP), DX
	SHRQ $3, CX
	VPCMPEQD Y15, Y15, Y15 // all ones
	VPSRLD   $31, Y15, Y14 // 1
	VPSRLD   $17, Y15, Y13 // 0x7fff
	VPSLLD   $16, Y15, Y12 // 0xffff0000
	VPSLLD   $22, Y14, Y11 // 0x00400000: the quiet bit
	VPSRLD   $1, Y15, Y10  // 0x7fffffff
	VMOVDQU  (DX), Y8
	VMOVDQU  32(DX), Y9

round:
	VMOVDQU   (SI), Y0
	VPSRLD    $16, Y0, Y1
	VPAND     Y14, Y1, Y1
	VPADDD    Y13, Y0, Y2
	VPADDD    Y1, Y2, Y2
	VPAND     Y12, Y2, Y2
	VPAND     Y12, Y0, Y3
	VPOR      Y11, Y3, Y3
	VCMPPS    $3, Y0, Y0, Y4
	VBLENDVPS Y4, Y3, Y2, Y5
	VMOVDQU   Y5, (DI)
	VPAND     Y10, Y5, Y5
	VPMAXUD   Y5, Y9, Y9
	VPADDD    Y15, Y5, Y5
	VPMINUD   Y5, Y8, Y8
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       round
	VMOVDQU   Y8, (DX)
	VMOVDQU   Y9, 32(DX)
	VZEROUPPER
	RET

// LOAD4X8 loads columns off..off+3 of the eight key rows at AX into ya-yd:
// row r in the low half and row r+4 in the high half of register r, so a
// 4×4 transpose inside each half leaves one column per register with the
// eight rows in lane order.
#define LOAD4X8(off, ya, yb, yc, yd, xa, xb, xc, xd) \
	VMOVUPS     off(AX), xa                 \
	VMOVUPS     off(AX)(R8*1), xb           \
	VMOVUPS     off(AX)(R8*2), xc           \
	VMOVUPS     off(AX)(R10*1), xd          \
	VINSERTF128 $1, off(AX)(R8*4), ya, ya   \
	VINSERTF128 $1, off(AX)(R11*1), yb, yb  \
	VINSERTF128 $1, off(AX)(R10*2), yc, yc  \
	VINSERTF128 $1, off(AX)(R12*1), yd, yd

// TRANSPOSE4 turns rows ya-yd into columns ya-yd (per 128-bit half), using
// Y8-Y11.
#define TRANSPOSE4(ya, yb, yc, yd) \
	VUNPCKLPS yb, ya, Y8        \
	VUNPCKHPS yb, ya, Y9        \
	VUNPCKLPS yd, yc, Y10       \
	VUNPCKHPS yd, yc, Y11       \
	VSHUFPS   $0x44, Y10, Y8, ya \
	VSHUFPS   $0xEE, Y10, Y8, yb \
	VSHUFPS   $0x44, Y11, Y9, yc \
	VSHUFPS   $0xEE, Y11, Y9, yd

// DOTSTEP adds q[off/4]·column to the eight running sums in Y15.
#define DOTSTEP(off, col) \
	VBROADCASTSS off(BX), Y12 \
	VMULPS       col, Y12, Y13 \
	VADDPS       Y13, Y15, Y15

// func dotRowsVec(q *float32, cols int, rows *float32, strideBytes, groups int, scale float32, out *float32)
// Eight keys at a time, eight columns at a time: transpose the 8×8 block so
// that each register holds one column of all eight keys, then run the
// scalar dot product's j loop with the keys in the lanes.
TEXT ·dotRowsVec(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), SI
	MOVQ cols+8(FP), DX
	MOVQ rows+16(FP), R9
	MOVQ strideBytes+24(FP), R8
	MOVQ groups+32(FP), CX
	VBROADCASTSS scale+40(FP), Y14
	MOVQ out+48(FP), DI
	SHRQ $3, DX             // column blocks per key
	LEAQ (R8)(R8*2), R10    // 3·stride
	LEAQ (R8)(R8*4), R11    // 5·stride
	LEAQ (R10)(R8*4), R12   // 7·stride

group:
	MOVQ   R9, AX           // block cursor along the eight rows
	MOVQ   SI, BX           // q cursor
	MOVQ   DX, R13
	VXORPS Y15, Y15, Y15

block:
	LOAD4X8(0, Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	LOAD4X8(16, Y4, Y5, Y6, Y7, X4, X5, X6, X7)
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	DOTSTEP(0, Y0)
	DOTSTEP(4, Y1)
	DOTSTEP(8, Y2)
	DOTSTEP(12, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	DOTSTEP(16, Y4)
	DOTSTEP(20, Y5)
	DOTSTEP(24, Y6)
	DOTSTEP(28, Y7)
	ADDQ $32, AX
	ADDQ $32, BX
	DECQ R13
	JNZ  block

	VMULPS  Y14, Y15, Y15
	VMOVUPS Y15, (DI)
	ADDQ    $32, DI
	LEAQ    (R9)(R8*8), R9
	DECQ    CX
	JNZ     group
	VZEROUPPER
	RET

// ACCSTEP adds w·(the eight values at off(SI)) to acc; Y8 holds w.
#define ACCSTEP(off, acc, tmp) \
	VMULPS off(SI), Y8, tmp \
	VADDPS tmp, acc, acc

// func accumRows32(out, w, rows *float32, strideBytes, n int)
TEXT ·accumRows32(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), BX
	MOVQ rows+16(FP), SI
	MOVQ strideBytes+24(FP), R8
	MOVQ n+32(FP), CX
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

acc32:
	VBROADCASTSS (BX), Y8
	ACCSTEP(0, Y0, Y9)
	ACCSTEP(32, Y1, Y10)
	ACCSTEP(64, Y2, Y11)
	ACCSTEP(96, Y3, Y12)
	ADDQ $4, BX
	ADDQ R8, SI
	DECQ CX
	JNZ  acc32
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// func accumRows8(out, w, rows *float32, strideBytes, n int)
TEXT ·accumRows8(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ w+8(FP), BX
	MOVQ rows+16(FP), SI
	MOVQ strideBytes+24(FP), R8
	MOVQ n+32(FP), CX
	VMOVUPS (DI), Y0

acc8:
	VBROADCASTSS (BX), Y8
	ACCSTEP(0, Y0, Y9)
	ADDQ $4, BX
	ADDQ R8, SI
	DECQ CX
	JNZ  acc8
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET
