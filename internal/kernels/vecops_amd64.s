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

// The row ops of rowops.go under its lane-order rule. A reduction keeps
// its sixteen lanes in two accumulators, Y8 (lanes 0-7) and Y9 (lanes
// 8-15): sixteen elements at a time, then an eight-element block into Y8
// when n mod 16 ≥ 8, then the last n mod 8 elements into the next
// accumulator through a mask. VMASKMOVPS reads masked-out lanes as +0 and
// never touches their memory; a lane sum starts at +0 and so is never −0,
// which makes adding those +0s exact no-ops.

// Exp32's constants, each a float32 bit pattern, in the order EXP8 reads
// them (rowops.go holds the same values).
DATA expc<>+0(SB)/4, $0x3fb8aa3b  // log2(e)
DATA expc<>+4(SB)/4, $0x3f318000  // ln2Hi
DATA expc<>+8(SB)/4, $0xb95e8083  // ln2Lo
DATA expc<>+12(SB)/4, $0x3ab43e01 // c6
DATA expc<>+16(SB)/4, $0x3c091dcd // c5
DATA expc<>+20(SB)/4, $0x3d2aadac // c4
DATA expc<>+24(SB)/4, $0x3e2aaa47 // c3
DATA expc<>+28(SB)/4, $0x3efffffc // c2
DATA expc<>+32(SB)/4, $0x3f800000 // c1 = c0 = 1
DATA expc<>+36(SB)/4, $0x42b17217 // expHi
DATA expc<>+40(SB)/4, $0xc2aeac4f // expLo
DATA expc<>+44(SB)/4, $0x7f800000 // +Inf
DATA expc<>+48(SB)/4, $0x80000000 // the sign bit
GLOBL expc<>(SB), RODATA|NOPTR, $52

// The 32 bytes at tailmask+32−4r select the first r lanes.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $0
DATA tailmask<>+40(SB)/8, $0
DATA tailmask<>+48(SB)/8, $0
DATA tailmask<>+56(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// TAILMASK loads the mask of the last n mod 8 elements into mask, using AX
// and DX.
#define TAILMASK(n, mask) \
	MOVQ    n, AX                 \
	ANDQ    $7, AX                \
	SHLQ    $2, AX                \
	LEAQ    tailmask<>+32(SB), DX \
	SUBQ    AX, DX                \
	VMOVDQU (DX), mask

// FOLD16 folds the sixteen lane sums in lo and hi as (l, l+8), (l, l+4),
// (l, l+2), (l, l+1), leaving the total in the low lane of xlo (the X form
// of lo; xhi is hi's).
#define FOLD16(lo, hi, xlo, xhi) \
	VADDPS       hi, lo, lo    \
	VEXTRACTF128 $1, lo, xhi   \
	VADDPS       xhi, xlo, xlo \
	VMOVHLPS     xlo, xlo, xhi \
	VADDPS       xhi, xlo, xlo \
	VMOVSHDUP    xlo, xhi      \
	VADDSS       xhi, xlo, xlo

// RECIP sets the low lane of xout to 1 / the low lane of xin.
#define RECIP(xin, xout) \
	VMOVSS expc<>+32(SB), xout \
	VDIVSS xin, xout, xout

// EXP8 sets out to Exp32 of each lane of in (left unchanged), using t1-t3,
// one rounded operation per step of the Go routine: t1 = n =
// roundEven(x·log2e), out = r = (x − n·ln2Hi) − n·ln2Lo, t2 = the Horner
// polynomial in r, plus n in its exponent bits; then lanes above expHi
// become +Inf, lanes below expLo +0, and NaN lanes x itself.
#define EXP8(in, out, t1, t2, t3) \
	VBROADCASTSS expc<>+0(SB), t1  \
	VMULPS       t1, in, t1        \
	VROUNDPS     $0, t1, t1        \
	VBROADCASTSS expc<>+4(SB), t2  \
	VMULPS       t2, t1, t2        \
	VSUBPS       t2, in, out       \
	VBROADCASTSS expc<>+8(SB), t2  \
	VMULPS       t2, t1, t2        \
	VSUBPS       t2, out, out      \
	VCVTPS2DQ    t1, t1            \
	VPSLLD       $23, t1, t1       \
	VBROADCASTSS expc<>+12(SB), t2 \
	VMULPS       out, t2, t2       \
	VBROADCASTSS expc<>+16(SB), t3 \
	VADDPS       t3, t2, t2        \
	VMULPS       out, t2, t2       \
	VBROADCASTSS expc<>+20(SB), t3 \
	VADDPS       t3, t2, t2        \
	VMULPS       out, t2, t2       \
	VBROADCASTSS expc<>+24(SB), t3 \
	VADDPS       t3, t2, t2        \
	VMULPS       out, t2, t2       \
	VBROADCASTSS expc<>+28(SB), t3 \
	VADDPS       t3, t2, t2        \
	VMULPS       out, t2, t2       \
	VBROADCASTSS expc<>+32(SB), t3 \
	VADDPS       t3, t2, t2        \
	VMULPS       out, t2, t2       \
	VADDPS       t3, t2, t2        \
	VPADDD       t1, t2, out       \
	VBROADCASTSS expc<>+36(SB), t1 \
	VCMPPS       $0x1e, t1, in, t1 \
	VBROADCASTSS expc<>+44(SB), t2 \
	VBLENDVPS    t1, t2, out, out  \
	VBROADCASTSS expc<>+40(SB), t1 \
	VCMPPS       $0x11, t1, in, t1 \
	VANDNPS      out, t1, out      \
	VCMPPS       $3, in, in, t1    \
	VBLENDVPS    t1, in, out, out

// func exp32Vec(dst, src *float32, n int)
TEXT ·exp32Vec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

exp:
	VMOVUPS (SI), Y0
	EXP8(Y0, Y1, Y2, Y3, Y4)
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     exp
	VZEROUPPER
	RET

// func siluVec(x *float32, n int)
// v / (1 + Exp32(−v)), the negation a sign flip as Go's is (a NaN keeps its
// payload with the sign inverted).
TEXT ·siluVec(SB), NOSPLIT, $0-16
	MOVQ         x+0(FP), SI
	MOVQ         n+8(FP), CX
	SHRQ         $3, CX
	VBROADCASTSS expc<>+48(SB), Y6
	VBROADCASTSS expc<>+32(SB), Y7

silu:
	VMOVUPS (SI), Y0
	VXORPS  Y6, Y0, Y1
	EXP8(Y1, Y2, Y3, Y4, Y5)
	VADDPS  Y2, Y7, Y2
	VDIVPS  Y2, Y0, Y2
	VMOVUPS Y2, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     silu
	VZEROUPPER
	RET

// SOFTEXP stores e = Exp32(x − max) over the eight elements at off(SI) and
// adds it to acc; Y0 holds max.
#define SOFTEXP(off, acc) \
	VMOVUPS off(SI), Y1      \
	VSUBPS  Y0, Y1, Y1       \
	EXP8(Y1, Y2, Y3, Y4, Y5) \
	VMOVUPS Y2, off(SI)      \
	VADDPS  Y2, acc, acc

// SOFTEXPTAIL is SOFTEXP over the lanes of the mask in Y7.
#define SOFTEXPTAIL(acc) \
	VMASKMOVPS (SI), Y7, Y1  \
	VSUBPS     Y0, Y1, Y1    \
	EXP8(Y1, Y2, Y3, Y4, Y5) \
	VMASKMOVPS Y2, Y7, (SI)  \
	VANDPS     Y7, Y2, Y2    \
	VADDPS     Y2, acc, acc

// func softmaxVec(x *float32, n int)
// n ≥ 1. The maximum is order-free (its lanes past the end hold x[0]; the
// sign of a zero maximum cannot change an exponential, and a NaN anywhere
// makes every output NaN either way); then e = Exp32(x − max) stored and
// summed by the rule, then x = e · (1/Σe).
TEXT ·softmaxVec(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	TAILMASK(CX, Y7)

	VBROADCASTSS (DI), Y0
	MOVQ         DI, SI
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           smaxtail

smax:
	VMAXPS (SI), Y0, Y0
	ADDQ   $32, SI
	DECQ   BX
	JNZ    smax

smaxtail:
	TESTQ      $7, CX
	JZ         smaxfold
	VMASKMOVPS (SI), Y7, Y1
	VBLENDVPS  Y7, Y1, Y0, Y1
	VMAXPS     Y1, Y0, Y0

smaxfold:
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VBROADCASTSS X0, Y0

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ   DI, SI
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     sexp8

sexp16:
	SOFTEXP(0, Y8)
	SOFTEXP(32, Y9)
	ADDQ $64, SI
	DECQ BX
	JNZ  sexp16

sexp8:
	TESTQ $8, CX
	JZ    sexptail
	SOFTEXP(0, Y8)
	ADDQ  $32, SI
	TESTQ $7, CX
	JZ    ssum
	SOFTEXPTAIL(Y9)
	JMP   ssum

sexptail:
	TESTQ $7, CX
	JZ    ssum
	SOFTEXPTAIL(Y8)

ssum:
	FOLD16(Y8, Y9, X8, X9)
	RECIP(X8, X1)
	VBROADCASTSS X1, Y1
	MOVQ         DI, SI
	MOVQ         CX, BX
	SHRQ         $3, BX
	JZ           sscaletail

sscale:
	VMULPS  (SI), Y1, Y2
	VMOVUPS Y2, (SI)
	ADDQ    $32, SI
	DECQ    BX
	JNZ     sscale

sscaletail:
	TESTQ      $7, CX
	JZ         sdone
	VMASKMOVPS (SI), Y7, Y2
	VMULPS     Y2, Y1, Y2
	VMASKMOVPS Y2, Y7, (SI)

sdone:
	VZEROUPPER
	RET

// SQDEV adds (x − mean)², the square rounded, for the eight elements at
// off(AX) to acc; Y6 holds mean.
#define SQDEV(off, acc) \
	VMOVUPS off(AX), Y1 \
	VSUBPS  Y6, Y1, Y1  \
	VMULPS  Y1, Y1, Y1  \
	VADDPS  Y1, acc, acc

// SQDEVTAIL is SQDEV over the lanes of the mask in Y7 (the others' squares
// are of −mean, so they are masked to +0 before the add).
#define SQDEVTAIL(acc) \
	VMASKMOVPS (AX), Y7, Y1 \
	VSUBPS     Y6, Y1, Y1   \
	VMULPS     Y1, Y1, Y1   \
	VANDPS     Y7, Y1, Y1   \
	VADDPS     Y1, acc, acc

// INVSQRT sets Y5 to 1 / float32(sqrt(float64(X8 + eps))) in every lane,
// the square root taken in float64 as the Go loop's math.Sqrt is.
#define INVSQRT(eps) \
	VADDSS       eps, X8, X8 \
	VCVTSS2SD    X8, X8, X8  \
	VSQRTSD      X8, X8, X8  \
	VCVTSD2SS    X8, X8, X8  \
	RECIP(X8, X1)            \
	VBROADCASTSS X1, Y5

// func layerNormVec(dst, x, gain, bias *float32, n int, eps float32)
// n ≥ 1: mean = Σx / n, variance = Σ(x − mean)² / n, both sums by the rule,
// inv = 1/float32(sqrt(float64(variance + eps))), then
// dst = ((x − mean)·inv)·gain + bias, each step rounded.
TEXT ·layerNormVec(SB), NOSPLIT, $0-44
	MOVQ       dst+0(FP), DI
	MOVQ       x+8(FP), SI
	MOVQ       gain+16(FP), R8
	MOVQ       bias+24(FP), R9
	MOVQ       n+32(FP), CX
	TAILMASK(CX, Y7)
	VCVTSI2SSQ CX, X10, X10

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ   SI, AX
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     lsum8

lsum16:
	VADDPS (AX), Y8, Y8
	VADDPS 32(AX), Y9, Y9
	ADDQ   $64, AX
	DECQ   BX
	JNZ    lsum16

lsum8:
	TESTQ      $8, CX
	JZ         lsumtail
	VADDPS     (AX), Y8, Y8
	ADDQ       $32, AX
	TESTQ      $7, CX
	JZ         lmean
	VMASKMOVPS (AX), Y7, Y1
	VADDPS     Y1, Y9, Y9
	JMP        lmean

lsumtail:
	TESTQ      $7, CX
	JZ         lmean
	VMASKMOVPS (AX), Y7, Y1
	VADDPS     Y1, Y8, Y8

lmean:
	FOLD16(Y8, Y9, X8, X9)
	VDIVSS       X10, X8, X8
	VBROADCASTSS X8, Y6

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ   SI, AX
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     lvar8

lvar16:
	SQDEV(0, Y8)
	SQDEV(32, Y9)
	ADDQ $64, AX
	DECQ BX
	JNZ  lvar16

lvar8:
	TESTQ $8, CX
	JZ    lvartail
	SQDEV(0, Y8)
	ADDQ  $32, AX
	TESTQ $7, CX
	JZ    lvar
	SQDEVTAIL(Y9)
	JMP   lvar

lvartail:
	TESTQ $7, CX
	JZ    lvar
	SQDEVTAIL(Y8)

lvar:
	FOLD16(Y8, Y9, X8, X9)
	VDIVSS X10, X8, X8
	INVSQRT(eps+40(FP))
	MOVQ   CX, BX
	SHRQ   $3, BX
	JZ     lnormtail

lnorm:
	VMOVUPS (SI), Y1
	VSUBPS  Y6, Y1, Y1
	VMULPS  Y5, Y1, Y1
	VMULPS  (R8), Y1, Y1
	VADDPS  (R9), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    BX
	JNZ     lnorm

lnormtail:
	TESTQ      $7, CX
	JZ         ldone
	VMASKMOVPS (SI), Y7, Y1
	VMASKMOVPS (R8), Y7, Y2
	VMASKMOVPS (R9), Y7, Y3
	VSUBPS     Y6, Y1, Y1
	VMULPS     Y5, Y1, Y1
	VMULPS     Y2, Y1, Y1
	VADDPS     Y3, Y1, Y1
	VMASKMOVPS Y1, Y7, (DI)

ldone:
	VZEROUPPER
	RET

// SQUARE adds x², rounded, for the eight elements at off(AX) to acc (a
// masked-out lane's 0·0 is +0).
#define SQUARE(off, acc) \
	VMOVUPS off(AX), Y1 \
	VMULPS  Y1, Y1, Y1  \
	VADDPS  Y1, acc, acc

// func rmsNormVec(dst, x, gain *float32, n int, eps float32)
// n ≥ 1: inv = 1/float32(sqrt(float64(Σx²/n + eps))), Σx² by the rule,
// then dst = (x·inv)·gain.
TEXT ·rmsNormVec(SB), NOSPLIT, $0-36
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ gain+16(FP), R8
	MOVQ n+24(FP), CX
	TAILMASK(CX, Y7)

	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	MOVQ   SI, AX
	MOVQ   CX, BX
	SHRQ   $4, BX
	JZ     rsum8

rsum16:
	SQUARE(0, Y8)
	SQUARE(32, Y9)
	ADDQ $64, AX
	DECQ BX
	JNZ  rsum16

rsum8:
	TESTQ      $8, CX
	JZ         rsumtail
	SQUARE(0, Y8)
	ADDQ       $32, AX
	TESTQ      $7, CX
	JZ         rinv
	VMASKMOVPS (AX), Y7, Y1
	VMULPS     Y1, Y1, Y1
	VADDPS     Y1, Y9, Y9
	JMP        rinv

rsumtail:
	TESTQ      $7, CX
	JZ         rinv
	VMASKMOVPS (AX), Y7, Y1
	VMULPS     Y1, Y1, Y1
	VADDPS     Y1, Y8, Y8

rinv:
	FOLD16(Y8, Y9, X8, X9)
	VCVTSI2SSQ CX, X10, X10
	VDIVSS     X10, X8, X8
	INVSQRT(eps+32(FP))
	MOVQ       CX, BX
	SHRQ       $3, BX
	JZ         rnormtail

rnorm:
	VMULPS  (SI), Y5, Y1
	VMULPS  (R8), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    BX
	JNZ     rnorm

rnormtail:
	TESTQ      $7, CX
	JZ         rdone
	VMASKMOVPS (SI), Y7, Y1
	VMASKMOVPS (R8), Y7, Y2
	VMULPS     Y1, Y5, Y1
	VMULPS     Y2, Y1, Y1
	VMASKMOVPS Y1, Y7, (DI)

rdone:
	VZEROUPPER
	RET
