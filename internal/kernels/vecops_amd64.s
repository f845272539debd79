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

// func mulVec(dst, src *float32, n int)
TEXT ·mulVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $3, CX

mul:
	VMOVUPS (DI), Y0
	VMULPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     mul
	VZEROUPPER
	RET

// func mulVec16(dst, src *float32, n int)
TEXT ·mulVec16(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX

mul16:
	VMOVUPS (DI), Z0
	VMULPS  (SI), Z0, Z0
	VMOVUPS Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	DECQ    CX
	JNZ     mul16
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

// The head block's routines (attn.go). Scores keep the keys in the lanes
// as dotRowsVec does, with the transpose done once per group instead of
// once per query row; weighted sums keep head-dim columns in the lanes as
// accumRows8 does, for eight output rows per value-row load.

// func transposeKeys8(kt, keys *float32, strideBytes, cols, colBytes int)
TEXT ·transposeKeys8(SB), NOSPLIT, $0-40
	MOVQ kt+0(FP), DI
	MOVQ keys+8(FP), AX
	MOVQ strideBytes+16(FP), R8
	MOVQ cols+24(FP), CX
	MOVQ colBytes+32(FP), R13
	SHRQ $3, CX
	LEAQ (R8)(R8*2), R10   // 3·stride
	LEAQ (R8)(R8*4), R11   // 5·stride
	LEAQ (R10)(R8*4), R12  // 7·stride
	LEAQ (R13)(R13*2), R9  // 3·colBytes
	LEAQ (R13)(R13*4), DX  // 5·colBytes
	LEAQ (R9)(R13*4), BX   // 7·colBytes

tblock:
	LOAD4X8(0, Y0, Y1, Y2, Y3, X0, X1, X2, X3)
	LOAD4X8(16, Y4, Y5, Y6, Y7, X4, X5, X6, X7)
	TRANSPOSE4(Y0, Y1, Y2, Y3)
	TRANSPOSE4(Y4, Y5, Y6, Y7)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R13*1)
	VMOVUPS Y2, (DI)(R13*2)
	VMOVUPS Y3, (DI)(R9*1)
	VMOVUPS Y4, (DI)(R13*4)
	VMOVUPS Y5, (DI)(DX*1)
	VMOVUPS Y6, (DI)(R9*2)
	VMOVUPS Y7, (DI)(BX*1)
	ADDQ    $32, AX
	LEAQ    (DI)(R13*8), DI
	DECQ    CX
	JNZ     tblock
	VZEROUPPER
	RET

// SCORESTEP adds q_r[j]·(the group's column j, in Y15) to acc, the query
// value at mem.
#define SCORESTEP(mem, acc, tmp) \
	VBROADCASTSS mem, tmp       \
	VMULPS       Y15, tmp, tmp  \
	VADDPS       tmp, acc, acc

// SCORESTORE scales acc and stores its lanes under the mask in Y14 at
// (BX), then steps BX to the next score row.
#define SCORESTORE(acc) \
	VMULPS     Y13, acc, acc  \
	VMASKMOVPS acc, Y14, (BX) \
	ADDQ       R9, BX

// func scoreRowsVec(kt *float32, cols int, q *float32, qStrideBytes, rows int, scale float32, s *float32, sStrideBytes, lanes int)
// Eight query rows at a time, one accumulator each, so eight independent
// chains share every column load; each lane is the scalar dot product's
// ascending-j sum, then times scale. When the rows do not come in eights
// the last block is moved back to overlap the one before (recomputing
// the same bits); fewer than eight rows in all go one at a time.
TEXT ·scoreRowsVec(SB), NOSPLIT, $0-72
	MOVQ         cols+8(FP), DX
	MOVQ         q+16(FP), R13
	MOVQ         qStrideBytes+24(FP), R8
	MOVQ         rows+32(FP), AX
	VBROADCASTSS scale+40(FP), Y13
	MOVQ         s+48(FP), DI
	MOVQ         sStrideBytes+56(FP), R9
	MOVQ         lanes+64(FP), CX
	SHLQ         $2, CX
	LEAQ         tailmask<>+32(SB), BX
	SUBQ         CX, BX
	VMOVDQU      (BX), Y14        // the first `lanes` lanes
	LEAQ         (R8)(R8*2), R10  // 3·qStride
	LEAQ         (R8)(R8*4), R11  // 5·qStride
	LEAQ         (R10)(R8*4), R12 // 7·qStride
	CMPQ         AX, $8
	JLT          srow

sblock:
	MOVQ   kt+0(FP), SI
	MOVQ   R13, BX
	MOVQ   DX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

scol:
	VMOVUPS (SI), Y15
	SCORESTEP((BX), Y0, Y8)
	SCORESTEP((BX)(R8*1), Y1, Y9)
	SCORESTEP((BX)(R8*2), Y2, Y10)
	SCORESTEP((BX)(R10*1), Y3, Y11)
	SCORESTEP((BX)(R8*4), Y4, Y12)
	SCORESTEP((BX)(R11*1), Y5, Y8)
	SCORESTEP((BX)(R10*2), Y6, Y9)
	SCORESTEP((BX)(R12*1), Y7, Y10)
	ADDQ $32, SI
	ADDQ $4, BX
	DECQ CX
	JNZ  scol

	MOVQ DI, BX
	SCORESTORE(Y0)
	SCORESTORE(Y1)
	SCORESTORE(Y2)
	SCORESTORE(Y3)
	SCORESTORE(Y4)
	SCORESTORE(Y5)
	SCORESTORE(Y6)
	SCORESTORE(Y7)
	LEAQ (R13)(R8*8), R13
	LEAQ (DI)(R9*8), DI
	SUBQ $8, AX
	CMPQ AX, $8
	JGE  sblock
	TESTQ AX, AX
	JZ   sdone8

	// 1-7 rows left after at least eight: back up to the last eight.
	MOVQ  $8, CX
	SUBQ  AX, CX
	MOVQ  CX, BX
	IMULQ R8, BX
	SUBQ  BX, R13
	IMULQ R9, CX
	SUBQ  CX, DI
	MOVQ  $8, AX
	JMP   sblock

srow:
	MOVQ   kt+0(FP), SI
	MOVQ   R13, BX
	MOVQ   DX, CX
	VXORPS Y0, Y0, Y0

srowcol:
	VBROADCASTSS (BX), Y8
	VMULPS       (SI), Y8, Y8
	VADDPS       Y8, Y0, Y0
	ADDQ         $32, SI
	ADDQ         $4, BX
	DECQ         CX
	JNZ          srowcol
	VMULPS       Y13, Y0, Y0
	VMASKMOVPS   Y0, Y14, (DI)
	ADDQ         R8, R13
	ADDQ         R9, DI
	DECQ         AX
	JNZ          srow

sdone8:
	VZEROUPPER
	RET

// WSTEP adds w_r[k] (at mem) times the value row's eight columns (in Y8)
// to acc.
#define WSTEP(mem, acc, tmp) \
	VBROADCASTSS mem, tmp      \
	VMULPS       Y8, tmp, tmp  \
	VADDPS       tmp, acc, acc

// WROWS loads or stores the eight output rows' accumulators Y0-Y7 at DI,
// `stride` apart, through AX.
#define WROWS(OP, stride) \
	MOVQ DI, AX                       \
	OP(Y0, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y1, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y2, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y3, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y4, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y5, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y6, (AX))                     \
	ADDQ stride, AX                   \
	OP(Y7, (AX))

#define LOADROW(y, mem) VMOVUPS mem, y
#define STOREROW(y, mem) VMOVUPS y, mem

// func accumRowsBlock8(out *float32, outStrideBytes int, w *float32, wStrideBytes int, vals *float32, valStrideBytes, n, tri, cols8 int)
// Per block of eight columns: the eight output rows in Y0-Y7, then for
// each of the n value rows every output row adds its weight times it; then
// the causal triangle, value row n+e going to rows e+1..7 for e < tri.
// Every element is accumRows8's ascending-k chain.
TEXT ·accumRowsBlock8(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ wStrideBytes+24(FP), R8
	MOVQ valStrideBytes+40(FP), R9
	MOVQ n+48(FP), DX
	MOVQ tri+56(FP), R13
	LEAQ (R8)(R8*2), R10  // 3·wStride
	LEAQ (R8)(R8*4), R11  // 5·wStride
	LEAQ (R10)(R8*4), R12 // 7·wStride

wblock:
	WROWS(LOADROW, outStrideBytes+8(FP))
	MOVQ DI, SI           // this column block of the value rows
	SUBQ out+0(FP), SI
	ADDQ vals+32(FP), SI
	MOVQ w+16(FP), BX
	MOVQ DX, CX

wkey:
	VMOVUPS (SI), Y8
	WSTEP((BX), Y0, Y9)
	WSTEP((BX)(R8*1), Y1, Y10)
	WSTEP((BX)(R8*2), Y2, Y11)
	WSTEP((BX)(R10*1), Y3, Y12)
	WSTEP((BX)(R8*4), Y4, Y13)
	WSTEP((BX)(R11*1), Y5, Y14)
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	ADDQ $4, BX
	ADDQ R9, SI
	DECQ CX
	JNZ  wkey

	CMPQ R13, $0
	JEQ  wstore
	VMOVUPS (SI), Y8
	WSTEP((BX)(R8*1), Y1, Y10)
	WSTEP((BX)(R8*2), Y2, Y11)
	WSTEP((BX)(R10*1), Y3, Y12)
	WSTEP((BX)(R8*4), Y4, Y13)
	WSTEP((BX)(R11*1), Y5, Y14)
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	CMPQ R13, $1
	JEQ  wstore
	ADDQ $4, BX
	ADDQ R9, SI
	VMOVUPS (SI), Y8
	WSTEP((BX)(R8*2), Y2, Y11)
	WSTEP((BX)(R10*1), Y3, Y12)
	WSTEP((BX)(R8*4), Y4, Y13)
	WSTEP((BX)(R11*1), Y5, Y14)
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	CMPQ R13, $2
	JEQ  wstore
	ADDQ $4, BX
	ADDQ R9, SI
	VMOVUPS (SI), Y8
	WSTEP((BX)(R10*1), Y3, Y12)
	WSTEP((BX)(R8*4), Y4, Y13)
	WSTEP((BX)(R11*1), Y5, Y14)
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	CMPQ R13, $3
	JEQ  wstore
	ADDQ $4, BX
	ADDQ R9, SI
	VMOVUPS (SI), Y8
	WSTEP((BX)(R8*4), Y4, Y13)
	WSTEP((BX)(R11*1), Y5, Y14)
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	CMPQ R13, $4
	JEQ  wstore
	ADDQ $4, BX
	ADDQ R9, SI
	VMOVUPS (SI), Y8
	WSTEP((BX)(R11*1), Y5, Y14)
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	CMPQ R13, $5
	JEQ  wstore
	ADDQ $4, BX
	ADDQ R9, SI
	VMOVUPS (SI), Y8
	WSTEP((BX)(R10*2), Y6, Y15)
	WSTEP((BX)(R12*1), Y7, Y9)
	CMPQ R13, $6
	JEQ  wstore
	ADDQ $4, BX
	ADDQ R9, SI
	VMOVUPS (SI), Y8
	WSTEP((BX)(R12*1), Y7, Y9)

wstore:
	WROWS(STOREROW, outStrideBytes+8(FP))
	ADDQ $32, DI
	MOVQ DI, AX
	SUBQ out+0(FP), AX
	MOVQ cols8+64(FP), CX
	SHLQ $5, CX
	CMPQ AX, CX
	JLT  wblock
	VZEROUPPER
	RET

// EXP16 is EXP8 on a ZMM register: the same rounded steps with the
// constants as embedded broadcasts, the special lanes blended under K6.
#define EXP16(in, out, t1, t2) \
	VMULPS.BCST  expc<>+0(SB), in, t1   \
	VRNDSCALEPS  $0, t1, t1             \
	VMULPS.BCST  expc<>+4(SB), t1, t2   \
	VSUBPS       t2, in, out            \
	VMULPS.BCST  expc<>+8(SB), t1, t2   \
	VSUBPS       t2, out, out           \
	VCVTPS2DQ    t1, t1                 \
	VPSLLD       $23, t1, t1            \
	VMULPS.BCST  expc<>+12(SB), out, t2 \
	VADDPS.BCST  expc<>+16(SB), t2, t2  \
	VMULPS       out, t2, t2            \
	VADDPS.BCST  expc<>+20(SB), t2, t2  \
	VMULPS       out, t2, t2            \
	VADDPS.BCST  expc<>+24(SB), t2, t2  \
	VMULPS       out, t2, t2            \
	VADDPS.BCST  expc<>+28(SB), t2, t2  \
	VMULPS       out, t2, t2            \
	VADDPS.BCST  expc<>+32(SB), t2, t2  \
	VMULPS       out, t2, t2            \
	VADDPS.BCST  expc<>+32(SB), t2, t2  \
	VPADDD       t1, t2, out            \
	VCMPPS.BCST  $0x1e, expc<>+36(SB), in, K6 \
	VBROADCASTSS expc<>+44(SB), K6, out \
	VCMPPS.BCST  $0x11, expc<>+40(SB), in, K6 \
	VPXORD       out, out, K6, out      \
	VCMPPS       $3, in, in, K6         \
	VMOVAPS      in, K6, out

// TAILMASKS sets K1 to the first min(r, 16) lanes and K2 to the first
// r − min(r, 16), for r = (BX mod 16) + i: row i's elements past the
// group's common 16-element blocks. Uses AX, CX, DX and R11.
#define TAILMASKS(i) \
	MOVQ    BX, AX       \
	ANDQ    $15, AX      \
	ADDQ    $i, AX       \
	MOVQ    AX, CX       \
	MOVQ    $16, R11     \
	CMPQ    CX, R11      \
	CMOVQGT R11, CX      \
	SUBQ    CX, AX       \
	MOVL    $1, DX       \
	SHLL    CX, DX       \
	DECL    DX           \
	KMOVW   DX, K1       \
	MOVQ    AX, CX       \
	MOVL    $1, DX       \
	SHLL    CX, DX       \
	DECL    DX           \
	KMOVW   DX, K2

// ROWMAX folds the sixteen lanes of zmax to their maximum, broadcast back;
// xmax and ymax are its narrower forms, X8/Y8 scratch.
#define ROWMAX(zmax, ymax, xmax) \
	VEXTRACTF64X4 $1, zmax, Y8   \
	VMAXPS        Y8, ymax, ymax \
	VEXTRACTF128  $1, ymax, X8   \
	VMAXPS        X8, xmax, xmax \
	VPERMILPS     $0x4e, xmax, X8 \
	VMAXPS        X8, xmax, xmax \
	VPERMILPS     $0xb1, xmax, X8 \
	VMAXPS        X8, xmax, xmax \
	VBROADCASTSS  xmax, zmax

// ROWINV sets zinv to 1/(the sixteen lane sums of zacc folded as FOLD16
// folds them), broadcast; yacc, xacc, xinv are narrower forms, X8/Y8
// scratch.
#define ROWINV(zacc, yacc, xacc, zinv, xinv) \
	VEXTRACTF64X4 $1, zacc, Y8   \
	VADDPS        Y8, yacc, yacc \
	VEXTRACTF128  $1, yacc, X8   \
	VADDPS        X8, xacc, xacc \
	VMOVHLPS      xacc, xacc, X8 \
	VADDPS        X8, xacc, xacc \
	VMOVSHDUP     xacc, X8       \
	VADDSS        X8, xacc, xacc \
	RECIP(xacc, xinv)            \
	VBROADCASTSS  xinv, zinv

// SMEXP sets zout to e = Exp32(x − max) over the sixteen elements at mem
// (zmax holds max) and adds it to zacc, all under mask k (K7: every lane).
#define SMEXP(mem, k, zmax, zacc, zin, zout, t1, t2) \
	VMOVUPS.Z mem, k, zin          \
	VSUBPS    zmax, zin, zin       \
	EXP16(zin, zout, t1, t2)       \
	VADDPS    zout, zacc, k, zacc

// SMSCALE stores ze·zinv to the sixteen elements at mem under mask k.
#define SMSCALE(ze, k, zinv, mem) \
	VMULPS  ze, zinv, ze \
	VMOVUPS ze, k, mem

// func softmaxRows16(x *float32, strideBytes, groups, n0 int)
// Softmax over `groups` groups of four rows, strideBytes apart, row r
// n0+r elements long, one ZMM per sixteen elements: the 16-lane rule in
// one register, so each row gets softmaxVec's bits. A group's four rows go
// through each phase together — maximum, exponentials and sums, scaling —
// so their exponential chains overlap. The rows' common 16-element blocks
// run unmasked; each row's last one or two blocks run under TAILMASKS,
// a second one only where the row has one.
TEXT ·softmaxRows16(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ strideBytes+8(FP), R8
	MOVQ groups+16(FP), R9
	MOVQ n0+24(FP), BX
	LEAQ (R8)(R8*2), R10 // 3·stride
	KXNORW K0, K0, K7    // every lane

sgroup:
	MOVQ BX, R12
	SHRQ $4, R12         // blocks every row of the group fills

	// Maximum, its lanes starting at the row's first element.
	VBROADCASTSS (DI), Z0
	VBROADCASTSS (DI)(R8*1), Z1
	VBROADCASTSS (DI)(R8*2), Z2
	VBROADCASTSS (DI)(R10*1), Z3
	MOVQ         DI, SI
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           smtail

smfull:
	VMAXPS (SI), Z0, Z0
	VMAXPS (SI)(R8*1), Z1, Z1
	VMAXPS (SI)(R8*2), Z2, Z2
	VMAXPS (SI)(R10*1), Z3, Z3
	ADDQ   $64, SI
	DECQ   CX
	JNZ    smfull

smtail:
	TAILMASKS(0)
	VMAXPS (SI), Z0, K1, Z0
	TAILMASKS(1)
	VMAXPS   (SI)(R8*1), Z1, K1, Z1
	KORTESTW K2, K2
	JZ       smtail2
	VMAXPS   64(SI)(R8*1), Z1, K2, Z1

smtail2:
	TAILMASKS(2)
	VMAXPS   (SI)(R8*2), Z2, K1, Z2
	KORTESTW K2, K2
	JZ       smtail3
	VMAXPS   64(SI)(R8*2), Z2, K2, Z2

smtail3:
	TAILMASKS(3)
	VMAXPS   (SI)(R10*1), Z3, K1, Z3
	KORTESTW K2, K2
	JZ       smfold
	VMAXPS   64(SI)(R10*1), Z3, K2, Z3

smfold:
	ROWMAX(Z0, Y0, X0)
	ROWMAX(Z1, Y1, X1)
	ROWMAX(Z2, Y2, X2)
	ROWMAX(Z3, Y3, X3)

	// Exponentials, stored and summed.
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ   DI, SI
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     setail

sefull:
	SMEXP((SI), K7, Z0, Z4, Z10, Z11, Z12, Z13)
	VMOVUPS Z11, (SI)
	SMEXP((SI)(R8*1), K7, Z1, Z5, Z14, Z15, Z16, Z17)
	VMOVUPS Z15, (SI)(R8*1)
	SMEXP((SI)(R8*2), K7, Z2, Z6, Z18, Z19, Z20, Z21)
	VMOVUPS Z19, (SI)(R8*2)
	SMEXP((SI)(R10*1), K7, Z3, Z7, Z22, Z23, Z24, Z25)
	VMOVUPS Z23, (SI)(R10*1)
	ADDQ    $64, SI
	DECQ    CX
	JNZ     sefull

	// The last blocks' exponentials stay in registers until scaled: a
	// masked store does not forward to the load that would read them back.
setail:
	TAILMASKS(0)
	SMEXP((SI), K1, Z0, Z4, Z10, Z11, Z12, Z13)
	TAILMASKS(1)
	SMEXP((SI)(R8*1), K1, Z1, Z5, Z14, Z15, Z16, Z17)
	KORTESTW K2, K2
	JZ       setail2
	SMEXP(64(SI)(R8*1), K2, Z1, Z5, Z26, Z27, Z16, Z17)

setail2:
	TAILMASKS(2)
	SMEXP((SI)(R8*2), K1, Z2, Z6, Z18, Z19, Z20, Z21)
	KORTESTW K2, K2
	JZ       setail3
	SMEXP(64(SI)(R8*2), K2, Z2, Z6, Z28, Z29, Z20, Z21)

setail3:
	TAILMASKS(3)
	SMEXP((SI)(R10*1), K1, Z3, Z7, Z22, Z23, Z24, Z25)
	KORTESTW K2, K2
	JZ       sesum
	SMEXP(64(SI)(R10*1), K2, Z3, Z7, Z30, Z31, Z24, Z25)

sesum:
	ROWINV(Z4, Y4, X4, Z0, X0)
	ROWINV(Z5, Y5, X5, Z1, X1)
	ROWINV(Z6, Y6, X6, Z2, X2)
	ROWINV(Z7, Y7, X7, Z3, X3)

	// Scaling: the tail blocks from their registers, first (SI still
	// points at them), then the common blocks from memory.
	TAILMASKS(0)
	SMSCALE(Z11, K1, Z0, (SI))
	TAILMASKS(1)
	SMSCALE(Z15, K1, Z1, (SI)(R8*1))
	KORTESTW K2, K2
	JZ       sstail2
	SMSCALE(Z27, K2, Z1, 64(SI)(R8*1))

sstail2:
	TAILMASKS(2)
	SMSCALE(Z19, K1, Z2, (SI)(R8*2))
	KORTESTW K2, K2
	JZ       sstail3
	SMSCALE(Z29, K2, Z2, 64(SI)(R8*2))

sstail3:
	TAILMASKS(3)
	SMSCALE(Z23, K1, Z3, (SI)(R10*1))
	KORTESTW K2, K2
	JZ       ssbody
	SMSCALE(Z31, K2, Z3, 64(SI)(R10*1))

ssbody:
	MOVQ  DI, SI
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    sgnext

ssfull:
	VMOVUPS (SI), Z10
	SMSCALE(Z10, K7, Z0, (SI))
	VMOVUPS (SI)(R8*1), Z11
	SMSCALE(Z11, K7, Z1, (SI)(R8*1))
	VMOVUPS (SI)(R8*2), Z12
	SMSCALE(Z12, K7, Z2, (SI)(R8*2))
	VMOVUPS (SI)(R10*1), Z13
	SMSCALE(Z13, K7, Z3, (SI)(R10*1))
	ADDQ    $64, SI
	DECQ    CX
	JNZ     ssfull

sgnext:
	LEAQ (DI)(R8*4), DI
	ADDQ $4, BX
	DECQ R9
	JNZ  sgroup
	VZEROUPPER
	RET

// The head block's AVX-512 forms: sixteen keys, or sixteen head-dim
// columns, per ZMM register, the query or weight an embedded broadcast
// operand; every lane runs the same rounded multiply then add as the AVX2
// forms' lanes.

// SCORESTEP16 adds q_r[j] (at mem) times the group's column j (in Z31) to
// acc.
#define SCORESTEP16(mem, acc, tmp) \
	VMULPS.BCST mem, Z31, tmp \
	VADDPS      tmp, acc, acc

// SCORESTORE16 scales acc and stores its lanes under K1 at (BX), then
// steps BX to the next score row.
#define SCORESTORE16(acc) \
	VMULPS  Z30, acc, acc \
	VMOVUPS acc, K1, (BX) \
	ADDQ    R9, BX

// func scoreRows16(kt *float32, cols int, q *float32, qStrideBytes, rows int, scale float32, s *float32, sStrideBytes, lanes int)
// scoreRowsVec for a group of sixteen keys, kt[16j+i] = key_i[j].
TEXT ·scoreRows16(SB), NOSPLIT, $0-72
	MOVQ         cols+8(FP), DX
	MOVQ         q+16(FP), R13
	MOVQ         qStrideBytes+24(FP), R8
	MOVQ         rows+32(FP), AX
	VBROADCASTSS scale+40(FP), Z30
	MOVQ         s+48(FP), DI
	MOVQ         sStrideBytes+56(FP), R9
	MOVQ         lanes+64(FP), CX
	MOVL         $1, BX
	SHLL         CX, BX
	DECL         BX
	KMOVW        BX, K1            // the first `lanes` lanes
	LEAQ         (R8)(R8*2), R10  // 3·qStride
	LEAQ         (R8)(R8*4), R11  // 5·qStride
	LEAQ         (R10)(R8*4), R12 // 7·qStride
	CMPQ         AX, $8
	JLT          s16row

s16block:
	MOVQ   kt+0(FP), SI
	MOVQ   R13, BX
	MOVQ   DX, CX
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

s16col:
	VMOVUPS (SI), Z31
	SCORESTEP16((BX), Z0, Z8)
	SCORESTEP16((BX)(R8*1), Z1, Z9)
	SCORESTEP16((BX)(R8*2), Z2, Z10)
	SCORESTEP16((BX)(R10*1), Z3, Z11)
	SCORESTEP16((BX)(R8*4), Z4, Z12)
	SCORESTEP16((BX)(R11*1), Z5, Z13)
	SCORESTEP16((BX)(R10*2), Z6, Z14)
	SCORESTEP16((BX)(R12*1), Z7, Z15)
	ADDQ $64, SI
	ADDQ $4, BX
	DECQ CX
	JNZ  s16col

	MOVQ DI, BX
	SCORESTORE16(Z0)
	SCORESTORE16(Z1)
	SCORESTORE16(Z2)
	SCORESTORE16(Z3)
	SCORESTORE16(Z4)
	SCORESTORE16(Z5)
	SCORESTORE16(Z6)
	SCORESTORE16(Z7)
	LEAQ  (R13)(R8*8), R13
	LEAQ  (DI)(R9*8), DI
	SUBQ  $8, AX
	CMPQ  AX, $8
	JGE   s16block
	TESTQ AX, AX
	JZ    s16done

	// 1-7 rows left after at least eight: back up to the last eight.
	MOVQ  $8, CX
	SUBQ  AX, CX
	MOVQ  CX, BX
	IMULQ R8, BX
	SUBQ  BX, R13
	IMULQ R9, CX
	SUBQ  CX, DI
	MOVQ  $8, AX
	JMP   s16block

s16row:
	MOVQ   kt+0(FP), SI
	MOVQ   R13, BX
	MOVQ   DX, CX
	VPXORD Z0, Z0, Z0

s16rowcol:
	VMOVUPS     (SI), Z31
	VMULPS.BCST (BX), Z31, Z8
	VADDPS      Z8, Z0, Z0
	ADDQ        $64, SI
	ADDQ        $4, BX
	DECQ        CX
	JNZ         s16rowcol
	VMULPS      Z30, Z0, Z0
	VMOVUPS     Z0, K1, (DI)
	ADDQ        R8, R13
	ADDQ        R9, DI
	DECQ        AX
	JNZ         s16row

s16done:
	VZEROUPPER
	RET

// WSTEP16 adds w_r[k] (at mem) times the value row's sixteen columns (in
// Z31) to acc.
#define WSTEP16(mem, acc, tmp) \
	VMULPS.BCST mem, Z31, tmp \
	VADDPS      tmp, acc, acc

#define LOADROW16(z, mem) VMOVUPS mem, z
#define STOREROW16(z, mem) VMOVUPS z, mem

// WROWS16 loads or stores the eight output rows' accumulators Z0-Z7 at
// DI, `stride` apart, through AX.
#define WROWS16(OP, stride) \
	MOVQ DI, AX      \
	OP(Z0, (AX))     \
	ADDQ stride, AX  \
	OP(Z1, (AX))     \
	ADDQ stride, AX  \
	OP(Z2, (AX))     \
	ADDQ stride, AX  \
	OP(Z3, (AX))     \
	ADDQ stride, AX  \
	OP(Z4, (AX))     \
	ADDQ stride, AX  \
	OP(Z5, (AX))     \
	ADDQ stride, AX  \
	OP(Z6, (AX))     \
	ADDQ stride, AX  \
	OP(Z7, (AX))

// func accumRowsBlock16(out *float32, outStrideBytes int, w *float32, wStrideBytes int, vals *float32, valStrideBytes, n, tri, cols16 int)
// accumRowsBlock8 over blocks of sixteen columns.
TEXT ·accumRowsBlock16(SB), NOSPLIT, $0-72
	MOVQ out+0(FP), DI
	MOVQ wStrideBytes+24(FP), R8
	MOVQ valStrideBytes+40(FP), R9
	MOVQ n+48(FP), DX
	MOVQ tri+56(FP), R13
	LEAQ (R8)(R8*2), R10  // 3·wStride
	LEAQ (R8)(R8*4), R11  // 5·wStride
	LEAQ (R10)(R8*4), R12 // 7·wStride

w16block:
	WROWS16(LOADROW16, outStrideBytes+8(FP))
	MOVQ DI, SI           // this column block of the value rows
	SUBQ out+0(FP), SI
	ADDQ vals+32(FP), SI
	MOVQ w+16(FP), BX
	MOVQ DX, CX

w16key:
	VMOVUPS (SI), Z31
	WSTEP16((BX), Z0, Z8)
	WSTEP16((BX)(R8*1), Z1, Z9)
	WSTEP16((BX)(R8*2), Z2, Z10)
	WSTEP16((BX)(R10*1), Z3, Z11)
	WSTEP16((BX)(R8*4), Z4, Z12)
	WSTEP16((BX)(R11*1), Z5, Z13)
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	ADDQ $4, BX
	ADDQ R9, SI
	DECQ CX
	JNZ  w16key

	CMPQ    R13, $0
	JEQ     w16store
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R8*1), Z1, Z9)
	WSTEP16((BX)(R8*2), Z2, Z10)
	WSTEP16((BX)(R10*1), Z3, Z11)
	WSTEP16((BX)(R8*4), Z4, Z12)
	WSTEP16((BX)(R11*1), Z5, Z13)
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	CMPQ    R13, $1
	JEQ     w16store
	ADDQ    $4, BX
	ADDQ    R9, SI
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R8*2), Z2, Z10)
	WSTEP16((BX)(R10*1), Z3, Z11)
	WSTEP16((BX)(R8*4), Z4, Z12)
	WSTEP16((BX)(R11*1), Z5, Z13)
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	CMPQ    R13, $2
	JEQ     w16store
	ADDQ    $4, BX
	ADDQ    R9, SI
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R10*1), Z3, Z11)
	WSTEP16((BX)(R8*4), Z4, Z12)
	WSTEP16((BX)(R11*1), Z5, Z13)
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	CMPQ    R13, $3
	JEQ     w16store
	ADDQ    $4, BX
	ADDQ    R9, SI
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R8*4), Z4, Z12)
	WSTEP16((BX)(R11*1), Z5, Z13)
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	CMPQ    R13, $4
	JEQ     w16store
	ADDQ    $4, BX
	ADDQ    R9, SI
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R11*1), Z5, Z13)
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	CMPQ    R13, $5
	JEQ     w16store
	ADDQ    $4, BX
	ADDQ    R9, SI
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R10*2), Z6, Z14)
	WSTEP16((BX)(R12*1), Z7, Z15)
	CMPQ    R13, $6
	JEQ     w16store
	ADDQ    $4, BX
	ADDQ    R9, SI
	VMOVUPS (SI), Z31
	WSTEP16((BX)(R12*1), Z7, Z15)

w16store:
	WROWS16(STOREROW16, outStrideBytes+8(FP))
	ADDQ $64, DI
	MOVQ DI, AX
	SUBQ out+0(FP), AX
	MOVQ cols16+64(FP), CX
	SHLQ $6, CX
	CMPQ AX, CX
	JLT  w16block
	VZEROUPPER
	RET

// TAILK sets R10 to min(r, 8) and R11 to r − R10, for r = (BX mod 16) + i:
// how many of row i's elements past the pair's common 16-element blocks
// fall in its next eight, and in the eight after. Uses AX.
#define TAILK(i) \
	MOVQ    BX, R10  \
	ANDQ    $15, R10 \
	ADDQ    $i, R10  \
	MOVQ    R10, R11 \
	MOVQ    $8, AX   \
	CMPQ    R10, AX  \
	CMOVQGT AX, R10  \
	SUBQ    R10, R11

// LANEMASK loads into y the mask of the first k lanes (k in a register,
// 0-8), using AX and DX.
#define LANEMASK(k, y) \
	MOVQ    k, AX                 \
	SHLQ    $2, AX                \
	LEAQ    tailmask<>+32(SB), DX \
	SUBQ    AX, DX                \
	VMOVDQU (DX), y

// MAXTAIL folds the lanes of the mask at mem into ymax (the others read
// as ymax itself).
#define MAXTAIL(mem, mask, ymax) \
	VMASKMOVPS mem, mask, Y12       \
	VBLENDVPS  mask, Y12, ymax, Y12 \
	VMAXPS     Y12, ymax, ymax

// MAXFOLD8 folds the eight lanes of y (x its X form, xt scratch) to
// their maximum, broadcast back.
#define MAXFOLD8(y, x, xt) \
	VEXTRACTF128 $1, y, xt   \
	VMAXPS       xt, x, x    \
	VPERMILPS    $0x4e, x, xt \
	VMAXPS       xt, x, x    \
	VPERMILPS    $0xb1, x, xt \
	VMAXPS       xt, x, x    \
	VBROADCASTSS x, y

// SMEXP8 stores e = Exp32(x − max) over the eight elements at mem (ymax
// holds max) and adds it to acc; SMEXP8TAIL does so under mask, the
// other lanes adding +0.
#define SMEXP8(mem, ymax, acc) \
	VMOVUPS mem, Y7               \
	VSUBPS  ymax, Y7, Y7          \
	EXP8(Y7, Y8, Y9, Y10, Y11)    \
	VMOVUPS Y8, mem               \
	VADDPS  Y8, acc, acc

#define SMEXP8TAIL(mem, mask, ymax, acc) \
	VMASKMOVPS mem, mask, Y7      \
	VSUBPS     ymax, Y7, Y7       \
	EXP8(Y7, Y8, Y9, Y10, Y11)    \
	VMASKMOVPS Y8, mask, mem      \
	VANDPS     mask, Y8, Y8       \
	VADDPS     Y8, acc, acc

// SCALE8 multiplies the eight elements at mem by yinv; SCALE8TAIL under
// mask.
#define SCALE8(mem, yinv) \
	VMULPS  mem, yinv, Y7 \
	VMOVUPS Y7, mem

#define SCALE8TAIL(mem, mask, yinv) \
	VMASKMOVPS mem, mask, Y7 \
	VMULPS     Y7, yinv, Y7  \
	VMASKMOVPS Y7, mask, mem

// func softmaxRows8(x *float32, strideBytes, pairs, n0 int)
// softmaxVec over `pairs` pairs of rows, strideBytes apart, row r n0+r
// elements long. A pair's two rows go through each phase together —
// maximum, exponentials and sums, scaling — so their exponential chains
// overlap. Each row keeps softmaxVec's lanes: its 8-element chunks
// alternate between two accumulators (the 16-lane rule); the pair's
// common 16-element blocks run unmasked, each row's last two chunks under
// masks (one or both empty where the row ends sooner).
TEXT ·softmaxRows8(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ strideBytes+8(FP), R8
	MOVQ pairs+16(FP), R9
	MOVQ n0+24(FP), BX

pgroup:
	MOVQ BX, R12
	SHRQ $4, R12 // 16-element blocks both rows fill

	// Maximum, its lanes starting at the row's first element.
	VBROADCASTSS (DI), Y0
	VBROADCASTSS (DI)(R8*1), Y1
	MOVQ         DI, SI
	MOVQ         R12, CX
	TESTQ        CX, CX
	JZ           pmtail

pmfull:
	VMAXPS (SI), Y0, Y0
	VMAXPS (SI)(R8*1), Y1, Y1
	VMAXPS 32(SI), Y0, Y0
	VMAXPS 32(SI)(R8*1), Y1, Y1
	ADDQ   $64, SI
	DECQ   CX
	JNZ    pmfull

pmtail:
	TAILK(0)
	LANEMASK(R10, Y6)
	MAXTAIL((SI), Y6, Y0)
	LANEMASK(R11, Y6)
	MAXTAIL(32(SI), Y6, Y0)
	TAILK(1)
	LANEMASK(R10, Y6)
	MAXTAIL((SI)(R8*1), Y6, Y1)
	LANEMASK(R11, Y6)
	MAXTAIL(32(SI)(R8*1), Y6, Y1)
	MAXFOLD8(Y0, X0, X12)
	MAXFOLD8(Y1, X1, X12)

	// Exponentials, stored and summed: row 0 into Y2/Y3, row 1 into Y4/Y5.
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	MOVQ   DI, SI
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     petail

pefull:
	SMEXP8((SI), Y0, Y2)
	SMEXP8((SI)(R8*1), Y1, Y4)
	SMEXP8(32(SI), Y0, Y3)
	SMEXP8(32(SI)(R8*1), Y1, Y5)
	ADDQ $64, SI
	DECQ CX
	JNZ  pefull

petail:
	TAILK(0)
	LANEMASK(R10, Y6)
	SMEXP8TAIL((SI), Y6, Y0, Y2)
	LANEMASK(R11, Y6)
	SMEXP8TAIL(32(SI), Y6, Y0, Y3)
	TAILK(1)
	LANEMASK(R10, Y6)
	SMEXP8TAIL((SI)(R8*1), Y6, Y1, Y4)
	LANEMASK(R11, Y6)
	SMEXP8TAIL(32(SI)(R8*1), Y6, Y1, Y5)
	FOLD16(Y2, Y3, X2, X3)
	RECIP(X2, X12)
	VBROADCASTSS X12, Y2
	FOLD16(Y4, Y5, X4, X5)
	RECIP(X4, X12)
	VBROADCASTSS X12, Y4

	// Scaling.
	MOVQ  DI, SI
	MOVQ  R12, CX
	TESTQ CX, CX
	JZ    pstail

psfull:
	SCALE8((SI), Y2)
	SCALE8((SI)(R8*1), Y4)
	SCALE8(32(SI), Y2)
	SCALE8(32(SI)(R8*1), Y4)
	ADDQ $64, SI
	DECQ CX
	JNZ  psfull

pstail:
	TAILK(0)
	LANEMASK(R10, Y6)
	SCALE8TAIL((SI), Y6, Y2)
	LANEMASK(R11, Y6)
	SCALE8TAIL(32(SI), Y6, Y2)
	TAILK(1)
	LANEMASK(R10, Y6)
	SCALE8TAIL((SI)(R8*1), Y6, Y4)
	LANEMASK(R11, Y6)
	SCALE8TAIL(32(SI)(R8*1), Y6, Y4)

	LEAQ (DI)(R8*2), DI
	ADDQ $2, BX
	DECQ R9
	JNZ  pgroup
	VZEROUPPER
	RET
