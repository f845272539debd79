#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// Every multiply is VMULPS activation, weight, dst and every add is VADDPS
// product, acc, acc — never FMA: the product is rounded before it is added,
// as in the MULSS/ADDSS pair the Go compiler emits for
// `acc[j] += av * prow[j]`.

// A panel row at byte offset AX of base is loaded into Y9 (columns 0-7)
// and Y10 (columns 8-15). LOADF32 reads 16 float32. LOADBF16 reads 16
// bfloat16 as eight 32-bit words, column j in the low half of word j and
// column j+8 in its high half, and widens them exactly: shift the low
// halves up, mask the high halves in place (Y15 holds 0xFFFF0000 in every
// lane).
#define LOADF32(base) \
	VMOVUPS (base)(AX*1), Y9    \
	VMOVUPS 32(base)(AX*1), Y10

#define LOADBF16(base) \
	VMOVDQU (base)(AX*1), Y10 \
	VPSLLD  $16, Y10, Y9      \
	VPAND   Y15, Y10, Y10

#define NOMASK
#define BF16MASK \
	VPCMPEQD Y15, Y15, Y15 \
	VPSLLD   $16, Y15, Y15

// MULADD accumulates activation Y8 times the loaded panel row into lo, hi.
#define MULADD(lo, hi) \
	VMULPS Y8, Y9, Y11  \
	VMULPS Y8, Y10, Y12 \
	VADDPS Y11, lo, lo  \
	VADDPS Y12, hi, hi

#define ZEROACC \
	VXORPS Y0, Y0, Y0 \
	VXORPS Y1, Y1, Y1 \
	VXORPS Y2, Y2, Y2 \
	VXORPS Y3, Y3, Y3 \
	VXORPS Y4, Y4, Y4 \
	VXORPS Y5, Y5, Y5 \
	VXORPS Y6, Y6, Y6 \
	VXORPS Y7, Y7, Y7

#define STOREACC \
	VMOVUPS Y0, (DI)    \
	VMOVUPS Y1, 32(DI)  \
	VMOVUPS Y2, 64(DI)  \
	VMOVUPS Y3, 96(DI)  \
	VMOVUPS Y4, 128(DI) \
	VMOVUPS Y5, 160(DI) \
	VMOVUPS Y6, 192(DI) \
	VMOVUPS Y7, 224(DI) \
	VZEROUPPER

// GEMV4 is one activation row (SI, k = CX values) against the four panels
// R8-R11, rowBytes per panel row, into out (DI): Y0-Y7 = four 16-column
// accumulators. (Arguments are loaded outside the macro so that vet's
// asmdecl, which does not expand macros, can check them.)
#define GEMV4(MASK, LOAD, rowBytes) \
	MASK                          \
	ZEROACC                       \
	XORQ AX, AX                   \
	TESTQ CX, CX                  \
	JZ   store                    \
loop:                             \
	VBROADCASTSS (SI), Y8         \
	LOAD(R8)                      \
	MULADD(Y0, Y1)                \
	LOAD(R9)                      \
	MULADD(Y2, Y3)                \
	LOAD(R10)                     \
	MULADD(Y4, Y5)                \
	LOAD(R11)                     \
	MULADD(Y6, Y7)                \
	ADDQ $4, SI                   \
	ADDQ $rowBytes, AX            \
	DECQ CX                       \
	JNZ  loop                     \
store:                            \
	STOREACC                      \
	RET

// func gemv4F32(a *float32, k int, w0, w1, w2, w3 *float32, out *[64]float32)
TEXT ·gemv4F32(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ out+48(FP), DI
	GEMV4(NOMASK, LOADF32, 64)

// func gemv4BF16(a *float32, k int, w0, w1, w2, w3 *uint32, out *[64]float32)
TEXT ·gemv4BF16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ w2+32(FP), R10
	MOVQ w3+40(FP), R11
	MOVQ out+48(FP), DI
	GEMV4(BF16MASK, LOADBF16, 32)

// ROW accumulates the activation at index BX of row times the panel row
// held in Y9, Y10 into lo, hi.
#define ROW(row, lo, hi) \
	VBROADCASTSS (row)(BX*4), Y8 \
	MULADD(lo, hi)

// GEMM4 is the four activation rows R8-R11 (k = CX values each) against
// one panel (SI) into out (DI): Y0-Y7 = one 16-column accumulator per row.
// The panel row is loaded once.
#define GEMM4(MASK, LOAD, rowBytes) \
	MASK                 \
	ZEROACC              \
	XORQ AX, AX          \
	XORQ BX, BX          \
	TESTQ CX, CX         \
	JZ   store           \
loop:                    \
	LOAD(SI)             \
	ROW(R8, Y0, Y1)      \
	ROW(R9, Y2, Y3)      \
	ROW(R10, Y4, Y5)     \
	ROW(R11, Y6, Y7)     \
	ADDQ $rowBytes, AX   \
	INCQ BX              \
	CMPQ BX, CX          \
	JNE  loop            \
store:                   \
	STOREACC             \
	RET

// func gemm4F32(a0, a1, a2, a3 *float32, k int, w *float32, out *[64]float32)
TEXT ·gemm4F32(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ k+32(FP), CX
	MOVQ w+40(FP), SI
	MOVQ out+48(FP), DI
	GEMM4(NOMASK, LOADF32, 64)

// func gemm4BF16(a0, a1, a2, a3 *float32, k int, w *uint32, out *[64]float32)
TEXT ·gemm4BF16(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ k+32(FP), CX
	MOVQ w+40(FP), SI
	MOVQ out+48(FP), DI
	GEMM4(BF16MASK, LOADBF16, 32)

// func mulAddLoop(iters int)
TEXT ·mulAddLoop(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	ZEROACC
	MOVL $0x3f800000, AX // 1.0: the activation
	MOVQ AX, X8
	VBROADCASTSS X8, Y8
	MOVL $0x35800000, AX // 2^-20: the weights
	MOVQ AX, X9
	VBROADCASTSS X9, Y9
	VMOVAPS Y9, Y10
	TESTQ CX, CX
	JZ   done

loop:
	MULADD(Y0, Y1)
	MULADD(Y2, Y3)
	MULADD(Y4, Y5)
	MULADD(Y6, Y7)
	DECQ CX
	JNZ  loop

done:
	VZEROUPPER
	RET

// BF16 packs, in the pair layout (see simd512_amd64.s). PAIRHALF is one
// pair-row of eight columns at off(base)(AX*1): the even-k weights widened
// by a shift and the odd-k ones by a mask (Y15), each times its broadcast
// activation (Y8 even, Y9 odd) into its chain, e or o. Multiply then add:
// under fmaExact the product is exact, so this is the fused chain's bits.
#define PAIRHALF(base, off, e, o) \
	VMOVDQU off(base)(AX*1), Y10 \
	VPSLLD  $16, Y10, Y11        \
	VPAND   Y15, Y10, Y10        \
	VMULPS  Y8, Y11, Y11         \
	VADDPS  Y11, e, e            \
	VMULPS  Y9, Y10, Y10         \
	VADDPS  Y10, o, o

// PAIRFOLD is c = c + (e + o) on eight columns of out at off(DI).
#define PAIRFOLD(off, e, o) \
	VADDPS  o, e, e       \
	VADDPS  off(DI), e, e \
	VMOVUPS e, off(DI)

// func gemvPairs(a *float32, kp int, w0, w1 *uint32, out *[32]float32)
// One activation row (kp values) against two panels (R8, R9) into out:
// GemmTileBF16's two chains per column in Y0-Y7 (panel 0: e and e for
// columns 0-7 and 8-15, then o and o; panel 1 likewise), folded into out
// every sixteen pair-rows.
TEXT ·gemvPairs(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ kp+8(FP), CX
	MOVQ w0+16(FP), R8
	MOVQ w1+24(FP), R9
	MOVQ out+32(FP), DI
	SHRQ $5, CX
	BF16MASK
	VXORPS  Y14, Y14, Y14
	VMOVUPS Y14, (DI)
	VMOVUPS Y14, 32(DI)
	VMOVUPS Y14, 64(DI)
	VMOVUPS Y14, 96(DI)
	XORQ    AX, AX

block:
	ZEROACC
	MOVQ $16, DX

pair:
	VBROADCASTSS (SI), Y8
	VBROADCASTSS 4(SI), Y9
	PAIRHALF(R8, 0, Y0, Y2)
	PAIRHALF(R8, 32, Y1, Y3)
	PAIRHALF(R9, 0, Y4, Y6)
	PAIRHALF(R9, 32, Y5, Y7)
	ADDQ $8, SI
	ADDQ $64, AX
	DECQ DX
	JNZ  pair
	PAIRFOLD(0, Y0, Y2)
	PAIRFOLD(32, Y1, Y3)
	PAIRFOLD(64, Y4, Y6)
	PAIRFOLD(96, Y5, Y7)
	DECQ CX
	JNZ  block
	VZEROUPPER
	RET
