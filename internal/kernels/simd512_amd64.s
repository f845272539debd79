#include "textflag.h"

// AVX-512 micro-kernels for an FP32 pack's GEMM. A 16-column panel row is
// exactly one ZMM register, so — as in the AVX2 kernels — every lane owns
// one output element and accumulates it in ascending k. What the wider
// unit adds is above the lane: 32 registers hold a 16-row × 1-panel (or
// 4-row × 2-panel) tile of accumulators, the activation is an embedded
// broadcast operand instead of an instruction of its own, and the tile is
// written straight into C under a column mask.
//
// The arithmetic is MULADD, VMULPS then VADDPS: the product rounded before
// it is added, the Go loop's bits for any operands.

// A 16-bit panel row is eight 32-bit words, column j in the low half of
// word j and column j+8 in its high half. Zero-extending its sixteen
// halves to 32 bits and shifting them up widens the row exactly, with the
// lanes in the order c0 c8 c1 c9 … c7 c15; unzip<> puts a finished
// accumulator back in column order, once per tile instead of once per k.
DATA unzip<>+0(SB)/4, $0
DATA unzip<>+4(SB)/4, $2
DATA unzip<>+8(SB)/4, $4
DATA unzip<>+12(SB)/4, $6
DATA unzip<>+16(SB)/4, $8
DATA unzip<>+20(SB)/4, $10
DATA unzip<>+24(SB)/4, $12
DATA unzip<>+28(SB)/4, $14
DATA unzip<>+32(SB)/4, $1
DATA unzip<>+36(SB)/4, $3
DATA unzip<>+40(SB)/4, $5
DATA unzip<>+44(SB)/4, $7
DATA unzip<>+48(SB)/4, $9
DATA unzip<>+52(SB)/4, $11
DATA unzip<>+56(SB)/4, $13
DATA unzip<>+60(SB)/4, $15
GLOBL unzip<>(SB), RODATA|NOPTR, $64

// LOADW reads the panel row at ptr into z: sixteen bfloat16 widened, or
// sixteen float32.
#define LOADBF16(ptr, z) \
	VPMOVZXWD (ptr), z  \
	VPSLLD    $16, z, z

#define LOADF32(ptr, z) \
	VMOVUPS (ptr), z

// MULADD accumulates the activation at mem (broadcast) times the panel row
// w into acc; tmp is scratch.
#define MULADD(mem, w, acc, tmp) \
	VMULPS.BCST mem, w, tmp \
	VADDPS      tmp, acc, acc

// STORE writes the accumulator z to the C row at ptr, columns under mask k;
// a 16-bit panel's accumulator is unzipped first (Z29 holds unzip<>).
#define STOREBF16(z, k, ptr) \
	VPERMPS z, Z29, z \
	VMOVUPS z, k, ptr

#define STOREF32(z, k, ptr) \
	VMOVUPS z, k, ptr

#define UNZIP VMOVDQU32 unzip<>(SB), Z29
#define NOUNZIP

// ROWS8 is one k-step of eight activation rows, DX bytes apart from base b
// (R9, R10, R11 hold 3, 5 and 7 times DX), against the panel row in Z31.
#define ROWS8(MAC, b, a0, a1, a2, a3, a4, a5, a6, a7) \
	MAC((b), Z31, a0, Z24)         \
	MAC((b)(DX*1), Z31, a1, Z25)   \
	MAC((b)(DX*2), Z31, a2, Z26)   \
	MAC((b)(R9*1), Z31, a3, Z27)   \
	MAC((b)(DX*4), Z31, a4, Z24)   \
	MAC((b)(R10*1), Z31, a5, Z25)  \
	MAC((b)(R9*2), Z31, a6, Z26)   \
	MAC((b)(R11*1), Z31, a7, Z27)

#define ZERO8(a0, a1, a2, a3, a4, a5, a6, a7) \
	VPXORD a0, a0, a0 \
	VPXORD a1, a1, a1 \
	VPXORD a2, a2, a2 \
	VPXORD a3, a3, a3 \
	VPXORD a4, a4, a4 \
	VPXORD a5, a5, a5 \
	VPXORD a6, a6, a6 \
	VPXORD a7, a7, a7

// STORE8 writes eight accumulators to consecutive C rows (R12 bytes apart)
// starting at BX, and leaves BX at the row after them.
#define STORE8(STORE, a0, a1, a2, a3, a4, a5, a6, a7) \
	STORE(a0, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a1, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a2, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a3, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a4, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a5, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a6, K1, (BX)) \
	ADDQ R12, BX        \
	STORE(a7, K1, (BX)) \
	ADDQ R12, BX

// Every rows × 1 tile's TEXT loads its arguments itself (vet's asmdecl does
// not expand macros): SI = a, CX = k, DI = w, BX = c, R12 = n, AX = mask.
// STRIDES turns them into what the loops use: K1 = mask, R12 = bytes per C
// row, DX = bytes per activation row and R9, R10, R11 = 3, 5, 7 times DX.
#define STRIDES \
	KMOVW AX, K1             \
	SHLQ  $2, R12            \
	MOVQ  CX, DX             \
	SHLQ  $2, DX             \
	LEAQ  (DX)(DX*2), R9     \
	LEAQ  (DX)(DX*4), R10    \
	LEAQ  (R9)(DX*4), R11

// TILE16 computes sixteen consecutive activation rows (k values each,
// rows k floats apart) against one panel and writes the 16×16 tile to C.
#define TILE16(UNZ, LOADW, MAC, STORE, rowBytes) \
	STRIDES                                            \
	UNZ                                                \
	LEAQ (SI)(DX*8), R8                                \
	ZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)              \
	ZERO8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)        \
loop:                                                  \
	LOADW(DI, Z31)                                     \
	ROWS8(MAC, SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)     \
	ROWS8(MAC, R8, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15) \
	ADDQ $4, SI                                        \
	ADDQ $4, R8                                        \
	ADDQ $rowBytes, DI                                 \
	DECQ CX                                            \
	JNZ  loop                                          \
	STORE8(STORE, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)      \
	STORE8(STORE, Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15) \
	VZEROUPPER                                         \
	RET

// TILE8 is the eight-row tile, for row bands shorter than sixteen.
#define TILE8(UNZ, LOADW, MAC, STORE, rowBytes) \
	STRIDES                                        \
	UNZ                                            \
	ZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)          \
loop:                                              \
	LOADW(DI, Z31)                                 \
	ROWS8(MAC, SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7) \
	ADDQ $4, SI                                    \
	ADDQ $rowBytes, DI                             \
	DECQ CX                                        \
	JNZ  loop                                      \
	STORE8(STORE, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)  \
	VZEROUPPER                                     \
	RET

// func tile16BF16(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)
TEXT ·tile16BF16(SB), NOSPLIT, $0-44
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), DI
	MOVQ c+24(FP), BX
	MOVQ n+32(FP), R12
	MOVL mask+40(FP), AX
	TILE16(UNZIP, LOADBF16, MULADD, STOREBF16, 32)

// func tile16F32(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)
TEXT ·tile16F32(SB), NOSPLIT, $0-44
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), DI
	MOVQ c+24(FP), BX
	MOVQ n+32(FP), R12
	MOVL mask+40(FP), AX
	TILE16(NOUNZIP, LOADF32, MULADD, STOREF32, 64)

// func tile8BF16(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)
TEXT ·tile8BF16(SB), NOSPLIT, $0-44
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), DI
	MOVQ c+24(FP), BX
	MOVQ n+32(FP), R12
	MOVL mask+40(FP), AX
	TILE8(UNZIP, LOADBF16, MULADD, STOREBF16, 32)

// func tile8F32(a *float32, k int, w unsafe.Pointer, c *float32, n int, mask uint32)
TEXT ·tile8F32(SB), NOSPLIT, $0-44
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ w+16(FP), DI
	MOVQ c+24(FP), BX
	MOVQ n+32(FP), R12
	MOVL mask+40(FP), AX
	TILE8(NOUNZIP, LOADF32, MULADD, STOREF32, 64)

// ROW2 is one k-step of the activation row at r (index BX) against the two
// panel rows in Z30 and Z31.
#define ROW2(MAC, r, lo, hi) \
	MAC((r)(BX*4), Z30, lo, Z24) \
	MAC((r)(BX*4), Z31, hi, Z25)

// STORE2 writes one row's two accumulators at R12 and steps to the next C
// row, or leaves through done when that was the last real row.
#define STORE2(STORE, lo, hi) \
	STORE(lo, K1, (R12))   \
	STORE(hi, K2, 64(R12)) \
	ADDQ R13, R12          \
	DECQ DX                \
	JZ   done

// TILE4X2 computes the four activation rows R8-R11 (k = CX values each)
// against two adjacent panels (SI, DI) and writes the first DX rows of the
// 4×32 tile at R12 (rows R13 floats apart), columns under K1 and K2. Short
// blocks repeat a row pointer; a lone panel is passed twice with K2 = 0.
#define TILE4X2(UNZ, LOADW, MAC, STORE, rowBytes) \
	KMOVW AX, K1                         \
	SHRL  $16, AX                        \
	KMOVW AX, K2                         \
	SHLQ  $2, R13                        \
	UNZ                                  \
	ZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7) \
	XORQ BX, BX                          \
loop:                                    \
	LOADW(SI, Z30)                       \
	LOADW(DI, Z31)                       \
	ROW2(MAC, R8, Z0, Z1)                \
	ROW2(MAC, R9, Z2, Z3)                \
	ROW2(MAC, R10, Z4, Z5)               \
	ROW2(MAC, R11, Z6, Z7)               \
	ADDQ $rowBytes, SI                   \
	ADDQ $rowBytes, DI                   \
	INCQ BX                              \
	CMPQ BX, CX                          \
	JNE  loop                            \
	STORE2(STORE, Z0, Z1)                \
	STORE2(STORE, Z2, Z3)                \
	STORE2(STORE, Z4, Z5)                \
	STORE2(STORE, Z6, Z7)                \
done:                                    \
	VZEROUPPER                           \
	RET

// func tile4x2BF16(a0, a1, a2, a3 *float32, k int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)
TEXT ·tile4x2BF16(SB), NOSPLIT, $0-84
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ k+32(FP), CX
	MOVQ w0+40(FP), SI
	MOVQ w1+48(FP), DI
	MOVQ c+56(FP), R12
	MOVQ n+64(FP), R13
	MOVQ rows+72(FP), DX
	MOVL masks+80(FP), AX
	TILE4X2(UNZIP, LOADBF16, MULADD, STOREBF16, 32)

// func tile4x2F32(a0, a1, a2, a3 *float32, k int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)
TEXT ·tile4x2F32(SB), NOSPLIT, $0-84
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ k+32(FP), CX
	MOVQ w0+40(FP), SI
	MOVQ w1+48(FP), DI
	MOVQ c+56(FP), R12
	MOVQ n+64(FP), R13
	MOVQ rows+72(FP), DX
	MOVL masks+80(FP), AX
	TILE4X2(NOUNZIP, LOADF32, MULADD, STOREF32, 64)

// PEAK16 is one round of the tiles' arithmetic on sixteen accumulator
// chains held in registers (activation Z30, weights Z31).
#define PEAK16(MAC) \
	MAC(Z30, Z31, Z0, Z16)  \
	MAC(Z30, Z31, Z1, Z17)  \
	MAC(Z30, Z31, Z2, Z18)  \
	MAC(Z30, Z31, Z3, Z19)  \
	MAC(Z30, Z31, Z4, Z20)  \
	MAC(Z30, Z31, Z5, Z21)  \
	MAC(Z30, Z31, Z6, Z22)  \
	MAC(Z30, Z31, Z7, Z23)  \
	MAC(Z30, Z31, Z8, Z16)  \
	MAC(Z30, Z31, Z9, Z17)  \
	MAC(Z30, Z31, Z10, Z18) \
	MAC(Z30, Z31, Z11, Z19) \
	MAC(Z30, Z31, Z12, Z20) \
	MAC(Z30, Z31, Z13, Z21) \
	MAC(Z30, Z31, Z14, Z22) \
	MAC(Z30, Z31, Z15, Z23)

#define REGFMA(a, w, acc, tmp) \
	VFMADD231PS a, w, acc

#define REGMULADD(a, w, acc, tmp) \
	VMULPS a, w, tmp   \
	VADDPS tmp, acc, acc

#define PEAKLOOP(MAC) \
	ZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)       \
	ZERO8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15) \
	MOVL $0x3f800000, AX                        \
	VPBROADCASTD AX, Z30                        \
	MOVL $0x35800000, AX                        \
	VPBROADCASTD AX, Z31                        \
	TESTQ CX, CX                                \
	JZ   done                                   \
loop:                                           \
	PEAK16(MAC)                                 \
	DECQ CX                                     \
	JNZ  loop                                   \
done:                                           \
	VZEROUPPER                                  \
	RET

// func mulAddLoop512(iters int)
TEXT ·mulAddLoop512(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	PEAKLOOP(REGMULADD)

// func fmaLoop512(iters int)
TEXT ·fmaLoop512(SB), NOSPLIT, $0-8
	MOVQ iters+0(FP), CX
	PEAKLOOP(REGFMA)

// BF16 packs, in the pair layout: a pair-row is sixteen 32-bit words,
// column j's even-k weight in the low half of word j and its odd-k weight
// in the high half, so one shift and one mask widen the two — in column
// order. Each output element keeps GemmTileBF16's two chains, e (even k)
// and o (odd k), as fused multiply-adds from +0 over a block of 32 k, then
// folds them into c = c + (e + o). The callers run this only where
// fmaExact proves plain float32 arithmetic gives the rule's bits.

// PAIRROW is one pair-row of the four activation rows R8-R11 (pair index
// BX: k = 2·BX and 2·BX+1) against the widened weights Z24-Z27 (panel 0
// even, odd; panel 1 even, odd).
#define PAIRROW(r, e0, o0, e1, o1) \
	VFMADD231PS.BCST (r)(BX*8), Z24, e0  \
	VFMADD231PS.BCST 4(r)(BX*8), Z25, o0 \
	VFMADD231PS.BCST (r)(BX*8), Z26, e1  \
	VFMADD231PS.BCST 4(r)(BX*8), Z27, o1

// FOLD is c = c + (e + o), then e and o back to +0.
#define FOLD(c, e, o) \
	VADDPS o, e, e \
	VADDPS e, c, c \
	VPXORD e, e, e \
	VPXORD o, o, o

// func tile4x2Pairs(a0, a1, a2, a3 *float32, kp int, w0, w1 unsafe.Pointer, c *float32, n, rows int, masks uint32)
// The four activation rows R8-R11 (kp values each) against two adjacent
// panels (SI, DI) into the first DX rows of the 4 × 32 tile at R12, as
// tile4x2F32 takes them. Registers: c in Z0-Z7, e in Z8-Z15, o in Z16-Z23,
// row r and panel p at index 2r+p.
TEXT ·tile4x2Pairs(SB), NOSPLIT, $0-84
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ kp+32(FP), CX
	MOVQ w0+40(FP), SI
	MOVQ w1+48(FP), DI
	MOVQ c+56(FP), R12
	MOVQ n+64(FP), R13
	MOVQ rows+72(FP), DX
	MOVL masks+80(FP), AX
	KMOVW AX, K1
	SHRL  $16, AX
	KMOVW AX, K2
	SHLQ  $2, R13
	SHRQ  $5, CX
	VPTERNLOGD $0xff, Z28, Z28, Z28
	VPSLLD     $16, Z28, Z28 // 0xffff0000
	ZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ZERO8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
	ZERO8(Z16, Z17, Z18, Z19, Z20, Z21, Z22, Z23)
	XORQ BX, BX

block:
	MOVQ $16, AX

pair:
	VPSLLD $16, (SI), Z24
	VPANDD (SI), Z28, Z25
	VPSLLD $16, (DI), Z26
	VPANDD (DI), Z28, Z27
	PAIRROW(R8, Z8, Z16, Z9, Z17)
	PAIRROW(R9, Z10, Z18, Z11, Z19)
	PAIRROW(R10, Z12, Z20, Z13, Z21)
	PAIRROW(R11, Z14, Z22, Z15, Z23)
	ADDQ $64, SI
	ADDQ $64, DI
	INCQ BX
	DECQ AX
	JNZ  pair
	FOLD(Z0, Z8, Z16)
	FOLD(Z1, Z9, Z17)
	FOLD(Z2, Z10, Z18)
	FOLD(Z3, Z11, Z19)
	FOLD(Z4, Z12, Z20)
	FOLD(Z5, Z13, Z21)
	FOLD(Z6, Z14, Z22)
	FOLD(Z7, Z15, Z23)
	DECQ CX
	JNZ  block
	STORE2(STOREF32, Z0, Z1)
	STORE2(STOREF32, Z2, Z3)
	STORE2(STOREF32, Z4, Z5)
	STORE2(STOREF32, Z6, Z7)

done:
	VZEROUPPER
	RET

// func narrowBF16(dst *uint16, src *float32, n int)
// roundBF16Vec on sixteen lanes, keeping each result's upper half: the
// bits tensor.ToBF16 returns, sixteen to a 32-byte store.
TEXT ·narrowBF16(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $4, CX
	VPTERNLOGD $0xff, Z15, Z15, Z15 // all ones
	VPSRLD     $31, Z15, Z14        // 1
	VPSRLD     $17, Z15, Z13        // 0x7fff
	VPSLLD     $16, Z15, Z12        // 0xffff0000
	VPSLLD     $22, Z14, Z11        // 0x00400000: the quiet bit

narrow:
	VMOVDQU32 (SI), Z0
	VPSRLD    $16, Z0, Z1
	VPANDD    Z14, Z1, Z1
	VPADDD    Z13, Z0, Z2
	VPADDD    Z1, Z2, Z2
	VPANDD    Z12, Z0, Z3
	VPORD     Z11, Z3, Z3
	VCMPPS    $3, Z0, Z0, K2
	VMOVDQA32 Z3, K2, Z2
	VPSRLD    $16, Z2, Z2
	VPMOVDW   Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       narrow
	VZEROUPPER
	RET

// func vdpbf16ps(acc *[16]float32, a, b *[16]uint32)
// acc += a·b by VDPBF16PS (AVX512_BF16), which the kernels do not use: it
// folds each bfloat16 pair into its lane by a rule of its own (see
// TestVDPBF16PSRule). go1.24's assembler has no mnemonic for it.
TEXT ·vdpbf16ps(SB), NOSPLIT, $0-24
	MOVQ acc+0(FP), AX
	MOVQ a+8(FP), BX
	MOVQ b+16(FP), CX
	VMOVDQU32 (AX), Z0
	VMOVDQU32 (BX), Z1
	VMOVDQU32 (CX), Z2
	BYTE $0x62; BYTE $0xF2; BYTE $0x76; BYTE $0x48; BYTE $0x52; BYTE $0xC2 // VDPBF16PS zmm0, zmm1, zmm2
	VMOVDQU32 Z0, (AX)
	VZEROUPPER
	RET
