#include "textflag.h"

// TMUL kernels for a BF16 pack's GEMM. go1.24's assembler has no AMX
// mnemonics, so each instruction is its VEX encoding in BYTEs, named by a
// macro after the instruction it is.
//
// Tiles: tmm0-3 are a 2 × 2 grid of 16 × 16 float32 accumulators (C00,
// C01, C10, C11: row tile × column tile), tmm4-5 the two 16-row activation
// tiles (A0, A1: 16 rows × 32 bfloat16) and tmm6-7 the two weight tiles
// (B0, B1: 16 pair-rows × 16 columns, one panel block each). Their shapes
// come from the caller's LDTILECFG operand; a tile with no rows is not
// configured and not touched.

#define LDTILECFG_AX BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0x00
#define TILERELEASE BYTE $0xC4; BYTE $0xE2; BYTE $0x78; BYTE $0x49; BYTE $0xC0

#define TILEZERO_0 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xC0
#define TILEZERO_1 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xC8
#define TILEZERO_2 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xD0
#define TILEZERO_3 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xD8
#define TILEZERO_4 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xE0
#define TILEZERO_5 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xE8
#define TILEZERO_6 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xF0
#define TILEZERO_7 BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x49; BYTE $0xF8

// TILELOADD tmm4, [SI+AX*1] and so on: a tile's rows from base, index bytes
// apart.
#define TILELOADD_4_SI_AX BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x24; BYTE $0x06
#define TILELOADD_5_DI_AX BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x2C; BYTE $0x07
#define TILELOADD_6_BX_CX BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x34; BYTE $0x0B
#define TILELOADD_7_DX_CX BYTE $0xC4; BYTE $0xE2; BYTE $0x7B; BYTE $0x4B; BYTE $0x3C; BYTE $0x0A

// TILESTORED [R10+R11*1], tmm0 and so on.
#define TILESTORED_R10_R11_0 BYTE $0xC4; BYTE $0x82; BYTE $0x7A; BYTE $0x4B; BYTE $0x04; BYTE $0x1A
#define TILESTORED_R10_R11_64_1 BYTE $0xC4; BYTE $0x82; BYTE $0x7A; BYTE $0x4B; BYTE $0x4C; BYTE $0x1A; BYTE $0x40
#define TILESTORED_R8_R11_2 BYTE $0xC4; BYTE $0x82; BYTE $0x7A; BYTE $0x4B; BYTE $0x14; BYTE $0x18
#define TILESTORED_R8_R11_64_3 BYTE $0xC4; BYTE $0x82; BYTE $0x7A; BYTE $0x4B; BYTE $0x5C; BYTE $0x18; BYTE $0x40

// TDPBF16PS tmmC, tmmA, tmmB: C += A·B, one 32-deep block of k.
#define TDPBF16PS_0_4_6 BYTE $0xC4; BYTE $0xE2; BYTE $0x4A; BYTE $0x5C; BYTE $0xC4
#define TDPBF16PS_1_4_7 BYTE $0xC4; BYTE $0xE2; BYTE $0x42; BYTE $0x5C; BYTE $0xCC
#define TDPBF16PS_2_5_6 BYTE $0xC4; BYTE $0xE2; BYTE $0x4A; BYTE $0x5C; BYTE $0xD5
#define TDPBF16PS_3_5_7 BYTE $0xC4; BYTE $0xE2; BYTE $0x42; BYTE $0x5C; BYTE $0xDD

// func amxTiles(cfg *tileConfig, a *uint16, aStride int, b *uint32, kBlocks int, c *float32, cStride int, pairs, shape int)
//
// One band of up to 32 activation rows (a, aStride bytes apart) against
// `pairs` consecutive pairs of panels (b: kBlocks blocks of 1 KiB per
// panel), into C (c, cStride bytes per row; each pair 32 columns on from
// the last). shape bit 0 says the band has a second row tile, bit 1 that a
// pair has a second panel. Per pair: zero the accumulators, one
// TDPBF16PS per tile per block of 32 k, store them.
TEXT ·amxTiles(SB), NOSPLIT, $0-72
	MOVQ cfg+0(FP), AX
	LDTILECFG_AX
	MOVQ a+8(FP), R13
	MOVQ aStride+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ kBlocks+32(FP), R8
	SHLQ $10, R8
	LEAQ (BX)(R8*1), DX // B1: the next panel
	MOVQ c+40(FP), R10
	MOVQ cStride+48(FP), R11
	MOVQ pairs+56(FP), R9
	MOVQ shape+64(FP), R12
	MOVQ $64, CX        // a B tile's pair-rows are 64 bytes apart

pair:
	MOVQ R13, SI
	MOVQ AX, DI
	SHLQ $4, DI
	ADDQ R13, DI        // A1: sixteen rows on
	TILEZERO_0
	TESTQ $2, R12
	JZ    zeroed1
	TILEZERO_1

zeroed1:
	TESTQ $1, R12
	JZ    zeroed
	TILEZERO_2
	TESTQ $2, R12
	JZ    zeroed
	TILEZERO_3

zeroed:
	MOVQ kBlocks+32(FP), R8

block:
	TILELOADD_4_SI_AX
	TILELOADD_6_BX_CX
	TDPBF16PS_0_4_6
	TESTQ $2, R12
	JZ    col0
	TILELOADD_7_DX_CX
	TDPBF16PS_1_4_7

col0:
	TESTQ $1, R12
	JZ    next
	TILELOADD_5_DI_AX
	TDPBF16PS_2_5_6
	TESTQ $2, R12
	JZ    next
	TDPBF16PS_3_5_7

next:
	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $1024, BX
	ADDQ $1024, DX
	DECQ R8
	JNZ  block

	TILESTORED_R10_R11_0
	TESTQ $2, R12
	JZ    stored1
	TILESTORED_R10_R11_64_1

stored1:
	TESTQ $1, R12
	JZ    stored
	MOVQ  R11, R8
	SHLQ  $4, R8
	ADDQ  R10, R8 // C10: sixteen rows on
	TILESTORED_R8_R11_2
	TESTQ $2, R12
	JZ    stored
	TILESTORED_R8_R11_64_3

stored:
	// BX has reached B1's first block and DX the next pair's.
	MOVQ DX, BX
	MOVQ kBlocks+32(FP), R8
	SHLQ $10, R8
	ADDQ R8, DX
	ADDQ $128, R10
	DECQ R9
	JNZ  pair
	TILERELEASE
	RET

// func amxPeak(cfg *tileConfig, iters int)
// iters rounds of four TDPBF16PS on tiles that never leave the registers:
// the TMUL ceiling.
TEXT ·amxPeak(SB), NOSPLIT, $0-16
	MOVQ cfg+0(FP), AX
	MOVQ iters+8(FP), CX
	LDTILECFG_AX
	TILEZERO_0
	TILEZERO_1
	TILEZERO_2
	TILEZERO_3
	TILEZERO_4
	TILEZERO_5
	TILEZERO_6
	TILEZERO_7
	TESTQ CX, CX
	JZ    done

loop:
	TDPBF16PS_0_4_6
	TDPBF16PS_1_4_7
	TDPBF16PS_2_5_6
	TDPBF16PS_3_5_7
	DECQ CX
	JNZ  loop

done:
	TILERELEASE
	RET
