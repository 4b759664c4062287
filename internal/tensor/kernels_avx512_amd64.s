//go:build amd64

#include "textflag.h"

// The avx512 tier's kernels of its own: the training GEMM's register tile,
// the 4-row panel kernel and Nonzeros. Everything else the tier runs is
// avx2's (kernels_avx2_amd64.s). A 512-bit VMULPS/VADDPS pair rounds each
// lane exactly like the 256-bit pair and the generic loop's float32(a*b)
// then +=, so the tile and the panel kernel keep the tier contract
// (kernels.go): unfused, k ascending per element.

// The 4-row panel kernel's macros (see axpyPanel4AVX512Asm below) come
// before every TEXT: go vet checks the argument names a line uses against
// the function the line follows, and these name the panel kernel's.

// P4_ROW sets DI to row i's destination (off is i*4, the rows entry).
#define P4_ROW(off) \
	MOVQ    rows_base+64(FP), DI; \
	MOVLQSX off(DI), DI; \
	IMULQ   ldy+24(FP), DI; \
	SHLQ    $2, DI; \
	ADDQ    y_base+0(FP), DI

// P4_ACT sets reg to row i's activations.
#define P4_ACT(off, reg) \
	MOVQ    rows_base+64(FP), reg; \
	MOVLQSX off(reg), reg; \
	IMULQ   lda+56(FP), reg; \
	SHLQ    $2, reg; \
	ADDQ    a_base+32(FP), reg

// P4_TERM loads unit t's index, the activations of the four rows at it,
// and sets R12 to its panel row's offset.
#define P4_TERM \
	MOVLQSX      (CX)(AX*4), R8; \
	VBROADCASTSS (BX)(R8*4), Z4; \
	VBROADCASTSS (R10)(R8*4), Z5; \
	VBROADCASTSS (R11)(R8*4), Z6; \
	VBROADCASTSS (R13)(R8*4), Z7; \
	MOVQ         R8, R12; \
	IMULQ        R9, R12

#define P4_MAC(w, act, acc, tmp) \
	VMULPS w, act, tmp; \
	VADDPS tmp, acc, acc

#define P4_NEXT(label) \
	INCQ AX; \
	CMPQ AX, DX; \
	JLT  label

// func gemmTile8x32AVX512Asm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)
// c[i*ldc+j] += Σ_k a[i*ras+k*kas]*b[k*ldb+j] for an 8x32 tile, k ascending.
// Tile row r lives in Z(16+2r) (columns 0–15) and Z(17+2r) (16–31) across
// the whole k loop; per k: two loads of the b row into Z0/Z1, then per tile
// row a broadcast of the a element and two unfused multiply/add pairs.
// Strides are in elements and converted to bytes here. Z15 is never touched
// (X15 is the ABIInternal zero register); VZEROUPPER on exit cleans Z0–Z14,
// and Z16–Z31 are out of reach of legacy SSE code.
TEXT ·gemmTile8x32AVX512Asm(SB), NOSPLIT, $0-112
	// Load the 8 c-tile rows into Z16..Z31.
	MOVQ    c_base+72(FP), AX
	MOVQ    ldc+96(FP), CX
	SHLQ    $2, CX
	VMOVUPS (AX), Z16
	VMOVUPS 64(AX), Z17
	ADDQ    CX, AX
	VMOVUPS (AX), Z18
	VMOVUPS 64(AX), Z19
	ADDQ    CX, AX
	VMOVUPS (AX), Z20
	VMOVUPS 64(AX), Z21
	ADDQ    CX, AX
	VMOVUPS (AX), Z22
	VMOVUPS 64(AX), Z23
	ADDQ    CX, AX
	VMOVUPS (AX), Z24
	VMOVUPS 64(AX), Z25
	ADDQ    CX, AX
	VMOVUPS (AX), Z26
	VMOVUPS 64(AX), Z27
	ADDQ    CX, AX
	VMOVUPS (AX), Z28
	VMOVUPS 64(AX), Z29
	ADDQ    CX, AX
	VMOVUPS (AX), Z30
	VMOVUPS 64(AX), Z31

	// Per-row a pointers in R8..R13, R15, DI (R14 is the g register).
	MOVQ a_base+0(FP), AX
	MOVQ ras+24(FP), BX
	SHLQ $2, BX
	MOVQ AX, R8
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (R13)(BX*1), R15
	LEAQ (R15)(BX*1), DI

	MOVQ kas+32(FP), BX   // per-k step of the a pointers, bytes
	SHLQ $2, BX
	MOVQ b_base+40(FP), SI
	MOVQ ldb+64(FP), CX   // per-k step of the b pointer, bytes
	SHLQ $2, CX
	MOVQ kn+104(FP), DX
	TESTQ DX, DX
	JZ   store

loopk:
	VMOVUPS      (SI), Z0
	VMOVUPS      64(SI), Z1
	ADDQ         CX, SI
	VBROADCASTSS (R8), Z2
	VMULPS       Z0, Z2, Z3
	VMULPS       Z1, Z2, Z2
	VADDPS       Z3, Z16, Z16
	VADDPS       Z2, Z17, Z17
	ADDQ         BX, R8
	VBROADCASTSS (R9), Z4
	VMULPS       Z0, Z4, Z5
	VMULPS       Z1, Z4, Z4
	VADDPS       Z5, Z18, Z18
	VADDPS       Z4, Z19, Z19
	ADDQ         BX, R9
	VBROADCASTSS (R10), Z6
	VMULPS       Z0, Z6, Z7
	VMULPS       Z1, Z6, Z6
	VADDPS       Z7, Z20, Z20
	VADDPS       Z6, Z21, Z21
	ADDQ         BX, R10
	VBROADCASTSS (R11), Z8
	VMULPS       Z0, Z8, Z9
	VMULPS       Z1, Z8, Z8
	VADDPS       Z9, Z22, Z22
	VADDPS       Z8, Z23, Z23
	ADDQ         BX, R11
	VBROADCASTSS (R12), Z10
	VMULPS       Z0, Z10, Z11
	VMULPS       Z1, Z10, Z10
	VADDPS       Z11, Z24, Z24
	VADDPS       Z10, Z25, Z25
	ADDQ         BX, R12
	VBROADCASTSS (R13), Z12
	VMULPS       Z0, Z12, Z13
	VMULPS       Z1, Z12, Z12
	VADDPS       Z13, Z26, Z26
	VADDPS       Z12, Z27, Z27
	ADDQ         BX, R13
	VBROADCASTSS (R15), Z2
	VMULPS       Z0, Z2, Z3
	VMULPS       Z1, Z2, Z2
	VADDPS       Z3, Z28, Z28
	VADDPS       Z2, Z29, Z29
	ADDQ         BX, R15
	VBROADCASTSS (DI), Z4
	VMULPS       Z0, Z4, Z5
	VMULPS       Z1, Z4, Z4
	VADDPS       Z5, Z30, Z30
	VADDPS       Z4, Z31, Z31
	ADDQ         BX, DI
	DECQ         DX
	JNZ          loopk

store:
	MOVQ    c_base+72(FP), AX
	MOVQ    ldc+96(FP), CX
	SHLQ    $2, CX
	VMOVUPS Z16, (AX)
	VMOVUPS Z17, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z18, (AX)
	VMOVUPS Z19, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z20, (AX)
	VMOVUPS Z21, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z22, (AX)
	VMOVUPS Z23, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z24, (AX)
	VMOVUPS Z25, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z26, (AX)
	VMOVUPS Z27, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z28, (AX)
	VMOVUPS Z29, 64(AX)
	ADDQ    CX, AX
	VMOVUPS Z30, (AX)
	VMOVUPS Z31, 64(AX)
	VZEROUPPER
	RET

// func axpyPanel4AVX512Asm(y []float32, ldy int, a []float32, lda int, rows []int32, width int, k []int32, panel []float32, stride int)
// For the four rows r = rows[0..3] and j < width (1..64):
// y[r*ldy+j] += a[r*lda+k[t]]*panel[k[t]*stride+j], t ascending.
// Row i's strip lives in Z(16+4i)..Z(19+4i), 16 columns each, across the
// whole unit list; per unit: up to four loads of the panel row into Z0..Z3,
// four broadcasts of the rows' activations into Z4..Z7, and an unfused
// multiply/add pair per row and 16 columns. The strip's last 16 columns are
// masked by K1 (all ones when width is a multiple of 16), in the loads of y
// and of every panel row and in the store, so nothing past column width is
// read or written. Registers: CX k, DX unit count, AX unit index, SI panel,
// R9 row stride in bytes, R8 k[t], R12 k[t]*stride in bytes, BX/R10/R11/R13
// the four activation rows, DI a destination row while loading and storing.
// Z15 is never touched (X15 is the ABIInternal zero register).

TEXT ·axpyPanel4AVX512Asm(SB), NOSPLIT, $0-152
	// K1 masks the strip's last 16 columns to width's remainder: DX =
	// chunks of 16, 16*DX-width of them unused.
	MOVQ  width+88(FP), R8
	LEAQ  15(R8), DX
	SHRQ  $4, DX
	MOVQ  DX, CX
	SHLQ  $4, CX
	SUBQ  R8, CX
	MOVL  $0xffff, R8
	SHRL  CX, R8
	KMOVW R8, K1

	P4_ACT(0, BX)
	P4_ACT(4, R10)
	P4_ACT(8, R11)
	P4_ACT(12, R13)
	MOVQ panel_base+120(FP), SI
	MOVQ stride+144(FP), R9
	SHLQ $2, R9
	MOVQ k_base+96(FP), CX
	XORQ AX, AX
	CMPQ DX, $4
	JEQ  c4
	CMPQ DX, $3
	JEQ  c3
	CMPQ DX, $2
	JEQ  c2
	JMP  c1

c4:
	P4_ROW(0)
	VMOVUPS   0(DI), Z16
	VMOVUPS   64(DI), Z17
	VMOVUPS   128(DI), Z18
	VMOVUPS.Z 192(DI), K1, Z19
	P4_ROW(4)
	VMOVUPS   0(DI), Z20
	VMOVUPS   64(DI), Z21
	VMOVUPS   128(DI), Z22
	VMOVUPS.Z 192(DI), K1, Z23
	P4_ROW(8)
	VMOVUPS   0(DI), Z24
	VMOVUPS   64(DI), Z25
	VMOVUPS   128(DI), Z26
	VMOVUPS.Z 192(DI), K1, Z27
	P4_ROW(12)
	VMOVUPS   0(DI), Z28
	VMOVUPS   64(DI), Z29
	VMOVUPS   128(DI), Z30
	VMOVUPS.Z 192(DI), K1, Z31
	MOVQ      k_len+104(FP), DX
	TESTQ     DX, DX
	JZ        store4

loop4:
	P4_TERM
	VMOVUPS   0(SI)(R12*1), Z0
	VMOVUPS   64(SI)(R12*1), Z1
	VMOVUPS   128(SI)(R12*1), Z2
	VMOVUPS.Z 192(SI)(R12*1), K1, Z3
	P4_MAC(Z0, Z4, Z16, Z8)
	P4_MAC(Z1, Z4, Z17, Z9)
	P4_MAC(Z2, Z4, Z18, Z10)
	P4_MAC(Z3, Z4, Z19, Z11)
	P4_MAC(Z0, Z5, Z20, Z12)
	P4_MAC(Z1, Z5, Z21, Z13)
	P4_MAC(Z2, Z5, Z22, Z14)
	P4_MAC(Z3, Z5, Z23, Z8)
	P4_MAC(Z0, Z6, Z24, Z9)
	P4_MAC(Z1, Z6, Z25, Z10)
	P4_MAC(Z2, Z6, Z26, Z11)
	P4_MAC(Z3, Z6, Z27, Z12)
	P4_MAC(Z0, Z7, Z28, Z13)
	P4_MAC(Z1, Z7, Z29, Z14)
	P4_MAC(Z2, Z7, Z30, Z8)
	P4_MAC(Z3, Z7, Z31, Z9)
	P4_NEXT(loop4)

store4:
	P4_ROW(0)
	VMOVUPS Z16, 0(DI)
	VMOVUPS Z17, 64(DI)
	VMOVUPS Z18, 128(DI)
	VMOVUPS Z19, K1, 192(DI)
	P4_ROW(4)
	VMOVUPS Z20, 0(DI)
	VMOVUPS Z21, 64(DI)
	VMOVUPS Z22, 128(DI)
	VMOVUPS Z23, K1, 192(DI)
	P4_ROW(8)
	VMOVUPS Z24, 0(DI)
	VMOVUPS Z25, 64(DI)
	VMOVUPS Z26, 128(DI)
	VMOVUPS Z27, K1, 192(DI)
	P4_ROW(12)
	VMOVUPS Z28, 0(DI)
	VMOVUPS Z29, 64(DI)
	VMOVUPS Z30, 128(DI)
	VMOVUPS Z31, K1, 192(DI)
	VZEROUPPER
	RET

c3:
	P4_ROW(0)
	VMOVUPS   0(DI), Z16
	VMOVUPS   64(DI), Z17
	VMOVUPS.Z 128(DI), K1, Z18
	P4_ROW(4)
	VMOVUPS   0(DI), Z20
	VMOVUPS   64(DI), Z21
	VMOVUPS.Z 128(DI), K1, Z22
	P4_ROW(8)
	VMOVUPS   0(DI), Z24
	VMOVUPS   64(DI), Z25
	VMOVUPS.Z 128(DI), K1, Z26
	P4_ROW(12)
	VMOVUPS   0(DI), Z28
	VMOVUPS   64(DI), Z29
	VMOVUPS.Z 128(DI), K1, Z30
	MOVQ      k_len+104(FP), DX
	TESTQ     DX, DX
	JZ        store3

loop3:
	P4_TERM
	VMOVUPS   0(SI)(R12*1), Z0
	VMOVUPS   64(SI)(R12*1), Z1
	VMOVUPS.Z 128(SI)(R12*1), K1, Z2
	P4_MAC(Z0, Z4, Z16, Z8)
	P4_MAC(Z1, Z4, Z17, Z9)
	P4_MAC(Z2, Z4, Z18, Z10)
	P4_MAC(Z0, Z5, Z20, Z11)
	P4_MAC(Z1, Z5, Z21, Z12)
	P4_MAC(Z2, Z5, Z22, Z13)
	P4_MAC(Z0, Z6, Z24, Z14)
	P4_MAC(Z1, Z6, Z25, Z8)
	P4_MAC(Z2, Z6, Z26, Z9)
	P4_MAC(Z0, Z7, Z28, Z10)
	P4_MAC(Z1, Z7, Z29, Z11)
	P4_MAC(Z2, Z7, Z30, Z12)
	P4_NEXT(loop3)

store3:
	P4_ROW(0)
	VMOVUPS Z16, 0(DI)
	VMOVUPS Z17, 64(DI)
	VMOVUPS Z18, K1, 128(DI)
	P4_ROW(4)
	VMOVUPS Z20, 0(DI)
	VMOVUPS Z21, 64(DI)
	VMOVUPS Z22, K1, 128(DI)
	P4_ROW(8)
	VMOVUPS Z24, 0(DI)
	VMOVUPS Z25, 64(DI)
	VMOVUPS Z26, K1, 128(DI)
	P4_ROW(12)
	VMOVUPS Z28, 0(DI)
	VMOVUPS Z29, 64(DI)
	VMOVUPS Z30, K1, 128(DI)
	VZEROUPPER
	RET

c2:
	P4_ROW(0)
	VMOVUPS   0(DI), Z16
	VMOVUPS.Z 64(DI), K1, Z17
	P4_ROW(4)
	VMOVUPS   0(DI), Z20
	VMOVUPS.Z 64(DI), K1, Z21
	P4_ROW(8)
	VMOVUPS   0(DI), Z24
	VMOVUPS.Z 64(DI), K1, Z25
	P4_ROW(12)
	VMOVUPS   0(DI), Z28
	VMOVUPS.Z 64(DI), K1, Z29
	MOVQ      k_len+104(FP), DX
	TESTQ     DX, DX
	JZ        store2

loop2:
	P4_TERM
	VMOVUPS   0(SI)(R12*1), Z0
	VMOVUPS.Z 64(SI)(R12*1), K1, Z1
	P4_MAC(Z0, Z4, Z16, Z8)
	P4_MAC(Z1, Z4, Z17, Z9)
	P4_MAC(Z0, Z5, Z20, Z10)
	P4_MAC(Z1, Z5, Z21, Z11)
	P4_MAC(Z0, Z6, Z24, Z12)
	P4_MAC(Z1, Z6, Z25, Z13)
	P4_MAC(Z0, Z7, Z28, Z14)
	P4_MAC(Z1, Z7, Z29, Z8)
	P4_NEXT(loop2)

store2:
	P4_ROW(0)
	VMOVUPS Z16, 0(DI)
	VMOVUPS Z17, K1, 64(DI)
	P4_ROW(4)
	VMOVUPS Z20, 0(DI)
	VMOVUPS Z21, K1, 64(DI)
	P4_ROW(8)
	VMOVUPS Z24, 0(DI)
	VMOVUPS Z25, K1, 64(DI)
	P4_ROW(12)
	VMOVUPS Z28, 0(DI)
	VMOVUPS Z29, K1, 64(DI)
	VZEROUPPER
	RET

c1:
	P4_ROW(0)
	VMOVUPS.Z 0(DI), K1, Z16
	P4_ROW(4)
	VMOVUPS.Z 0(DI), K1, Z20
	P4_ROW(8)
	VMOVUPS.Z 0(DI), K1, Z24
	P4_ROW(12)
	VMOVUPS.Z 0(DI), K1, Z28
	MOVQ      k_len+104(FP), DX
	TESTQ     DX, DX
	JZ        store1

loop1:
	P4_TERM
	VMOVUPS.Z 0(SI)(R12*1), K1, Z0
	P4_MAC(Z0, Z4, Z16, Z8)
	P4_MAC(Z0, Z5, Z20, Z9)
	P4_MAC(Z0, Z6, Z24, Z10)
	P4_MAC(Z0, Z7, Z28, Z11)
	P4_NEXT(loop1)

store1:
	P4_ROW(0)
	VMOVUPS Z16, K1, 0(DI)
	P4_ROW(4)
	VMOVUPS Z20, K1, 0(DI)
	P4_ROW(8)
	VMOVUPS Z24, K1, 0(DI)
	P4_ROW(12)
	VMOVUPS Z28, K1, 0(DI)
	VZEROUPPER
	RET

// iota16 is the int32 lanes 0..15.
DATA iota16<>+0(SB)/4, $0
DATA iota16<>+4(SB)/4, $1
DATA iota16<>+8(SB)/4, $2
DATA iota16<>+12(SB)/4, $3
DATA iota16<>+16(SB)/4, $4
DATA iota16<>+20(SB)/4, $5
DATA iota16<>+24(SB)/4, $6
DATA iota16<>+28(SB)/4, $7
DATA iota16<>+32(SB)/4, $8
DATA iota16<>+36(SB)/4, $9
DATA iota16<>+40(SB)/4, $10
DATA iota16<>+44(SB)/4, $11
DATA iota16<>+48(SB)/4, $12
DATA iota16<>+52(SB)/4, $13
DATA iota16<>+56(SB)/4, $14
DATA iota16<>+60(SB)/4, $15
GLOBL iota16<>(SB), RODATA|NOPTR, $64

// func nonzerosAVX512Asm(idx []int32, mask []uint64, x []float32) int
// Writes the indices of x's nonzero entries to idx, ascending, and returns
// how many. 16 entries at a time: VCMPPS (not equal, unordered, so NaN is
// nonzero and ±0 is not, as Go's v != 0) sets K1, VPCOMPRESSD stores the
// lanes of Z1, the chunk's indices, that K1 selects, and POPCNT advances
// the store. With mask non-empty, each chunk's 16 bits are stored as the
// next uint16 of mask, so bit j of mask[w] is x[64w+j] != 0; the caller
// zeroes the last word, which a short x fills only in part. The last chunk
// of fewer than 16 entries is loaded under a mask, its missing lanes +0.
TEXT ·nonzerosAVX512Asm(SB), NOSPLIT, $0-80
	MOVQ         idx_base+0(FP), DI
	MOVQ         mask_base+24(FP), R10
	MOVQ         mask_len+32(FP), R11
	MOVQ         x_base+48(FP), SI
	MOVQ         x_len+56(FP), CX
	MOVQ         DI, R9
	VPXORD       Z0, Z0, Z0
	VMOVDQU32    iota16<>(SB), Z1
	MOVL         $16, AX
	VPBROADCASTD AX, Z2

nzloop:
	CMPQ        CX, $16
	JLT         nztail
	VCMPPS      $4, (SI), Z0, K1
	VPCOMPRESSD Z1, K1, (DI)
	KMOVW       K1, AX
	POPCNTL     AX, R8
	LEAQ        (DI)(R8*4), DI
	VPADDD      Z2, Z1, Z1
	ADDQ        $64, SI
	SUBQ        $16, CX
	TESTQ       R11, R11
	JZ          nzloop
	MOVW        AX, (R10)
	ADDQ        $2, R10
	JMP         nzloop

nztail:
	TESTQ       CX, CX
	JZ          nzdone
	MOVL        $1, AX
	SHLL        CX, AX
	DECL        AX
	KMOVW       AX, K2
	VMOVUPS.Z   (SI), K2, Z3
	VCMPPS      $4, Z3, Z0, K1
	VPCOMPRESSD Z1, K1, (DI)
	KMOVW       K1, AX
	POPCNTL     AX, R8
	LEAQ        (DI)(R8*4), DI
	TESTQ       R11, R11
	JZ          nzdone
	MOVW        AX, (R10)

nzdone:
	SUBQ      R9, DI
	SHRQ      $2, DI
	MOVQ      DI, ret+72(FP)
	VZEROUPPER
	RET
