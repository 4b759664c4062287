//go:build amd64

#include "textflag.h"

// The avx512 tier's one kernel of its own: the training GEMM's register
// tile. Everything else the tier runs is avx2's (kernels_avx2_amd64.s).
// A 512-bit VMULPS/VADDPS pair rounds each lane exactly like the 256-bit
// pair and the generic loop's float32(a*b) then +=, so the tile keeps the
// tier contract (kernels.go): unfused, k ascending per element.

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
