//go:build amd64

#include "textflag.h"

// AVX2 kernel tier. All kernels use separate VMULPS/VADDPS (never FMA): the
// bitwise-equivalence contract with the scalar reference requires the product
// to round to float32 before the add. Y15 is never touched (X15 is the
// ABIInternal zero register) and every exit runs VZEROUPPER.

// func saxpyAVX2Asm(alpha float32, x, y []float32)
// y[i] += alpha * x[i] for i in [0, len(x)); the Go wrapper guarantees
// len(y) >= len(x). 16 floats per iteration, then 8, then a scalar tail.
TEXT ·saxpyAVX2Asm(SB), NOSPLIT, $0-56
	MOVSS        alpha+0(FP), X0
	VBROADCASTSS X0, Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), BX
	MOVQ         y_base+32(FP), DI
	XORQ         AX, AX              // element index

	MOVQ BX, DX
	ANDQ $15, DX                     // tail length after 16-wide blocks
	SHRQ $4, BX                      // number of 16-wide blocks
	JZ   tail8

loop16:
	VMOVUPS (SI)(AX*4), Y1
	VMOVUPS 32(SI)(AX*4), Y2
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMOVUPS (DI)(AX*4), Y3
	VMOVUPS 32(DI)(AX*4), Y4
	VADDPS  Y3, Y1, Y1
	VADDPS  Y4, Y2, Y2
	VMOVUPS Y1, (DI)(AX*4)
	VMOVUPS Y2, 32(DI)(AX*4)
	ADDQ    $16, AX
	DECQ    BX
	JNZ     loop16

tail8:
	CMPQ    DX, $8
	JL      tail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI)(AX*4), Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	SUBQ    $8, DX

tail:
	TESTQ DX, DX
	JZ    done

tailloop:
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VMOVSS (DI)(AX*4), X2
	VADDSS X2, X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	DECQ   DX
	JNZ    tailloop

done:
	VZEROUPPER
	RET

// func saxpyI8AVX2Asm(alpha float32, q []int8, y []float32)
// y[i] += alpha * float32(q[i]) for i in [0, len(q)); len(q) must be a
// multiple of 8 (the Go wrapper handles the tail). VPMOVSXBD+VCVTDQ2PS is an
// exact int8→float32 widening, so only the multiply and add round.
TEXT ·saxpyI8AVX2Asm(SB), NOSPLIT, $0-56
	MOVSS        alpha+0(FP), X0
	VBROADCASTSS X0, Y0
	MOVQ         q_base+8(FP), SI
	MOVQ         q_len+16(FP), BX
	MOVQ         y_base+32(FP), DI
	SHRQ         $3, BX              // number of 8-wide blocks
	JZ           done
	XORQ         AX, AX              // element index

loop8:
	VPMOVSXBD (SI)(AX*1), Y1
	VCVTDQ2PS Y1, Y1
	VMULPS    Y0, Y1, Y1
	VMOVUPS   (DI)(AX*4), Y2
	VADDPS    Y2, Y1, Y1
	VMOVUPS   Y1, (DI)(AX*4)
	ADDQ      $8, AX
	DECQ      BX
	JNZ       loop8

done:
	VZEROUPPER
	RET

// func gemmTile8x8AVX2Asm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)
// c[i*ldc+j] += Σ_k a[i*ras+k*kas]*b[k*ldb+j] for an 8x8 tile, k ascending.
// The c tile lives in Y0–Y7 across the whole k loop; per k: one row load of
// b, then per tile row a broadcast of the a element and an unfused
// multiply/add. Strides are in elements and converted to bytes here.
TEXT ·gemmTile8x8AVX2Asm(SB), NOSPLIT, $0-112
	// Load the 8 c-tile rows into Y0..Y7.
	MOVQ    c_base+72(FP), AX
	MOVQ    ldc+96(FP), CX
	SHLQ    $2, CX
	VMOVUPS (AX), Y0
	ADDQ    CX, AX
	VMOVUPS (AX), Y1
	ADDQ    CX, AX
	VMOVUPS (AX), Y2
	ADDQ    CX, AX
	VMOVUPS (AX), Y3
	ADDQ    CX, AX
	VMOVUPS (AX), Y4
	ADDQ    CX, AX
	VMOVUPS (AX), Y5
	ADDQ    CX, AX
	VMOVUPS (AX), Y6
	ADDQ    CX, AX
	VMOVUPS (AX), Y7

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
	VMOVUPS      (SI), Y8
	ADDQ         CX, SI
	VBROADCASTSS (R8), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         BX, R8
	VBROADCASTSS (R9), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1
	ADDQ         BX, R9
	VBROADCASTSS (R10), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2
	ADDQ         BX, R10
	VBROADCASTSS (R11), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3
	ADDQ         BX, R11
	VBROADCASTSS (R12), Y13
	VMULPS       Y8, Y13, Y13
	VADDPS       Y13, Y4, Y4
	ADDQ         BX, R12
	VBROADCASTSS (R13), Y14
	VMULPS       Y8, Y14, Y14
	VADDPS       Y14, Y5, Y5
	ADDQ         BX, R13
	VBROADCASTSS (R15), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y6, Y6
	ADDQ         BX, R15
	VBROADCASTSS (DI), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y7, Y7
	ADDQ         BX, DI
	DECQ         DX
	JNZ          loopk

store:
	MOVQ    c_base+72(FP), AX
	MOVQ    ldc+96(FP), CX
	SHLQ    $2, CX
	VMOVUPS Y0, (AX)
	ADDQ    CX, AX
	VMOVUPS Y1, (AX)
	ADDQ    CX, AX
	VMOVUPS Y2, (AX)
	ADDQ    CX, AX
	VMOVUPS Y3, (AX)
	ADDQ    CX, AX
	VMOVUPS Y4, (AX)
	ADDQ    CX, AX
	VMOVUPS Y5, (AX)
	ADDQ    CX, AX
	VMOVUPS Y6, (AX)
	ADDQ    CX, AX
	VMOVUPS Y7, (AX)
	VZEROUPPER
	RET

// Panel kernels (tensor.AxpyPanel, tensor.AxpyPanelI8), one strip per call:
// len(y) is 64, 32, 16 or 8, and those columns of y live in Y0..Y7 across
// the whole term list, so y is loaded and stored once per call. Per term t:
// R8 = k[t], Y8 = a[k[t]] broadcast from the dense activation row, R8 =
// k[t]*stride in bytes, then one unfused multiply/add per 8 columns.
// Registers: DI y, BX a (x for int8), CX k, SI panel, DX term count, AX
// term index, R9 row stride in bytes, R10 scale (int8 only), R11 len(y).

#define PANEL_F32_TERM \
	MOVLQSX      (CX)(AX*4), R8; \
	VBROADCASTSS (BX)(R8*4), Y8; \
	IMULQ        R9, R8

#define PANEL_F32_MAC(off, acc, tmp) \
	VMULPS off(SI)(R8*1), Y8, tmp; \
	VADDPS tmp, acc, acc

// alpha = x[k[t]]*scale[k[t]], rounded once, as the int8 plan has always
// folded its scale.
#define PANEL_I8_TERM \
	MOVLQSX      (CX)(AX*4), R8; \
	VMOVSS       (BX)(R8*4), X8; \
	VMULSS       (R10)(R8*4), X8, X8; \
	VBROADCASTSS X8, Y8; \
	IMULQ        R9, R8

#define PANEL_I8_MAC(off, acc, tmp) \
	VPMOVSXBD off(SI)(R8*1), tmp; \
	VCVTDQ2PS tmp, tmp; \
	VMULPS    Y8, tmp, tmp; \
	VADDPS    tmp, acc, acc

// func axpyPanelAVX2Asm(y, a []float32, k []int32, panel []float32, stride int)
TEXT ·axpyPanelAVX2Asm(SB), NOSPLIT, $0-104
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R11
	MOVQ a_base+24(FP), BX
	MOVQ k_len+56(FP), DX
	MOVQ k_base+48(FP), CX
	MOVQ panel_base+72(FP), SI
	MOVQ stride+96(FP), R9
	SHLQ $2, R9
	XORQ AX, AX
	CMPQ R11, $64
	JEQ  w64
	CMPQ R11, $32
	JEQ  w32
	CMPQ R11, $16
	JEQ  w16
	JMP  w8

w64:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	TESTQ DX, DX
	JZ    store64

loop64:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, Y0, Y9)
	PANEL_F32_MAC(32, Y1, Y10)
	PANEL_F32_MAC(64, Y2, Y11)
	PANEL_F32_MAC(96, Y3, Y12)
	PANEL_F32_MAC(128, Y4, Y13)
	PANEL_F32_MAC(160, Y5, Y14)
	PANEL_F32_MAC(192, Y6, Y9)
	PANEL_F32_MAC(224, Y7, Y10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop64

store64:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

w32:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	TESTQ DX, DX
	JZ    store32

loop32:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, Y0, Y9)
	PANEL_F32_MAC(32, Y1, Y10)
	PANEL_F32_MAC(64, Y2, Y11)
	PANEL_F32_MAC(96, Y3, Y12)
	INCQ AX
	CMPQ AX, DX
	JLT  loop32

store32:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

w16:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	TESTQ DX, DX
	JZ    store16

loop16:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, Y0, Y9)
	PANEL_F32_MAC(32, Y1, Y10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop16

store16:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

w8:
	VMOVUPS 0(DI), Y0
	TESTQ DX, DX
	JZ    store8

loop8:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, Y0, Y9)
	INCQ AX
	CMPQ AX, DX
	JLT  loop8

store8:
	VMOVUPS Y0, 0(DI)
	VZEROUPPER
	RET

// func axpyPanelI8AVX2Asm(y, x []float32, k []int32, scale []float32, panel []int8, stride int)
TEXT ·axpyPanelI8AVX2Asm(SB), NOSPLIT, $0-128
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R11
	MOVQ x_base+24(FP), BX
	MOVQ k_len+56(FP), DX
	MOVQ k_base+48(FP), CX
	MOVQ scale_base+72(FP), R10
	MOVQ panel_base+96(FP), SI
	MOVQ stride+120(FP), R9
	XORQ AX, AX
	CMPQ R11, $64
	JEQ  w64
	CMPQ R11, $32
	JEQ  w32
	CMPQ R11, $16
	JEQ  w16
	JMP  w8

w64:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	TESTQ DX, DX
	JZ    store64

loop64:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, Y0, Y9)
	PANEL_I8_MAC(8, Y1, Y10)
	PANEL_I8_MAC(16, Y2, Y11)
	PANEL_I8_MAC(24, Y3, Y12)
	PANEL_I8_MAC(32, Y4, Y13)
	PANEL_I8_MAC(40, Y5, Y14)
	PANEL_I8_MAC(48, Y6, Y9)
	PANEL_I8_MAC(56, Y7, Y10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop64

store64:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

w32:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	TESTQ DX, DX
	JZ    store32

loop32:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, Y0, Y9)
	PANEL_I8_MAC(8, Y1, Y10)
	PANEL_I8_MAC(16, Y2, Y11)
	PANEL_I8_MAC(24, Y3, Y12)
	INCQ AX
	CMPQ AX, DX
	JLT  loop32

store32:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

w16:
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	TESTQ DX, DX
	JZ    store16

loop16:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, Y0, Y9)
	PANEL_I8_MAC(8, Y1, Y10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop16

store16:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

w8:
	VMOVUPS 0(DI), Y0
	TESTQ DX, DX
	JZ    store8

loop8:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, Y0, Y9)
	INCQ AX
	CMPQ AX, DX
	JLT  loop8

store8:
	VMOVUPS Y0, 0(DI)
	VZEROUPPER
	RET

// ExpShift's kernel: math.Exp of math/exp_amd64.s on its useFMA path, four
// float64 lanes per group, with that file's constants and operation order,
// so a lane in (-708, 708) gets math.Exp's bits. Each constant is stored
// four times for full-width memory operands.
#define EXPC(off, v) \
	DATA expc<>+off(SB)/8, v; \
	DATA expc<>+off+8(SB)/8, v; \
	DATA expc<>+off+16(SB)/8, v; \
	DATA expc<>+off+24(SB)/8, v

EXPC(0, $1.4426950408889634073599246810018920)            // log2(e)
EXPC(32, $0.69314718055966295651160180568695068359375)    // upper half of ln 2
EXPC(64, $0.28235290563031577122588448175013436025525412068e-12) // lower half of ln 2
EXPC(96, $0.0625)
EXPC(128, $2.4801587301587301587e-5)
EXPC(160, $1.9841269841269841270e-4)
EXPC(192, $1.3888888888888888889e-3)
EXPC(224, $8.3333333333333333333e-3)
EXPC(256, $4.1666666666666666667e-2)
EXPC(288, $1.6666666666666666667e-1)
EXPC(320, $0.5)
EXPC(352, $1.0)
EXPC(384, $2.0)
EXPC(416, $708.0)
EXPC(448, $0x7FFFFFFFFFFFFFFF) // clears the sign bit
DATA expc<>+480(SB)/4, $0x3FF // exponent bias, four int32 lanes
DATA expc<>+484(SB)/4, $0x3FF
DATA expc<>+488(SB)/4, $0x3FF
DATA expc<>+492(SB)/4, $0x3FF
GLOBL expc<>(SB), RODATA|NOPTR, $496

// EXP4 overwrites X with exp(X) for four lanes, using T and N (N's low
// half is XN) as temporaries, and ORs into Y8 a lane mask of those outside
// (-708, 708), NaN included. Y9..Y13 hold |.| mask, 708, ln 2 halves and
// log2(e).
#define EXP4(X, T, N, XN) \
	VANDPD       Y9, X, T; \
	VCMPPD       $0x15, Y10, T, T; \
	VORPD        T, Y8, Y8; \
	VMULPD       Y13, X, T; \
	VCVTPD2DQY   T, XN; \
	VCVTDQ2PD    XN, T; \
	VFNMADD231PD Y12, T, X; \
	VFNMADD231PD Y11, T, X; \
	VMULPD       expc<>+96(SB), X, X; \
	VMOVUPD      expc<>+128(SB), T; \
	VFMADD213PD  expc<>+160(SB), X, T; \
	VFMADD213PD  expc<>+192(SB), X, T; \
	VFMADD213PD  expc<>+224(SB), X, T; \
	VFMADD213PD  expc<>+256(SB), X, T; \
	VFMADD213PD  expc<>+288(SB), X, T; \
	VFMADD213PD  expc<>+320(SB), X, T; \
	VFMADD213PD  expc<>+352(SB), X, T; \
	VMULPD       T, X, X; \
	VADDPD       expc<>+384(SB), X, T; \
	VMULPD       T, X, X; \
	VADDPD       expc<>+384(SB), X, T; \
	VMULPD       T, X, X; \
	VADDPD       expc<>+384(SB), X, T; \
	VMULPD       T, X, X; \
	VADDPD       expc<>+384(SB), X, T; \
	VFMADD213PD  expc<>+352(SB), T, X; \
	VPADDD       expc<>+480(SB), XN, XN; \
	VPMOVZXDQ    XN, N; \
	VPSLLQ       $52, N, N; \
	VMULPD       N, X, X

// func expShiftAVX2Asm(dst []float64, x []float32, c float64) (wide bool)
// dst[i] = exp(float64(x[i]) - c) for i < len(x), a multiple of 4; the Go
// wrapper guarantees len(dst) >= len(x). Lanes whose argument lies outside
// (-708, 708) hold garbage, and wide reports whether there were any. Eight
// lanes per iteration, then a group of four.
TEXT ·expShiftAVX2Asm(SB), NOSPLIT, $0-57
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), BX
	VBROADCASTSD c+48(FP), Y14
	VMOVUPD      expc<>+0(SB), Y13
	VMOVUPD      expc<>+32(SB), Y12
	VMOVUPD      expc<>+64(SB), Y11
	VMOVUPD      expc<>+416(SB), Y10
	VMOVUPD      expc<>+448(SB), Y9
	VXORPD       Y8, Y8, Y8
	XORQ         AX, AX
	MOVQ         BX, DX
	SHRQ         $3, BX
	JZ           exp4

exp8:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y3
	VSUBPD    Y14, Y0, Y0
	VSUBPD    Y14, Y3, Y3
	EXP4(Y0, Y1, Y2, X2)
	EXP4(Y3, Y4, Y5, X5)
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y3, 32(DI)(AX*8)
	ADDQ      $8, AX
	DECQ      BX
	JNZ       exp8

exp4:
	TESTQ     $4, DX
	JZ        expdone
	VCVTPS2PD (SI)(AX*4), Y0
	VSUBPD    Y14, Y0, Y0
	EXP4(Y0, Y1, Y2, X2)
	VMOVUPD   Y0, (DI)(AX*8)

expdone:
	VPTEST     Y8, Y8
	SETNE      wide+56(FP)
	VZEROUPPER
	RET
