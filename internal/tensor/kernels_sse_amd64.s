//go:build amd64

#include "textflag.h"

// The "sse" tier's kernels. SSE2-only: no PMOVSXBD (SSE4.1), so the int8
// widening uses the classic unpack-with-self + arithmetic-shift sign
// extension. X15 is never touched (it is the ABIInternal zero register).

// func saxpySSEAsm(alpha float32, x, y []float32)
// y[i] += alpha * x[i] for i in [0, len(x)); the Go wrapper guarantees
// len(y) >= len(x). SSE only (baseline amd64), 8 floats per iteration,
// scalar tail.
TEXT ·saxpySSEAsm(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0        // broadcast alpha to all four lanes
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), BX
	MOVQ   y_base+32(FP), DI
	XORQ   AX, AX               // element index

	MOVQ   BX, DX
	ANDQ   $7, DX               // tail length
	SHRQ   $3, BX               // number of 8-wide blocks
	JZ     tail

loop8:
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI)(AX*4), X3
	MOVUPS 16(DI)(AX*4), X4
	ADDPS  X3, X1
	ADDPS  X4, X2
	MOVUPS X1, (DI)(AX*4)
	MOVUPS X2, 16(DI)(AX*4)
	ADDQ   $8, AX
	DECQ   BX
	JNZ    loop8

tail:
	TESTQ  DX, DX
	JZ     done

tailloop:
	MOVSS  (SI)(AX*4), X1
	MULSS  X0, X1
	MOVSS  (DI)(AX*4), X2
	ADDSS  X2, X1
	MOVSS  X1, (DI)(AX*4)
	INCQ   AX
	DECQ   DX
	JNZ    tailloop

done:
	RET

// func saxpyI8SSEAsm(alpha float32, q []int8, y []float32)
// y[i] += alpha * float32(q[i]) for i in [0, len(q)); len(q) must be a
// multiple of 4 (the Go wrapper handles the tail).
TEXT ·saxpyI8SSEAsm(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   q_base+8(FP), SI
	MOVQ   q_len+16(FP), BX
	MOVQ   y_base+32(FP), DI
	SHRQ   $2, BX                // number of 4-wide blocks
	JZ     done
	XORQ   AX, AX                // element index

loop4:
	MOVL      (SI)(AX*1), X1     // 4 int8 in the low dword
	PUNPCKLBW X1, X1             // b0 b0 b1 b1 b2 b2 b3 b3 ...
	PUNPCKLWL X1, X1             // b0 b0 b0 b0 b1 b1 b1 b1 ...
	PSRAL     $24, X1            // arithmetic shift: sign-extended int32
	CVTPL2PS  X1, X1             // exact int32→float32 (|q| <= 127)
	MULPS     X0, X1
	MOVUPS    (DI)(AX*4), X2
	ADDPS     X1, X2
	MOVUPS    X2, (DI)(AX*4)
	ADDQ      $4, AX
	DECQ      BX
	JNZ       loop4

done:
	RET

// func gemmTile8x4SSEAsm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)
// c[i*ldc+j] += Σ_k a[i*ras+k*kas]*b[k*ldb+j] for an 8x4 tile, k ascending.
// Same register discipline as the AVX2 8x8 tile, at 128 bits: the c tile
// lives in X0–X7, b's row in X8, broadcasts in X9.
TEXT ·gemmTile8x4SSEAsm(SB), NOSPLIT, $0-112
	// Load the 8 c-tile rows into X0..X7.
	MOVQ   c_base+72(FP), AX
	MOVQ   ldc+96(FP), CX
	SHLQ   $2, CX
	MOVUPS (AX), X0
	ADDQ   CX, AX
	MOVUPS (AX), X1
	ADDQ   CX, AX
	MOVUPS (AX), X2
	ADDQ   CX, AX
	MOVUPS (AX), X3
	ADDQ   CX, AX
	MOVUPS (AX), X4
	ADDQ   CX, AX
	MOVUPS (AX), X5
	ADDQ   CX, AX
	MOVUPS (AX), X6
	ADDQ   CX, AX
	MOVUPS (AX), X7

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

	MOVQ  kas+32(FP), BX  // per-k step of the a pointers, bytes
	SHLQ  $2, BX
	MOVQ  b_base+40(FP), SI
	MOVQ  ldb+64(FP), CX  // per-k step of the b pointer, bytes
	SHLQ  $2, CX
	MOVQ  kn+104(FP), DX
	TESTQ DX, DX
	JZ    store

loopk:
	MOVUPS (SI), X8
	ADDQ   CX, SI
	MOVSS  (R8), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X0
	ADDQ   BX, R8
	MOVSS  (R9), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X1
	ADDQ   BX, R9
	MOVSS  (R10), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X2
	ADDQ   BX, R10
	MOVSS  (R11), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X3
	ADDQ   BX, R11
	MOVSS  (R12), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X4
	ADDQ   BX, R12
	MOVSS  (R13), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X5
	ADDQ   BX, R13
	MOVSS  (R15), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X6
	ADDQ   BX, R15
	MOVSS  (DI), X9
	SHUFPS $0x00, X9, X9
	MULPS  X8, X9
	ADDPS  X9, X7
	ADDQ   BX, DI
	DECQ   DX
	JNZ    loopk

store:
	MOVQ   c_base+72(FP), AX
	MOVQ   ldc+96(FP), CX
	SHLQ   $2, CX
	MOVUPS X0, (AX)
	ADDQ   CX, AX
	MOVUPS X1, (AX)
	ADDQ   CX, AX
	MOVUPS X2, (AX)
	ADDQ   CX, AX
	MOVUPS X3, (AX)
	ADDQ   CX, AX
	MOVUPS X4, (AX)
	ADDQ   CX, AX
	MOVUPS X5, (AX)
	ADDQ   CX, AX
	MOVUPS X6, (AX)
	ADDQ   CX, AX
	MOVUPS X7, (AX)
	RET

// Panel kernels (tensor.AxpyPanel, tensor.AxpyPanelI8), one strip per call:
// len(y) is 32, 16 or 8 (a 64-column panel is two strips), and those
// columns of y live in X0..X7 across the whole term list. Per term t: R8 =
// k[t], X8 = a[k[t]] broadcast from the dense activation row, R8 =
// k[t]*stride in bytes, then one unfused multiply/add per 4 columns. Panel
// rows are loaded unaligned into a temporary, never used as a MULPS memory
// operand.
// Registers: DI y, BX a (x for int8), CX k, SI panel, DX term count, AX
// term index, R9 row stride in bytes, R10 scale (int8 only), R11 len(y).

#define PANEL_F32_TERM \
	MOVLQSX (CX)(AX*4), R8; \
	MOVSS   (BX)(R8*4), X8; \
	SHUFPS  $0x00, X8, X8; \
	IMULQ   R9, R8

#define PANEL_F32_MAC(off, acc, tmp) \
	MOVUPS off(SI)(R8*1), tmp; \
	MULPS  X8, tmp; \
	ADDPS  tmp, acc

// alpha = x[k[t]]*scale[k[t]], rounded once, as the int8 plan has always
// folded its scale.
#define PANEL_I8_TERM \
	MOVLQSX (CX)(AX*4), R8; \
	MOVSS   (BX)(R8*4), X8; \
	MULSS   (R10)(R8*4), X8; \
	SHUFPS  $0x00, X8, X8; \
	IMULQ   R9, R8

#define PANEL_I8_MAC(off, acc, tmp) \
	MOVL      off(SI)(R8*1), tmp; \
	PUNPCKLBW tmp, tmp; \
	PUNPCKLWL tmp, tmp; \
	PSRAL     $24, tmp; \
	CVTPL2PS  tmp, tmp; \
	MULPS     X8, tmp; \
	ADDPS     tmp, acc

// func axpyPanelSSEAsm(y, a []float32, k []int32, panel []float32, stride int)
TEXT ·axpyPanelSSEAsm(SB), NOSPLIT, $0-104
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R11
	MOVQ a_base+24(FP), BX
	MOVQ k_len+56(FP), DX
	MOVQ k_base+48(FP), CX
	MOVQ panel_base+72(FP), SI
	MOVQ stride+96(FP), R9
	SHLQ $2, R9
	XORQ AX, AX
	CMPQ R11, $32
	JEQ  w32
	CMPQ R11, $16
	JEQ  w16
	JMP  w8

w32:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	TESTQ DX, DX
	JZ    store32

loop32:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, X0, X9)
	PANEL_F32_MAC(16, X1, X10)
	PANEL_F32_MAC(32, X2, X11)
	PANEL_F32_MAC(48, X3, X12)
	PANEL_F32_MAC(64, X4, X13)
	PANEL_F32_MAC(80, X5, X14)
	PANEL_F32_MAC(96, X6, X9)
	PANEL_F32_MAC(112, X7, X10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop32

store32:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET

w16:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	TESTQ DX, DX
	JZ    store16

loop16:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, X0, X9)
	PANEL_F32_MAC(16, X1, X10)
	PANEL_F32_MAC(32, X2, X11)
	PANEL_F32_MAC(48, X3, X12)
	INCQ AX
	CMPQ AX, DX
	JLT  loop16

store16:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

w8:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	TESTQ DX, DX
	JZ    store8

loop8:
	PANEL_F32_TERM
	PANEL_F32_MAC(0, X0, X9)
	PANEL_F32_MAC(16, X1, X10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop8

store8:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	RET

// func axpyPanelI8SSEAsm(y, x []float32, k []int32, scale []float32, panel []int8, stride int)
TEXT ·axpyPanelI8SSEAsm(SB), NOSPLIT, $0-128
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), R11
	MOVQ x_base+24(FP), BX
	MOVQ k_len+56(FP), DX
	MOVQ k_base+48(FP), CX
	MOVQ scale_base+72(FP), R10
	MOVQ panel_base+96(FP), SI
	MOVQ stride+120(FP), R9
	XORQ AX, AX
	CMPQ R11, $32
	JEQ  w32
	CMPQ R11, $16
	JEQ  w16
	JMP  w8

w32:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	TESTQ DX, DX
	JZ    store32

loop32:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, X0, X9)
	PANEL_I8_MAC(4, X1, X10)
	PANEL_I8_MAC(8, X2, X11)
	PANEL_I8_MAC(12, X3, X12)
	PANEL_I8_MAC(16, X4, X13)
	PANEL_I8_MAC(20, X5, X14)
	PANEL_I8_MAC(24, X6, X9)
	PANEL_I8_MAC(28, X7, X10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop32

store32:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	RET

w16:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	TESTQ DX, DX
	JZ    store16

loop16:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, X0, X9)
	PANEL_I8_MAC(4, X1, X10)
	PANEL_I8_MAC(8, X2, X11)
	PANEL_I8_MAC(12, X3, X12)
	INCQ AX
	CMPQ AX, DX
	JLT  loop16

store16:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	RET

w8:
	MOVUPS 0(DI), X0
	MOVUPS 16(DI), X1
	TESTQ DX, DX
	JZ    store8

loop8:
	PANEL_I8_TERM
	PANEL_I8_MAC(0, X0, X9)
	PANEL_I8_MAC(4, X1, X10)
	INCQ AX
	CMPQ AX, DX
	JLT  loop8

store8:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	RET

// func passIfPositiveSSEAsm(dst, src, gate []float32)
// dst[i] = src[i] where gate[i] > 0, else +0, for i < len(gate), a multiple
// of 4: CMPPS's LT_OS on (0, gate) is false for -0, negatives and NaN, and
// its all-ones or all-zeros lanes are ANDed with src's bits.
TEXT ·passIfPositiveSSEAsm(SB), NOSPLIT, $0-72
	MOVQ  dst_base+0(FP), DI
	MOVQ  src_base+24(FP), SI
	MOVQ  gate_base+48(FP), DX
	MOVQ  gate_len+56(FP), BX
	SHRQ  $2, BX
	JZ    pipdone
	XORQ  AX, AX
	XORPS X7, X7

piploop:
	MOVAPS X7, X0
	MOVUPS (DX)(AX*4), X1
	CMPPS  X1, X0, $1
	MOVUPS (SI)(AX*4), X2
	ANDPS  X2, X0
	MOVUPS X0, (DI)(AX*4)
	ADDQ   $4, AX
	DECQ   BX
	JNZ    piploop

pipdone:
	RET
