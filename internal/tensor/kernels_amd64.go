//go:build amd64

package tensor

import "math"

// amd64 tiers, best first; amd64Tiers (cpu_amd64.go) decides which the host
// can run: "avx512" (avx2 plus a 512-bit 8x32 training-GEMM tile, the 4-row
// AxpyPanelRows kernel and a compress-store Nonzeros), "avx2" (256-bit) and
// "sse" (128-bit, part of the amd64 baseline). All use unfused
// multiply/add pairs so results are bitwise identical to the generic
// reference; the one exception is ExpShift's avx2 kernel, which fuses where
// math.Exp does. See the contract notes in kernels.go.

// saxpySSEAsm is the SSE Saxpy (kernels_sse_amd64.s); it handles any
// length, including the scalar tail, in assembly.
//
//go:noescape
func saxpySSEAsm(alpha float32, x, y []float32)

// saxpyAVX2Asm is the AVX2 Saxpy (kernels_avx2_amd64.s); it handles any
// length, including the scalar tail, in assembly.
//
//go:noescape
func saxpyAVX2Asm(alpha float32, x, y []float32)

// saxpyI8SSEAsm requires len(q) to be a multiple of 4; the Go wrapper
// finishes the tail with the generic loop (bitwise-identical per element).
//
//go:noescape
func saxpyI8SSEAsm(alpha float32, q []int8, y []float32)

// saxpyI8AVX2Asm requires len(q) to be a multiple of 8.
//
//go:noescape
func saxpyI8AVX2Asm(alpha float32, q []int8, y []float32)

// gemmTile8x4SSEAsm accumulates an 8x4 tile (see gemmTileFunc).
//
//go:noescape
func gemmTile8x4SSEAsm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)

// gemmTile8x8AVX2Asm accumulates an 8x8 tile (see gemmTileFunc).
//
//go:noescape
func gemmTile8x8AVX2Asm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)

// gemmTile8x32AVX512Asm accumulates an 8x32 tile (see gemmTileFunc,
// kernels_avx512_amd64.s).
//
//go:noescape
func gemmTile8x32AVX512Asm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)

// axpyPanel4AVX512Asm is the avx512 tier's AxpyPanelRows group kernel:
// four rows, a strip of 1–64 columns each (kernels_avx512_amd64.s). It
// masks a ragged strip's last 16 columns, so it reads and writes nothing
// past width.
//
//go:noescape
func axpyPanel4AVX512Asm(y []float32, ldy int, a []float32, lda int, rows []int32, width int, k []int32, panel []float32, stride int)

// nonzerosAVX512Asm is the avx512 tier's Nonzeros (kernels_avx512_amd64.s),
// 16 entries per compare; it writes mask only when len(mask) > 0, and
// leaves the last word's bits past len(x) as they were.
//
//go:noescape
func nonzerosAVX512Asm(idx []int32, mask []uint64, x []float32) int

// The one-row panel kernels' asm runs one strip of y per call, its columns held in
// registers across the whole term list: 64, 32, 16 or 8 columns on avx2,
// 32, 16 or 8 on sse. The wrappers cover len(y) with the widest strips that
// fit, then run a ragged tail of fewer than 8 columns as an 8-column strip
// of a stack copy (the panel row's padding supplies the extra reads).
// Strips split y's columns, never a column's term order.

//go:noescape
func axpyPanelAVX2Asm(y, a []float32, k []int32, panel []float32, stride int)

//go:noescape
func axpyPanelI8AVX2Asm(y, x []float32, k []int32, scale []float32, panel []int8, stride int)

//go:noescape
func axpyPanelSSEAsm(y, a []float32, k []int32, panel []float32, stride int)

//go:noescape
func axpyPanelI8SSEAsm(y, x []float32, k []int32, scale []float32, panel []int8, stride int)

// strip returns the widest strip, widest halved down to 8, that fits n >= 8
// columns.
func strip(n, widest int) int {
	for widest > n {
		widest /= 2
	}
	return widest
}

func axpyPanelAVX2(y, a []float32, k []int32, panel []float32, stride int) {
	for w := 0; len(y) >= 8; y, panel = y[w:], panel[w:] {
		w = strip(len(y), 64)
		axpyPanelAVX2Asm(y[:w], a, k, panel, stride)
	}
	if len(y) > 0 {
		var tail [8]float32
		copy(tail[:], y)
		axpyPanelAVX2Asm(tail[:], a, k, panel, stride)
		copy(y, tail[:])
	}
}

func axpyPanelI8AVX2(y, x []float32, k []int32, scale []float32, panel []int8, stride int) {
	for w := 0; len(y) >= 8; y, panel = y[w:], panel[w:] {
		w = strip(len(y), 64)
		axpyPanelI8AVX2Asm(y[:w], x, k, scale, panel, stride)
	}
	if len(y) > 0 {
		var tail [8]float32
		copy(tail[:], y)
		axpyPanelI8AVX2Asm(tail[:], x, k, scale, panel, stride)
		copy(y, tail[:])
	}
}

func axpyPanelSSE(y, a []float32, k []int32, panel []float32, stride int) {
	for w := 0; len(y) >= 8; y, panel = y[w:], panel[w:] {
		w = strip(len(y), 32)
		axpyPanelSSEAsm(y[:w], a, k, panel, stride)
	}
	if len(y) > 0 {
		var tail [8]float32
		copy(tail[:], y)
		axpyPanelSSEAsm(tail[:], a, k, panel, stride)
		copy(y, tail[:])
	}
}

func axpyPanelI8SSE(y, x []float32, k []int32, scale []float32, panel []int8, stride int) {
	for w := 0; len(y) >= 8; y, panel = y[w:], panel[w:] {
		w = strip(len(y), 32)
		axpyPanelI8SSEAsm(y[:w], x, k, scale, panel, stride)
	}
	if len(y) > 0 {
		var tail [8]float32
		copy(tail[:], y)
		axpyPanelI8SSEAsm(tail[:], x, k, scale, panel, stride)
		copy(y, tail[:])
	}
}

// expShiftAVX2Asm requires len(x) to be a multiple of 4 (see
// kernels_avx2_amd64.s). It reports whether any lane's argument lay outside
// (-708, 708) or was NaN; those lanes hold garbage.
//
//go:noescape
func expShiftAVX2Asm(dst []float64, x []float32, c float64) (wide bool)

// expShiftVector runs ExpShift's avx2 kernel over the longest multiple of 4
// in x, recomputes its out-of-range lanes with math.Exp, and returns how
// many elements it wrote.
func expShiftVector(dst []float64, x []float32, c float64) int {
	n := len(x) &^ 3
	if n > 0 && expShiftAVX2Asm(dst[:n], x[:n], c) {
		for i, v := range x[:n] {
			if d := float64(v) - c; !(d > -708 && d < 708) {
				dst[i] = math.Exp(d)
			}
		}
	}
	return n
}

func saxpyI8SSE(alpha float32, q []int8, y []float32) {
	n := len(q) &^ 3
	if n > 0 {
		saxpyI8SSEAsm(alpha, q[:n], y[:n])
	}
	saxpyI8Generic(alpha, q[n:], y[n:len(q)])
}

func saxpyI8AVX2(alpha float32, q []int8, y []float32) {
	n := len(q) &^ 7
	if n > 0 {
		saxpyI8AVX2Asm(alpha, q[:n], y[:n])
	}
	saxpyI8Generic(alpha, q[n:], y[n:len(q)])
}

// sseKernel and avx2Kernel are the tiers amd64Tiers (cpu_amd64.go) builds
// the host's list from; avx512 is avx2 with gemmTile8x32AVX512Asm,
// axpyPanel4AVX512Asm and nonzerosAVX512Asm.
var (
	sseKernel = kernel{
		name:        "sse",
		saxpy:       saxpySSEAsm,
		saxpyI8:     saxpyI8SSE,
		axpyPanel:   axpyPanelSSE,
		axpyPanelI8: axpyPanelI8SSE,
		nonzeros:    nonzerosGeneric,
		gemmTile:    gemmTile8x4SSEAsm,
		tileM:       8,
		tileN:       4,
	}
	avx2Kernel = kernel{
		name:        "avx2",
		saxpy:       saxpyAVX2Asm,
		saxpyI8:     saxpyI8AVX2,
		axpyPanel:   axpyPanelAVX2,
		axpyPanelI8: axpyPanelI8AVX2,
		nonzeros:    nonzerosGeneric,
		gemmTile:    gemmTile8x8AVX2Asm,
		tileM:       8,
		tileN:       8,
	}
)
