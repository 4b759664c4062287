//go:build amd64

package tensor

// amd64 tiers: "avx2" (256-bit, gated on runtime AVX2+OS support) above
// "sse" (128-bit, part of the amd64 baseline). Both use unfused multiply/add
// pairs so results are bitwise identical to the generic reference; see the
// contract notes in kernels.go.

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

// The panel kernels' asm runs one strip of y per call, its columns held in
// registers across the whole term list: 64, 32, 16 or 8 columns on avx2,
// 32, 16 or 8 on sse. The wrappers cover len(y) with the widest strips that
// fit, then run a ragged tail of fewer than 8 columns as an 8-column strip
// of a stack copy (the panel row's padding supplies the extra reads).
// Strips split y's columns, never a column's term order.

//go:noescape
func axpyPanelAVX2Asm(y, alpha []float32, k []int32, panel []float32, stride int)

//go:noescape
func axpyPanelI8AVX2Asm(y, x []float32, k []int32, scale []float32, panel []int8, stride int)

//go:noescape
func axpyPanelSSEAsm(y, alpha []float32, k []int32, panel []float32, stride int)

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

func axpyPanelAVX2(y, alpha []float32, k []int32, panel []float32, stride int) {
	for w := 0; len(y) >= 8; y, panel = y[w:], panel[w:] {
		w = strip(len(y), 64)
		axpyPanelAVX2Asm(y[:w], alpha, k, panel, stride)
	}
	if len(y) > 0 {
		var tail [8]float32
		copy(tail[:], y)
		axpyPanelAVX2Asm(tail[:], alpha, k, panel, stride)
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

func axpyPanelSSE(y, alpha []float32, k []int32, panel []float32, stride int) {
	for w := 0; len(y) >= 8; y, panel = y[w:], panel[w:] {
		w = strip(len(y), 32)
		axpyPanelSSEAsm(y[:w], alpha, k, panel, stride)
	}
	if len(y) > 0 {
		var tail [8]float32
		copy(tail[:], y)
		axpyPanelSSEAsm(tail[:], alpha, k, panel, stride)
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

func archKernels() []kernel {
	sse := kernel{
		name:        "sse",
		saxpy:       saxpySSEAsm,
		saxpyI8:     saxpyI8SSE,
		axpyPanel:   axpyPanelSSE,
		axpyPanelI8: axpyPanelI8SSE,
		gemmTile:    gemmTile8x4SSEAsm,
		tileM:       8,
		tileN:       4,
	}
	if !cpuHasAVX2 {
		return []kernel{sse}
	}
	avx2 := kernel{
		name:        "avx2",
		saxpy:       saxpyAVX2Asm,
		saxpyI8:     saxpyI8AVX2,
		axpyPanel:   axpyPanelAVX2,
		axpyPanelI8: axpyPanelI8AVX2,
		gemmTile:    gemmTile8x8AVX2Asm,
		tileM:       8,
		tileN:       8,
	}
	return []kernel{avx2, sse}
}
