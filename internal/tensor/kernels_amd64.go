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
		name:     "sse",
		saxpy:    saxpySSEAsm,
		saxpyI8:  saxpyI8SSE,
		gemmTile: gemmTile8x4SSEAsm,
		tileM:    8,
		tileN:    4,
	}
	if !cpuHasAVX2 {
		return []kernel{sse}
	}
	avx2 := kernel{
		name:     "avx2",
		saxpy:    saxpyAVX2Asm,
		saxpyI8:  saxpyI8AVX2,
		gemmTile: gemmTile8x8AVX2Asm,
		tileM:    8,
		tileN:    8,
	}
	return []kernel{avx2, sse}
}
