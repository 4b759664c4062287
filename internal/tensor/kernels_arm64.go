//go:build arm64

package tensor

// arm64 tier: "neon" (128-bit ASIMD, part of the arm64 baseline, so no
// runtime detection is needed). The kernels use unfused FMUL/FADD vector
// pairs — never FMLA — to keep the two-rounding bitwise contract with the
// generic reference (which pins its own rounding with explicit float32(...)
// conversions precisely because the arm64 compiler fuses otherwise). The
// panel kernels have no NEON version yet: the tier runs the generic loops.

// saxpyNEONAsm requires len(x) to be a multiple of 8; the Go wrapper
// finishes the tail with the generic loop (bitwise-identical per element).
//
//go:noescape
func saxpyNEONAsm(alpha float32, x, y []float32)

// saxpyI8NEONAsm requires len(q) to be a multiple of 8.
//
//go:noescape
func saxpyI8NEONAsm(alpha float32, q []int8, y []float32)

// gemmTile8x8NEONAsm accumulates an 8x8 tile (see gemmTileFunc).
//
//go:noescape
func gemmTile8x8NEONAsm(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)

func saxpyNEON(alpha float32, x, y []float32) {
	n := len(x) &^ 7
	if n > 0 {
		saxpyNEONAsm(alpha, x[:n], y[:n])
	}
	saxpyGeneric(alpha, x[n:], y[n:len(x)])
}

func saxpyI8NEON(alpha float32, q []int8, y []float32) {
	n := len(q) &^ 7
	if n > 0 {
		saxpyI8NEONAsm(alpha, q[:n], y[:n])
	}
	saxpyI8Generic(alpha, q[n:], y[n:len(q)])
}

func archKernels() []kernel {
	return []kernel{{
		name:        "neon",
		saxpy:       saxpyNEON,
		saxpyI8:     saxpyI8NEON,
		axpyPanel:   axpyPanelGeneric,
		axpyPanelI8: axpyPanelI8Generic,
		nonzeros:    nonzerosGeneric,
		passPos:     passIfPositiveGeneric,
		gather:      gatherRowsGeneric,
		max:         maxGeneric,
		addScaled:   addScaledGeneric,
		adam:        adamGeneric,
		gemmTile:    gemmTile8x8NEONAsm,
		tileM:       8,
		tileN:       8,
	}}
}

// expShiftVector is never called: no arm64 tier sets expWidth.
func expShiftVector(dst []float64, x []float32, c []float64, cstep int) int { return 0 }
