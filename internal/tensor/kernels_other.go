//go:build !amd64 && !arm64

package tensor

// Other architectures have no asm tiers; the generic kernel (appended by
// the portable init in kernels.go) is the only — and always-correct — tier.
func archKernels() []kernel { return nil }

// expShiftVector is never called: no tier here sets expVector.
func expShiftVector(dst []float64, x []float32, c float64) int { return 0 }
