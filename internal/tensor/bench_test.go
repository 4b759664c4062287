package tensor

import (
	"math/rand"
	"testing"
)

func benchMats(n int) (*Matrix, *Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	a := New(n, n)
	b := New(n, n)
	RandUniform(a, 1, rng)
	RandUniform(b, 1, rng)
	return New(n, n), a, b
}

func BenchmarkMul128(bn *testing.B) {
	dst, a, b := benchMats(128)
	bn.ReportAllocs()
	bn.ResetTimer()
	for i := 0; i < bn.N; i++ {
		Mul(dst, a, b)
	}
}

func BenchmarkMulBT128(bn *testing.B) {
	dst, a, b := benchMats(128)
	bn.ReportAllocs()
	bn.ResetTimer()
	for i := 0; i < bn.N; i++ {
		Default().MulBT(dst, a, b)
	}
}

func BenchmarkMulATAdd128(bn *testing.B) {
	dst, a, b := benchMats(128)
	bn.ReportAllocs()
	bn.ResetTimer()
	for i := 0; i < bn.N; i++ {
		Default().MulATAdd(dst, a, b)
	}
}
