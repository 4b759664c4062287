package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Scalar reference GEMMs: the dense k-ascending accumulation order every
// dispatch tier must reproduce bit for bit. The explicit float32(...)
// conversions pin the per-term two-rounding semantics (no compiler FMA
// contraction), mirroring the generic kernel tier.

func mulScalar(dst, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		dstRow := dst.Data[i*n : (i+1)*n]
		for x := range dstRow {
			dstRow[x] = 0
		}
		aRow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for k, av := range aRow {
			bRow := b.Data[k*n : (k+1)*n]
			for j, bv := range bRow {
				dstRow[j] += float32(av * bv)
			}
		}
	}
}

func mulBTScalar(dst, a, b *Matrix) {
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		aRow := a.Data[i*k : (i+1)*k]
		dstRow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := 0; j < b.Rows; j++ {
			bRow := b.Data[j*k : (j+1)*k]
			var s float32
			for x, av := range aRow {
				s += float32(av * bRow[x])
			}
			dstRow[j] = s
		}
	}
}

func mulATAddScalar(dst, a, b *Matrix) {
	n := b.Cols
	for i := 0; i < a.Cols; i++ {
		dstRow := dst.Data[i*n : (i+1)*n]
		for r := 0; r < a.Rows; r++ {
			av := a.Data[r*a.Cols+i]
			bRow := b.Data[r*n : (r+1)*n]
			for j, bv := range bRow {
				dstRow[j] += float32(av * bv)
			}
		}
	}
}

// randMats builds one m×k and one k×n (or n×k) operand pair with a sprinkle
// of exact zeros — the GEMMs are dense, so a zero must contribute its
// signed-zero product exactly like the reference, not be skipped.
func randMats(m, k, n int, transposedB bool, seed int64) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(seed))
	a := New(m, k)
	RandUniform(a, 1, rng)
	var b *Matrix
	if transposedB {
		b = New(n, k)
	} else {
		b = New(k, n)
	}
	RandUniform(b, 1, rng)
	for i := range a.Data {
		if rng.Intn(5) == 0 {
			a.Data[i] = 0 // exercise exact-zero terms in the dense kernels
		}
	}
	return a, b
}

func bitsEqual(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs scalar %v (%#x)", name, i,
				got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// gemmShapes are m×k×n products (k the reduction) that between them enter
// every branch of the driver: full tiles and ragged row and column edges, m
// and n below one tile, k on either side of each gemmKC block boundary, b
// small enough to be read in place and large enough to be packed, and one
// training-sized case whose rows split unevenly across 3 and 7 workers.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1}, {3, 5, 7}, {8, 16, 4}, {17, 33, 9}, {64, 128, 31}, {128, 64, 128},
	{9, gemmKC - 1, 17}, {16, gemmKC, 8}, {17, gemmKC + 1, 9}, {5, 300, 3},
	{23, 2*gemmKC + 3, 13}, {33, 700, 31}, {19, 300, 150},
	{136, 1030, 2079},
}

// gemmCase is one entry point on one shape: run computes into dst on w, which
// starts as a copy of init (nonzero: what MulATAdd accumulates onto, and what
// Mul and MulBT must overwrite), and want is the scalar reference's result.
type gemmCase struct {
	name       string
	run        func(w *Workers, dst *Matrix)
	init, want *Matrix
	flop       int
}

// gemmCases builds the three entry points' cases for an m×k×n product: Mul
// (m×k · k×n), MulBT (m×k · (n×k)ᵀ) and MulATAdd ((k×m)ᵀ · k×n), so that in
// each of them k is the extent the driver cuts into blocks.
func gemmCases(m, k, n int) []gemmCase {
	seed := int64(m*1000003 + k*1009 + n)
	a, b := randMats(m, k, n, false, seed)
	abt, bbt := randMats(m, k, n, true, seed+1)
	at, _ := randMats(k, m, n, false, seed+2)
	acc := New(m, n)
	RandUniform(acc, 1, rand.New(rand.NewSource(seed+3)))
	cases := []gemmCase{
		{name: fmt.Sprintf("Mul %dx%dx%d", m, k, n), run: func(w *Workers, dst *Matrix) { w.Mul(dst, a, b) }, init: acc, want: New(m, n)},
		{name: fmt.Sprintf("MulBT %dx%dx%d", m, k, n), run: func(w *Workers, dst *Matrix) { w.MulBT(dst, abt, bbt) }, init: acc, want: New(m, n)},
		{name: fmt.Sprintf("MulATAdd %dx%dx%d", m, k, n), run: func(w *Workers, dst *Matrix) { w.MulATAdd(dst, at, b) }, init: acc, want: acc.Clone()},
	}
	mulScalar(cases[0].want, a, b)
	mulBTScalar(cases[1].want, abt, bbt)
	mulATAddScalar(cases[2].want, at, b)
	for i := range cases {
		cases[i].flop = 2 * m * k * n
	}
	return cases
}

// TestGEMMsBitwiseMatchScalar: the blocked driver must reproduce the scalar
// reference bit for bit on every shape above, on every tier the host has and
// for worker counts that split the rows evenly, unevenly and into more chunks
// than there are processors — rows are computed independently and each
// element's k order is fixed, so neither the split nor the tier nor the
// blocking may show in any output bit.
func TestGEMMsBitwiseMatchScalar(t *testing.T) {
	var cases []gemmCase
	for _, sh := range gemmShapes {
		cases = append(cases, gemmCases(sh.m, sh.k, sh.n)...)
	}
	withTier(t, func(t *testing.T, tier string) {
		for _, workers := range []int{1, 2, 3, 7} {
			w := NewWorkers(workers)
			defer w.Close()
			for _, c := range cases {
				if tier == "generic" && c.flop > 1e8 && workers != 3 {
					continue // the pure-Go tile takes seconds here under -race; one split is enough
				}
				got := c.init.Clone()
				c.run(w, got)
				bitsEqual(t, fmt.Sprintf("%s, %d workers", c.name, workers), got, c.want)
			}
		}
	})
}

// Training-GEMM benchmarks at two shapes: the paper-default ResMADE-128
// layer (batch 256, cache-resident operands) and the DMV model's output layer
// at batch 256 × µ 4 (1,024 × 1,024 × 2,079: an 8.5 MB weight matrix whose
// rows are 8.3 KB apart, the shape the driver's blocking and packing are
// for). Each reports GFLOP/s; the *Scalar twins are the reference loops the
// tiers must match bit for bit. `make bench-train` runs them; CI runs them
// with -benchtime=1x as a smoke test.

// gemmShape is one layer's training GEMMs: x is batch×in, w is in×out and dy
// is batch×out.
type gemmShape struct{ batch, in, out int }

var (
	resmadeShape = gemmShape{256, 128, 128}
	dmvOutShape  = gemmShape{1024, 1024, 2079}
)

// layerMats are a layer's operands and the three products' destinations.
type layerMats struct{ x, w, dy, y, dx, dw *Matrix }

// The three GEMMs of a layer, as (dst, a, b) for Mul, MulBT and MulATAdd.
func forward(l layerMats) (dst, a, b *Matrix)  { return l.y, l.x, l.w }   // y = x·w
func backward(l layerMats) (dst, a, b *Matrix) { return l.dx, l.dy, l.w } // dx = dy·wᵀ
func grad(l layerMats) (dst, a, b *Matrix)     { return l.dw, l.x, l.dy } // dw += xᵀ·dy

// benchGEMM times one of a layer's GEMMs at shape sh and reports its rate.
func benchGEMM(bn *testing.B, sh gemmShape, pick func(layerMats) (dst, a, b *Matrix), gemm func(dst, a, b *Matrix)) {
	rng := rand.New(rand.NewSource(1))
	l := layerMats{
		x: New(sh.batch, sh.in), w: New(sh.in, sh.out), dy: New(sh.batch, sh.out),
		y: New(sh.batch, sh.out), dx: New(sh.batch, sh.in), dw: New(sh.in, sh.out),
	}
	RandUniform(l.x, 1, rng)
	RandUniform(l.w, 1, rng)
	RandUniform(l.dy, 1, rng)
	dst, a, b := pick(l)
	gemm(dst, a, b) // the first call sizes the pooled pack scratch
	bn.ReportAllocs()
	bn.ResetTimer()
	for i := 0; i < bn.N; i++ {
		gemm(dst, a, b)
	}
	flop := 2 * float64(sh.batch) * float64(sh.in) * float64(sh.out)
	bn.ReportMetric(flop*float64(bn.N)/bn.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkTrainGEMMMul(bn *testing.B)       { benchGEMM(bn, resmadeShape, forward, Mul) }
func BenchmarkTrainGEMMMulScalar(bn *testing.B) { benchGEMM(bn, resmadeShape, forward, mulScalar) }
func BenchmarkTrainGEMMMulBT(bn *testing.B)     { benchGEMM(bn, resmadeShape, backward, Default().MulBT) }
func BenchmarkTrainGEMMMulBTScalar(bn *testing.B) {
	benchGEMM(bn, resmadeShape, backward, mulBTScalar)
}
func BenchmarkTrainGEMMMulATAdd(bn *testing.B) { benchGEMM(bn, resmadeShape, grad, Default().MulATAdd) }
func BenchmarkTrainGEMMMulATAddScalar(bn *testing.B) {
	benchGEMM(bn, resmadeShape, grad, mulATAddScalar)
}
func BenchmarkTrainGEMMMulDMV(bn *testing.B)   { benchGEMM(bn, dmvOutShape, forward, Mul) }
func BenchmarkTrainGEMMMulBTDMV(bn *testing.B) { benchGEMM(bn, dmvOutShape, backward, Default().MulBT) }
func BenchmarkTrainGEMMMulATAddDMV(bn *testing.B) {
	benchGEMM(bn, dmvOutShape, grad, Default().MulATAdd)
}

// TestMulBatch1SkipZeroBitwise pins the batch-1 zero-activation skip: a
// 1×k row that is mostly exact zeros (the MPSN predicate-embedding shape)
// must multiply bitwise identically to both the scalar reference and the
// dense driver it bypasses, across every kernel tier, including signed-zero
// activations and k values with no zeros at all.
func TestMulBatch1SkipZeroBitwise(t *testing.T) {
	withTier(t, func(t *testing.T, tier string) {
		for _, sh := range []struct {
			k, n     int
			zeroFrac int // a elements zeroed with probability 1/zeroFrac (0 = none)
		}{
			{1, 1, 0}, {64, 96, 2}, {128, 200, 1}, {257, 33, 3}, {96, 128, 0},
		} {
			rng := rand.New(rand.NewSource(int64(sh.k*100 + sh.n)))
			a, b := New(1, sh.k), New(sh.k, sh.n)
			RandUniform(a, 1, rng)
			RandUniform(b, 1, rng)
			for i := range a.Data {
				if sh.zeroFrac > 0 && rng.Intn(sh.zeroFrac) == 0 {
					a.Data[i] = 0
					if rng.Intn(2) == 0 {
						a.Data[i] = float32(math.Copysign(0, -1)) // -0 must be skipped too
					}
				}
			}
			got, want, dense := New(1, sh.n), New(1, sh.n), New(1, sh.n)
			Mul(got, a, b)
			mulScalar(want, a, b)
			bitsEqual(t, "Mul(1×k)", got, want)
			Default().gemmAccum(false, 1, sh.n, sh.k, a.Data, sh.k, 1, b.Data, sh.n, 1, dense.Data, sh.n)
			bitsEqual(t, "Mul(1×k) vs dense driver", got, dense)
		}
	})
}
