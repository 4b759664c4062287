package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// The dispatch-tier contract: every tier must produce bitwise-identical
// results to the generic reference for every kernel, across unaligned
// offsets, remainder tails, degenerate lengths and special values (signed
// zeros, infinities, quiet NaNs, denormals). These tests sweep every tier
// available on the host via SetKernelTier, so a plain `go test` on an AVX2
// machine exercises avx2, sse and generic in one pass; CI additionally runs
// the whole suite with DUET_KERNEL=generic forced.

// withTier runs fn once per available tier, restoring the original tier.
func withTier(t *testing.T, fn func(t *testing.T, tier string)) {
	t.Helper()
	orig := KernelTier()
	defer func() {
		if err := SetKernelTier(orig); err != nil {
			t.Fatalf("restoring tier %q: %v", orig, err)
		}
	}()
	for _, tier := range KernelTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatalf("SetKernelTier(%q): %v", tier, err)
		}
		t.Run(tier, func(t *testing.T) { fn(t, tier) })
	}
}

// trickyFloats yields a stream mixing ordinary values with edge cases.
func trickyFloats(rng *rand.Rand, n int) []float32 {
	special := []float32{
		0,
		float32(math.Copysign(0, -1)),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.Float32frombits(0x7FC00000), // quiet NaN
		math.Float32frombits(0x00000001), // smallest denormal
		math.Float32frombits(0x807FFFFF), // largest negative denormal
		math.Float32frombits(0x7F7FFFFF), // max finite
		1, -1, 0.5, -2,
	}
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(8) == 0 {
			out[i] = special[rng.Intn(len(special))]
		} else {
			out[i] = rng.Float32()*4 - 2
		}
	}
	return out
}

func bitsEqualSlices(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs generic %v (%#x)", name, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

var fuzzLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 255, 511, 513}

// TestSaxpyTiersBitwiseMatchGeneric drives every tier's Saxpy over unaligned
// subslices and tails, comparing bits against the generic kernel.
func TestSaxpyTiersBitwiseMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	type caseData struct {
		alpha float32
		x, y  []float32
		want  []float32
	}
	var cases []caseData
	for _, n := range fuzzLengths {
		for off := 0; off < 4; off++ {
			// Backing arrays sized so x[off:off+n] has a deliberately
			// misaligned base relative to the 16/32-byte vector width.
			xb := trickyFloats(rng, n+off)
			yb := trickyFloats(rng, n+off+3)
			alpha := trickyFloats(rng, 1)[0]
			want := append([]float32(nil), yb...)
			saxpyGeneric(alpha, xb[off:off+n], want[off:off+n])
			cases = append(cases, caseData{alpha, xb[off : off+n], yb, want})
		}
	}
	withTier(t, func(t *testing.T, tier string) {
		for ci, c := range cases {
			y := append([]float32(nil), c.y...)
			off := len(c.y) - 3 - len(c.x)
			Saxpy(c.alpha, c.x, y[off:])
			bitsEqualSlices(t, fmt.Sprintf("saxpy case %d (n=%d)", ci, len(c.x)), y, c.want)
		}
	})
}

// TestSaxpyI8TiersBitwiseMatchGeneric does the same for the fused
// dequantize-accumulate kernel.
func TestSaxpyI8TiersBitwiseMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	type caseData struct {
		alpha float32
		q     []int8
		y     []float32
		want  []float32
	}
	var cases []caseData
	for _, n := range fuzzLengths {
		for off := 0; off < 4; off++ {
			qb := make([]int8, n+off)
			for i := range qb {
				qb[i] = int8(rng.Intn(255) - 127)
			}
			yb := trickyFloats(rng, n+off+3)
			alpha := trickyFloats(rng, 1)[0]
			want := append([]float32(nil), yb...)
			saxpyI8Generic(alpha, qb[off:off+n], want[off:off+n])
			cases = append(cases, caseData{alpha, qb[off : off+n], yb, want})
		}
	}
	withTier(t, func(t *testing.T, tier string) {
		for ci, c := range cases {
			y := append([]float32(nil), c.y...)
			off := len(c.y) - 3 - len(c.q)
			SaxpyI8(c.alpha, c.q, y[off:])
			bitsEqualSlices(t, fmt.Sprintf("saxpyI8 case %d (n=%d)", ci, len(c.q)), y, c.want)
		}
	})
}

// TestGEMMTiersBitwiseMatchGeneric checks Mul/MulBT/MulATAdd per tier
// against the generic tier across ragged shapes that exercise full tiles,
// column edges and row edges, and k extents (m for MulATAdd, whose reduction
// runs over a's rows) on both sides of the driver's gemmKC block boundary.
func TestGEMMTiersBitwiseMatchGeneric(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 2}, {7, 5, 3}, {8, 8, 8}, {8, 16, 4}, {9, 7, 9},
		{16, 32, 12}, {17, 33, 9}, {24, 16, 31}, {33, 13, 17},
		{17, gemmKC + 1, 9}, {23, 2*gemmKC + 3, 13}, {2*gemmKC + 3, 13, 23}, {33, 700, 31},
	}
	type golden struct{ mul, mulbt, mulat *Matrix }
	goldens := make([]golden, len(shapes))
	orig := KernelTier()
	defer func() {
		if err := SetKernelTier(orig); err != nil {
			t.Fatalf("restoring tier %q: %v", orig, err)
		}
	}()
	if err := SetKernelTier("generic"); err != nil {
		t.Fatal(err)
	}
	for si, sh := range shapes {
		a, b := randMats(sh.m, sh.k, sh.n, false, int64(si*101+7))
		g := golden{mul: New(sh.m, sh.n), mulbt: New(sh.m, sh.n), mulat: New(sh.k, sh.n)}
		Mul(g.mul, a, b)
		abt, bbt := randMats(sh.m, sh.k, sh.n, true, int64(si*203+11))
		MulBT(g.mulbt, abt, bbt)
		ga, _ := randMats(sh.m, sh.k, sh.n, false, int64(si*307+13))
		_, gb := randMats(sh.n, sh.m, sh.n, false, int64(si*401+17)) // m×n gradient
		RandUniform(g.mulat, 1, rand.New(rand.NewSource(int64(si))))
		gm := g.mulat.Clone()
		MulATAdd(gm, ga, gb)
		goldens[si].mul, goldens[si].mulbt, goldens[si].mulat = g.mul, g.mulbt, gm
	}
	withTier(t, func(t *testing.T, tier string) {
		for si, sh := range shapes {
			a, b := randMats(sh.m, sh.k, sh.n, false, int64(si*101+7))
			got := New(sh.m, sh.n)
			Mul(got, a, b)
			bitsEqual(t, fmt.Sprintf("Mul %dx%dx%d", sh.m, sh.k, sh.n), got, goldens[si].mul)

			abt, bbt := randMats(sh.m, sh.k, sh.n, true, int64(si*203+11))
			got = New(sh.m, sh.n)
			MulBT(got, abt, bbt)
			bitsEqual(t, fmt.Sprintf("MulBT %dx%dx%d", sh.m, sh.k, sh.n), got, goldens[si].mulbt)

			ga, _ := randMats(sh.m, sh.k, sh.n, false, int64(si*307+13))
			_, gb := randMats(sh.n, sh.m, sh.n, false, int64(si*401+17))
			got = New(sh.k, sh.n)
			RandUniform(got, 1, rand.New(rand.NewSource(int64(si))))
			MulATAdd(got, ga, gb)
			bitsEqual(t, fmt.Sprintf("MulATAdd %dx%dx%d", sh.m, sh.k, sh.n), got, goldens[si].mulat)
		}
	})
}

func TestKernelTierAPI(t *testing.T) {
	tiers := KernelTiers()
	if len(tiers) == 0 || tiers[len(tiers)-1] != "generic" {
		t.Fatalf("KernelTiers() = %v, want generic last", tiers)
	}
	if got := KernelTier(); got == "" {
		t.Fatal("KernelTier() empty")
	}
	if err := SetKernelTier("no-such-tier"); err == nil {
		t.Fatal("SetKernelTier accepted an unknown tier")
	}
	// The DUET_KERNEL override is honored when it names a real tier; the
	// init-time path is the same lookup, so checking the env var is
	// documented behavior is enough here (CI forces DUET_KERNEL=generic
	// for a full separate pass).
	if env := os.Getenv("DUET_KERNEL"); env != "" {
		found := false
		for _, tier := range tiers {
			if tier == env {
				found = true
			}
		}
		if found && KernelTier() != env {
			t.Fatalf("DUET_KERNEL=%q but active tier is %q", env, KernelTier())
		}
	}
}

func TestQuantizeI8S(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 8, 64, 513} {
		src := make([]float32, n)
		for i := range src {
			src[i] = rng.Float32()*8 - 4
		}
		dst := make([]int8, n)
		scale := QuantizeI8S(dst, src)
		if n == 0 {
			continue
		}
		if scale < 0 {
			t.Fatalf("negative scale %v", scale)
		}
		sawFull := false
		for i, q := range dst {
			if q < -127 || q > 127 {
				t.Fatalf("q[%d] = %d out of range", i, q)
			}
			if q == 127 || q == -127 {
				sawFull = true
			}
			back := scale * float32(q)
			if err := math.Abs(float64(back - src[i])); err > float64(scale)/2*1.0001 {
				t.Fatalf("dequant error %v at %d exceeds scale/2 = %v", err, i, scale/2)
			}
		}
		if !sawFull {
			t.Fatalf("max-magnitude element did not map to ±127")
		}
	}
	// All-zero input: scale 0, all-zero codes.
	dst := []int8{1, 2, 3}
	if scale := QuantizeI8S(dst, []float32{0, 0, 0}); scale != 0 {
		t.Fatalf("zero input scale = %v", scale)
	}
	for i, q := range dst {
		if q != 0 {
			t.Fatalf("zero input q[%d] = %d", i, q)
		}
	}
}

// Per-tier throughput benches; benchmark/ reports the active tier's kernels
// as tensor.saxpy_gb_s, tensor.saxpy_i8_gb_s and tensor.gemm_gflop_s.
func BenchmarkSaxpyTier(b *testing.B) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	x := make([]float32, 512)
	y := make([]float32, 512)
	for i := range x {
		x[i] = float32(i)
	}
	for _, tier := range KernelTiers() {
		b.Run(tier, func(b *testing.B) {
			if err := SetKernelTier(tier); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(x)) * 4)
			for i := 0; i < b.N; i++ {
				Saxpy(0.5, x, y)
			}
		})
	}
}

func BenchmarkSaxpyI8Tier(b *testing.B) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	q := make([]int8, 512)
	y := make([]float32, 512)
	for i := range q {
		q[i] = int8(i%255 - 127)
	}
	for _, tier := range KernelTiers() {
		b.Run(tier, func(b *testing.B) {
			if err := SetKernelTier(tier); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(q)))
			for i := 0; i < b.N; i++ {
				SaxpyI8(0.5, q, y)
			}
		})
	}
}

func BenchmarkTrainGEMMMulTier(b *testing.B) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	for _, tier := range KernelTiers() {
		b.Run(tier, func(b *testing.B) {
			if err := SetKernelTier(tier); err != nil {
				b.Fatal(err)
			}
			benchGEMM(b, resmadeShape, forward, Mul)
		})
	}
}
