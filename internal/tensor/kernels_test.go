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
// against the generic tier across ragged shapes that exercise full tiles
// (n = 32 is one whole avx512 tile, 33 and 71 leave it ragged), column
// edges and row edges, and k extents (m for MulATAdd, whose reduction runs
// over a's rows) on both sides of the driver's gemmKC block boundary.
func TestGEMMTiersBitwiseMatchGeneric(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 2}, {7, 5, 3}, {8, 8, 8}, {8, 16, 4}, {9, 7, 9},
		{16, 32, 12}, {17, 33, 9}, {24, 16, 31}, {33, 13, 17},
		{17, gemmKC + 1, 9}, {23, 2*gemmKC + 3, 13}, {2*gemmKC + 3, 13, 23}, {33, 700, 31},
		{8, 16, 32}, {16, 40, 33}, {19, gemmKC + 7, 71},
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
		Default().MulBT(g.mulbt, abt, bbt)
		ga, _ := randMats(sh.m, sh.k, sh.n, false, int64(si*307+13))
		_, gb := randMats(sh.n, sh.m, sh.n, false, int64(si*401+17)) // m×n gradient
		RandUniform(g.mulat, 1, rand.New(rand.NewSource(int64(si))))
		gm := g.mulat.Clone()
		Default().MulATAdd(gm, ga, gb)
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
			Default().MulBT(got, abt, bbt)
			bitsEqual(t, fmt.Sprintf("MulBT %dx%dx%d", sh.m, sh.k, sh.n), got, goldens[si].mulbt)

			ga, _ := randMats(sh.m, sh.k, sh.n, false, int64(si*307+13))
			_, gb := randMats(sh.n, sh.m, sh.n, false, int64(si*401+17))
			got = New(sh.k, sh.n)
			RandUniform(got, 1, rand.New(rand.NewSource(int64(si))))
			Default().MulATAdd(got, ga, gb)
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
	// An unavailable DUET_KERNEL name falls back silently, so say which
	// tiers this host has: a log without avx512 never ran its tile.
	t.Logf("tiers %v, active %s", tiers, KernelTier())
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

// FuzzGEMMTile checks the active tier's GEMM register tile against
// gemmTileGeneric, run over the same tile in 4x4 pieces, on strides, base
// offsets, k extents (0–300) and raw float bits drawn from the input: NaNs
// of any payload and both infinities included. Every bit must match except
// a NaN's payload (kernels.go says why). Cells of c outside the tile must
// come back untouched.
func FuzzGEMMTile(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 44, 5, 3, 7, 1, 2, 3, 0x7f, 0xc0, 0, 1, 0xff, 0x80, 0, 0, 0x80, 0, 0, 0})
	f.Add([]byte{2, 255, 9, 0, 15, 8, 9, 10, 0x7f, 0x80, 0, 0, 0x7f, 0x80, 0, 1, 0x7f, 0x7f, 0xff, 0xff})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		tm, tn := gemmTileM, gemmTileN
		kn := (int(data[0])<<8 | int(data[1])) % 301
		// a is read k-contiguous (ras >= kn) or row-contiguous (kas >= tm),
		// as the driver calls it, or with the input's strides as they come.
		ras, kas := max(kn, 1)+int(data[2]%5), 1
		switch data[3] % 3 {
		case 1:
			ras, kas = 1, tm+int(data[2]%5)
		case 2:
			ras, kas = int(data[2]%17), int(data[3]%13)
		}
		ldb, ldc := tn+int(data[4]%9), tn+int(data[5]%9)
		offA, offB, offC := int(data[6]%16), int(data[7]%16), int(data[5]/16)
		data = data[8:]
		float := func() float32 {
			var v uint32
			for i := 0; i < 4 && len(data) > 0; i++ {
				v = v<<8 | uint32(data[0])
				data = data[1:]
			}
			return math.Float32frombits(v)
		}
		fill := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = float()
			}
			return s
		}
		a := fill(offA + (tm-1)*ras + max(kn-1, 0)*kas + 1)
		b := fill(offB + max(kn-1, 0)*ldb + tn)
		c := fill(offC + (tm-1)*ldc + tn + 3)
		want := append([]float32(nil), c...)
		for i := 0; i < tm; i += 4 {
			for j := 0; j < tn; j += 4 {
				gemmTileGeneric(a[offA+i*ras:], ras, kas, b[offB+j:], ldb, want[offC+i*ldc+j:], ldc, kn)
			}
		}
		gemmTileImpl(a[offA:], ras, kas, b[offB:], ldb, c[offC:], ldc, kn)
		for x := range want {
			if math.Float32bits(c[x]) != math.Float32bits(want[x]) && !(c[x] != c[x] && want[x] != want[x]) {
				t.Fatalf("tier %s, %dx%d tile, kn %d, ras %d, kas %d, ldb %d, ldc %d: c[%d] is %#x, generic %#x",
					KernelTier(), tm, tn, kn, ras, kas, ldb, ldc, x, math.Float32bits(c[x]), math.Float32bits(want[x]))
			}
		}
	})
}

// BenchmarkTrainGEMMTier runs the three GEMMs of a layer on every tier, at
// the ResMADE-128 and the DMV output-layer shapes of BenchmarkTrainGEMM*
// (matmul_test.go), best tier first. `make bench-train` prints it.
func BenchmarkTrainGEMMTier(b *testing.B) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	gemms := []struct {
		name string
		pick func(layerMats) (dst, a, b *Matrix)
		gemm func(dst, a, b *Matrix)
	}{{"Mul", forward, Mul}, {"MulBT", backward, Default().MulBT}, {"MulATAdd", grad, Default().MulATAdd}}
	for _, tier := range KernelTiers() {
		for _, g := range gemms {
			for _, sh := range []struct {
				suffix string
				shape  gemmShape
			}{{"", resmadeShape}, {"DMV", dmvOutShape}} {
				b.Run(tier+"/"+g.name+sh.suffix, func(b *testing.B) {
					if err := SetKernelTier(tier); err != nil {
						b.Fatal(err)
					}
					benchGEMM(b, sh.shape, g.pick, g.gemm)
				})
			}
		}
	}
}

// finiteFloats yields finite values only, the panel kernels' domain: signed
// zeros, subnormals and both signs, so some products are -0 and land on a
// +0 destination.
func finiteFloats(rng *rand.Rand, n int) []float32 {
	special := []float32{
		0,
		float32(math.Copysign(0, -1)),
		math.Float32frombits(0x00000001), // smallest subnormal
		math.Float32frombits(0x807FFFFF), // largest negative subnormal
		1, -1, 0.5, -2, 1e-30, -1e30,
	}
	out := make([]float32, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = special[rng.Intn(len(special))]
		} else {
			out[i] = rng.Float32()*4 - 2
		}
	}
	return out
}

// panelCase is one AxpyPanel/AxpyPanelI8 call: terms over ascending rows of
// a panel with the given stride, into a destination of width columns.
type panelCase struct {
	width, stride int
	a, y          []float32 // a, one activation per panel row, doubles as AxpyPanelI8's x
	k             []int32
	panel         []float32
	codes         []int8
	scale         []float32
}

// run applies the f32 kernel (i8 false) or the int8 one to a copy of c.y
// through fn and returns the result.
func (c *panelCase) run(i8 bool, f32 axpyPanelFunc, q axpyPanelI8Func) []float32 {
	y := append([]float32(nil), c.y...)
	if i8 {
		q(y, c.a, c.k, c.scale, c.codes, c.stride)
	} else {
		f32(y, c.a, c.k, c.panel, c.stride)
	}
	return y
}

func newPanelCase(rng *rand.Rand, width, terms int, zeroY bool) panelCase {
	c := panelCase{width: width, stride: (width + 7) &^ 7}
	if rng.Intn(3) == 0 {
		c.stride += 8 * (1 + rng.Intn(3))
	}
	rows := terms + rng.Intn(terms+2)
	for u := 0; u < rows && len(c.k) < terms; u++ {
		if rows-u <= terms-len(c.k) || rng.Intn(2) == 0 {
			c.k = append(c.k, int32(u))
		}
	}
	c.a = finiteFloats(rng, rows)
	c.y = make([]float32, width)
	if !zeroY {
		c.y = finiteFloats(rng, width)
	}
	c.panel = finiteFloats(rng, rows*c.stride)
	c.codes = make([]int8, len(c.panel))
	for i := range c.codes {
		if rng.Intn(4) != 0 {
			c.codes[i] = int8(rng.Intn(255) - 127)
		}
	}
	c.scale = finiteFloats(rng, rows)
	return c
}

// TestAxpyPanelTiersBitwiseMatchGeneric: every tier's panel kernels, f32 and
// int8, agree bit for bit with the generic loops at every width up to a
// 64-column panel (the strips and the ragged tail), over 0–300 terms, on a
// +0 destination and on a live one.
func TestAxpyPanelTiersBitwiseMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var cases []panelCase
	for width := 1; width <= 64; width++ {
		for _, terms := range []int{0, 1, 2, 3, 7, 8, 31, 64, 100, 255, 300} {
			if width%8 != 0 && terms > 64 && width%3 != 0 {
				continue // ragged widths: a sample of the long lists is enough
			}
			cases = append(cases, newPanelCase(rng, width, terms, rng.Intn(2) == 0))
		}
	}
	withTier(t, func(t *testing.T, tier string) {
		for ci, c := range cases {
			for _, i8 := range []bool{false, true} {
				want := c.run(i8, axpyPanelGeneric, axpyPanelI8Generic)
				got := c.run(i8, AxpyPanel, AxpyPanelI8)
				bitsEqualSlices(t, fmt.Sprintf("case %d (width %d, stride %d, %d terms, int8 %v)", ci, c.width, c.stride, len(c.k), i8), got, want)
			}
		}
	})
}

func TestAxpyPanelChecksArguments(t *testing.T) {
	y := make([]float32, 8)
	panel := make([]float32, 16)
	for name, call := range map[string]func(){
		"stride not a multiple of 8": func() { AxpyPanel(y, []float32{1}, []int32{0}, panel, 12) },
		"width above stride":         func() { AxpyPanel(make([]float32, 16), []float32{1}, []int32{0}, panel, 8) },
		"row past the panel":         func() { AxpyPanel(y, []float32{1}, []int32{2}, panel, 8) },
		"negative row":               func() { AxpyPanel(y, []float32{1, 1}, []int32{-1, 0}, panel, 8) },
		"unit past the scales":       func() { AxpyPanelI8(y, []float32{1, 1}, []int32{1}, []float32{1}, make([]int8, 16), 8) },
		"unit past the activations":  func() { AxpyPanel(y, []float32{1}, []int32{1}, panel, 8) },
		"group row past y":           func() { AxpyPanelRows(y, 8, panel, 8, []int32{0, 1}, 8, []int32{0}, panel, 8) },
		"group row past a":           func() { AxpyPanelRows(panel, 8, y, 8, []int32{0, 1}, 8, []int32{0}, panel, 8) },
		"negative group row":         func() { AxpyPanelRows(panel, 8, panel, 8, []int32{-1}, 8, []int32{0}, panel, 8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzAxpyPanel checks the active tier's panel kernels against the generic
// loops on shapes and values drawn from the input: the width (1–64), the
// stride padding, the rows listed and every float's bits (non-finite bit
// patterns are folded to finite ones, the kernels' domain).
func FuzzAxpyPanel(f *testing.F) {
	f.Add([]byte{63, 0, 5, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 1, 200, 0x80, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add([]byte{31, 2, 17, 0xff, 0x7f, 0x80, 0x80, 0x00, 0x01, 0x00, 0x00})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		width := 1 + int(data[0])%64
		stride := (width+7)&^7 + 8*int(data[1]%3)
		mask, data := data[2], data[3:]
		next := func() uint32 {
			var v uint32
			for i := 0; i < 4 && len(data) > 0; i++ {
				v = v<<8 | uint32(data[0])
				data = data[1:]
			}
			return v
		}
		float := func() float32 {
			v := math.Float32frombits(next())
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = math.Float32frombits(math.Float32bits(v) &^ (1 << 30))
			}
			return v
		}
		// Rows 0..rows-1, each listed when its bit of the cycling mask is set.
		rows := 1 + len(data)/(2*stride+8)
		c := panelCase{width: width, stride: stride, y: make([]float32, width)}
		c.a = make([]float32, rows)
		for u := 0; u < rows; u++ {
			if mask>>(u%8)&1 != 0 || mask == 0 {
				c.k = append(c.k, int32(u))
				c.a[u] = float()
			}
		}
		for j := range c.y {
			if mask&1 != 0 {
				c.y[j] = float()
			}
		}
		c.panel = make([]float32, rows*stride)
		c.codes = make([]int8, rows*stride)
		c.scale = make([]float32, rows)
		for i := range c.panel {
			c.panel[i] = float()
			c.codes[i] = int8(next())
		}
		for u := range c.scale {
			c.scale[u] = float()
		}
		for _, i8 := range []bool{false, true} {
			want := c.run(i8, axpyPanelGeneric, axpyPanelI8Generic)
			got := c.run(i8, AxpyPanel, AxpyPanelI8)
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("tier %s, int8 %v, width %d, stride %d, rows %v: column %d is %v, generic %v",
						KernelTier(), i8, width, stride, c.k, j, got[j], want[j])
				}
			}
		}
	})
}

// groupCase is one AxpyPanelRows call: rows of a y and an a matrix that
// share a list of ascending panel rows.
type groupCase struct {
	width, stride, ldy, lda int
	rows, k                 []int32
	y, a, panel             []float32
}

// run applies AxpyPanelRows to a copy of c.y, or with oneByOne each row
// through the generic one-row loop, and returns the whole matrix.
func (c *groupCase) run(oneByOne bool) []float32 {
	y := append([]float32(nil), c.y...)
	if !oneByOne {
		AxpyPanelRows(y, c.ldy, c.a, c.lda, c.rows, c.width, c.k, c.panel, c.stride)
		return y
	}
	for _, r := range c.rows {
		axpyPanelGeneric(y[int(r)*c.ldy:][:c.width], c.a[int(r)*c.lda:], c.k, c.panel, c.stride)
	}
	return y
}

func (c *groupCase) check(t *testing.T, name string) {
	t.Helper()
	bitsEqualSlices(t, fmt.Sprintf("%s (tier %s, %d rows %v, width %d, stride %d, units %v)",
		name, KernelTier(), len(c.rows), c.rows, c.width, c.stride, c.k), c.run(false), c.run(true))
}

// TestAxpyPanelRowsTiersBitwiseMatchGeneric: every tier's group kernel
// agrees bit for bit with the generic loop run row by row, at every strip
// width up to 64 (ragged ones included), over groups of 1–9 rows (whole
// groups of the tier's PanelRows and a remainder), on a +0 destination and
// on a live one, with ±0 activations at some listed units as a union list
// has, and nothing outside the strips written.
func TestAxpyPanelRowsTiersBitwiseMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var cases []groupCase
	for width := 1; width <= 64; width++ {
		for _, terms := range []int{0, 1, 5, 64, 200} {
			pc := newPanelCase(rng, width, terms, false)
			units := len(pc.panel) / pc.stride
			c := groupCase{width: width, stride: pc.stride, k: pc.k, panel: pc.panel,
				ldy: width + rng.Intn(9), lda: units + rng.Intn(9)}
			n := 1 + rng.Intn(9)
			for r := 0; len(c.rows) < n; r++ {
				if rng.Intn(3) != 0 {
					c.rows = append(c.rows, int32(r))
				}
			}
			last := int(c.rows[n-1]) + 1
			c.a = finiteFloats(rng, last*c.lda)
			for i := range c.a {
				if rng.Intn(3) == 0 {
					c.a[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
				}
			}
			c.y = make([]float32, last*c.ldy)
			if rng.Intn(2) == 0 {
				c.y = finiteFloats(rng, len(c.y))
			}
			cases = append(cases, c)
		}
	}
	withTier(t, func(t *testing.T, tier string) {
		for ci, c := range cases {
			c.check(t, fmt.Sprintf("case %d", ci))
		}
	})
}

// FuzzAxpyPanelRows checks the active tier's AxpyPanelRows against the
// generic one-row loop on every row, on shapes and values drawn from the
// input: the group size (1–4), the strip width (1–64), the stride padding,
// the gaps between rows and the row strides, the units listed, and every
// float's bits (non-finite patterns folded to finite ones); a cycling mask
// makes some activations at listed units ±0, as a union list's are.
func FuzzAxpyPanelRows(f *testing.F) {
	f.Add([]byte{3, 63, 0, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 39, 1, 0xa5, 1, 0x80, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0})
	f.Add([]byte{2, 26, 2, 17, 2, 0xff, 0x7f, 0x80, 0x80, 0x00, 0x01, 0x00, 0x00})
	f.Add([]byte{0, 7, 0, 0xff, 0, 0x3f, 0x80, 0, 0, 0xbf, 0x80, 0, 0})
	f.Add(make([]byte, 96))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n, width := 1+int(data[0])%4, 1+int(data[1])%64
		stride := (width+7)&^7 + 8*int(data[2]%3)
		mask, gap, data := data[3], 1+int(data[4]%3), data[5:]
		next := func() uint32 {
			var v uint32
			for i := 0; i < 4 && len(data) > 0; i++ {
				v = v<<8 | uint32(data[0])
				data = data[1:]
			}
			return v
		}
		float := func() float32 {
			v := math.Float32frombits(next())
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = math.Float32frombits(math.Float32bits(v) &^ (1 << 30))
			}
			return v
		}
		units := 1 + len(data)/(4*stride+16)
		c := groupCase{width: width, stride: stride, ldy: width + gap, lda: units + gap}
		for u := 0; u < units; u++ {
			if mask>>(u%8)&1 != 0 || mask == 0 {
				c.k = append(c.k, int32(u))
			}
		}
		for i := 0; i < n; i++ {
			c.rows = append(c.rows, int32(i*gap))
		}
		last := int(c.rows[n-1]) + 1
		c.a = make([]float32, last*c.lda)
		for _, r := range c.rows {
			for _, u := range c.k {
				v := float()
				if mask>>((int(r)+int(u))%8)&1 == 0 { // a ±0 at a union unit
					v = float32(math.Copysign(0, float64(v)))
				}
				c.a[int(r)*c.lda+int(u)] = v
			}
		}
		c.y = make([]float32, last*c.ldy)
		if mask&1 != 0 {
			for j := range c.y {
				c.y[j] = float()
			}
		}
		c.panel = make([]float32, units*stride)
		for i := range c.panel {
			c.panel[i] = float()
		}
		c.check(t, "fuzz")
	})
}

// TestNonzerosTiersMatchGeneric: every tier's Nonzeros lists and masks
// the same entries as the generic loop, at every length up to 300 (whole
// 16-entry chunks and a ragged tail), with ±0, NaN and subnormals in x.
func TestNonzerosTiersMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var xs [][]float32
	for n := 0; n <= 300; n++ {
		x := trickyFloats(rng, n)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			}
		}
		xs = append(xs, x)
	}
	withTier(t, func(t *testing.T, tier string) {
		for _, x := range xs {
			words := (len(x) + 63) / 64
			wantIdx, wantMask := make([]int32, len(x)), make([]uint64, words)
			wantIdx = wantIdx[:nonzerosGeneric(wantIdx, wantMask, x)]
			mask := make([]uint64, words+1)
			for i := range mask {
				mask[i] = ^uint64(0) // stale bits a short x must not leave behind
			}
			idx := Nonzeros(make([]int32, len(x)+3), mask, x)
			if fmt.Sprint(idx) != fmt.Sprint(wantIdx) || fmt.Sprint(mask[:words]) != fmt.Sprint(wantMask) || mask[words] != ^uint64(0) {
				t.Fatalf("len %d: indices %v mask %x, generic %v mask %x", len(x), idx, mask, wantIdx, wantMask)
			}
			if got := Nonzeros(make([]int32, len(x)), nil, x); fmt.Sprint(got) != fmt.Sprint(wantIdx) {
				t.Fatalf("len %d without a mask: %v, generic %v", len(x), got, wantIdx)
			}
		}
	})
}

// BenchmarkAxpyPanelTier prices one 64-column panel pass per tier, every row
// listed, with the panel sized to sit in L1, in a 256 KB L2-sized slab (the
// DMV plan's widest output block) and in 2 MB: one row (f32, i8), and four
// rows sharing the list through AxpyPanelRows (f32x4, one row at a time
// except on avx512). It reports GMAC/s; compare BenchmarkSaxpyTier, which
// loads and stores its destination per term.
func BenchmarkAxpyPanelTier(b *testing.B) {
	orig := KernelTier()
	defer SetKernelTier(orig)
	const width = 64
	for _, tier := range KernelTiers() {
		for _, ws := range []struct {
			name  string
			bytes int
		}{{"l1", 16 << 10}, {"256k", 256 << 10}, {"2m", 2 << 20}} {
			for _, kind := range []string{"f32", "f32x4", "i8"} {
				rows := ws.bytes / (4 * width)
				if kind == "i8" {
					rows = ws.bytes / width
				}
				b.Run(fmt.Sprintf("%s/%s/%s", tier, kind, ws.name), func(b *testing.B) {
					if err := SetKernelTier(tier); err != nil {
						b.Fatal(err)
					}
					rng := rand.New(rand.NewSource(1))
					normal := func(n int) []float32 { // no subnormal operands, whose assists would dominate
						v := make([]float32, n)
						for i := range v {
							v[i] = rng.Float32() + 0.5
						}
						return v
					}
					c := panelCase{stride: width, a: normal(4 * rows), panel: normal(rows * width), codes: make([]int8, rows*width), scale: normal(rows)}
					for u := range c.codes {
						c.codes[u] = int8(rng.Intn(255) - 127)
					}
					for u := 0; u < rows; u++ {
						c.k = append(c.k, int32(u))
					}
					y := make([]float32, 4*width)
					group, macs := []int32{0, 1, 2, 3}, rows*width
					for i := 0; i < b.N; i++ {
						switch kind {
						case "f32":
							AxpyPanel(y[:width], c.a, c.k, c.panel, c.stride)
						case "f32x4":
							AxpyPanelRows(y, width, c.a, rows, group, width, c.k, c.panel, c.stride)
						default:
							AxpyPanelI8(y[:width], c.a, c.k, c.scale, c.codes, c.stride)
						}
					}
					if kind == "f32x4" {
						macs *= len(group)
					}
					b.ReportMetric(float64(b.N)*float64(macs)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
				})
			}
		}
	}
}
