package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// checkExpShift runs ExpShift over x on the active tier, through a
// destination offset by one element so no tier relies on alignment, and
// holds every element to math.Exp(float64(x[i]) - c) bit for bit.
func checkExpShift(t *testing.T, x []float32, c float64) {
	t.Helper()
	buf := make([]float64, len(x)+2)
	dst := buf[1 : len(x)+1]
	buf[len(x)+1] = 42
	ExpShift(dst, x, c)
	if buf[len(x)+1] != 42 {
		t.Fatalf("ExpShift(len %d, c %v) wrote past len(x)", len(x), c)
	}
	for i, v := range x {
		want := math.Exp(float64(v) - c)
		if math.Float64bits(dst[i]) != math.Float64bits(want) {
			t.Fatalf("ExpShift(len %d, c %v)[%d]: x=%v (x-c=%v) got %v (%#x), math.Exp %v (%#x)",
				len(x), c, i, v, float64(v)-c, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
}

// expArgs returns n float32 values whose differences from c cover the
// kernel's range (-708, 708), both of its edges, the subnormal and zero
// results below it and the overflow above, plus signed zeros, infinities
// and NaN.
func expArgs(rng *rand.Rand, n int, c float64) []float32 {
	edges := []float64{-708, 708, -745.2, -745.1, 709.78, 709.79, -1075}
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	x := make([]float32, n)
	for i := range x {
		switch rng.Intn(6) {
		case 0:
			x[i] = special[rng.Intn(len(special))]
		case 1: // within a few float32 ulps of an edge of the kernel's range
			v := float32(edges[rng.Intn(len(edges))] + c)
			for s := rng.Intn(7) - 3; s != 0; s -= sign(s) {
				v = math.Nextafter32(v, float32(math.Inf(sign(s))))
			}
			x[i] = v
		case 2: // results from normal down to subnormal and zero
			x[i] = float32(c - 700 - 60*rng.Float64())
		default:
			x[i] = float32(c + 1500*rng.Float64() - 750)
		}
	}
	return x
}

func sign(s int) int {
	if s < 0 {
		return -1
	}
	return 1
}

// TestExpShiftMatchesMathExp holds ExpShift on every tier the host has to
// math.Exp, bit for bit: every length 0..67 (the kernel's groups and
// tails), shifts from 0 to ±700 and ±Inf, and a dense sweep of the range
// the softmax callers feed it.
func TestExpShiftMatchesMathExp(t *testing.T) {
	shifts := []float64{0, 1.5, -3.25, 700, -700, 1e6, math.Inf(1), math.Inf(-1), math.NaN()}
	withTier(t, func(t *testing.T, _ string) {
		rng := rand.New(rand.NewSource(7))
		for n := 0; n <= 67; n++ {
			for _, c := range shifts {
				checkExpShift(t, expArgs(rng, n, c), c)
			}
		}
		// Softmax shapes: logits a few units below their max.
		sweep := make([]float32, 1<<16)
		for i := range sweep {
			sweep[i] = float32(40*rng.Float64() - 40)
		}
		checkExpShift(t, sweep, 0)
		checkExpShift(t, sweep, -1.0/3)
	})
}

// FuzzExpShift holds every tier's ExpShift to math.Exp on fuzzed inputs.
// Each 4 bytes is one element: raw float32 bits when the low bit is clear,
// else a value in ±1024 so most lanes land inside the kernel's range.
func FuzzExpShift(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0x44, 0x31, 0, 0, 0xc4, 0x31, 0, 1, 0x7f, 0xc0, 0, 0}, 0.0)
	f.Add([]byte{0x12, 0x34, 0x56, 0x79, 0x80, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x80, 0, 0, 0xff, 0x80, 0, 0}, 12.5)
	f.Add(make([]byte, 68), -708.0)
	f.Add([]byte{1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}, math.Inf(-1))
	f.Fuzz(func(t *testing.T, data []byte, c float64) {
		x := make([]float32, len(data)/4)
		for i := range x {
			u := uint32(data[4*i])<<24 | uint32(data[4*i+1])<<16 | uint32(data[4*i+2])<<8 | uint32(data[4*i+3])
			if u&1 == 0 {
				x[i] = math.Float32frombits(u)
			} else {
				x[i] = float32(int32(u)>>8) / 8192
			}
		}
		orig := KernelTier()
		defer SetKernelTier(orig)
		for _, tier := range KernelTiers() {
			if err := SetKernelTier(tier); err != nil {
				t.Fatal(err)
			}
			checkExpShift(t, x, c)
		}
	})
}
