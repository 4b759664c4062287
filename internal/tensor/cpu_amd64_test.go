//go:build amd64

package tensor

import (
	"slices"
	"testing"
)

// TestAMD64Tiers plants CPUID and XCR0 words: a tier the host cannot run is
// a SIGILL on the first training step, so each condition of amd64Tiers is
// held to the tier list it must give.
func TestAMD64Tiers(t *testing.T) {
	const (
		ecxAVX   = osxsaveBit | avxBit
		ecxAll   = ecxAVX | fmaBit
		ebxAll   = avx2Bit | avx512FBit
		xcr0All  = xcr0YMM | xcr0ZMM | 1 // x87 state too, as every OS sets it
		xcr0NoZ  = xcr0YMM | 1
		xcr0NoHi = xcr0All &^ (1 << 7) // ZMM16–31 not enabled
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             []string
		expWidth         int // the best tier's
	}{
		{"all bits set", ecxAll, ebxAll, xcr0All, []string{"avx512", "avx2", "sse"}, 8},
		{"AVX512F advertised, ZMM state off in XCR0", ecxAll, ebxAll, xcr0NoZ, []string{"avx2", "sse"}, 4},
		{"AVX512F advertised, ZMM16-31 off in XCR0", ecxAll, ebxAll, xcr0NoHi, []string{"avx2", "sse"}, 4},
		{"ZMM state on, no AVX512F", ecxAll, avx2Bit, xcr0All, []string{"avx2", "sse"}, 4},
		{"AVX2 without FMA", ecxAVX, ebxAll, xcr0All, []string{"avx512", "avx2", "sse"}, 0},
		{"AVX2 without OSXSAVE", ecxAll &^ osxsaveBit, ebxAll, xcr0All, []string{"sse"}, 0},
		{"AVX2 without AVX", ecxAll &^ avxBit, ebxAll, xcr0All, []string{"sse"}, 0},
		{"YMM state off in XCR0", ecxAll, ebxAll, xcr0All &^ 0x4, []string{"sse"}, 0},
		{"AVX512F without AVX2", ecxAll, avx512FBit, xcr0All, []string{"sse"}, 0},
		{"nothing", 0, 0, 0, []string{"sse"}, 0},
	} {
		tiers := amd64Tiers(c.ecx1, c.ebx7, c.xcr0)
		var names []string
		for _, k := range tiers {
			names = append(names, k.name)
		}
		if !slices.Equal(names, c.want) {
			t.Errorf("%s: tiers %v, want %v", c.name, names, c.want)
			continue
		}
		if got := tiers[0].expWidth; got != c.expWidth {
			t.Errorf("%s: %s tier's expWidth %d, want %d", c.name, names[0], got, c.expWidth)
		}
		if names[0] == "avx512" && (tiers[0].tileN != 32 || tiers[1].tileN != 8) {
			t.Errorf("%s: tile widths %d and %d, want 32 and 8", c.name, tiers[0].tileN, tiers[1].tileN)
		}
	}
}
