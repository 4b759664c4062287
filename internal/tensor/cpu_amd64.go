//go:build amd64

package tensor

// Tiny CPUID shim — the repo carries no external dependencies, so feature
// detection is done directly. Results are computed once at package init.

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register selected by index (XCR0 = 0).
// Only valid when CPUID reports OSXSAVE.
func xgetbv(index uint32) (eax, edx uint32)

var cpuHasAVX2, cpuHasFMA = detectAVX2FMA()

// detectAVX2FMA reports whether AVX2 (and, separately, FMA) can be used:
// the CPU must advertise the feature and the OS must have enabled saving of
// the YMM state (XCR0 bits 1 and 2). Only ExpShift's avx2 kernel uses FMA,
// because its reference, math.Exp, does on the same CPUs; every other kernel
// deliberately does not — a fused multiply-add rounds once where the scalar
// reference rounds twice, which would break the bitwise-equivalence contract
// between tiers.
func detectAVX2FMA() (avx2, fma bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false, false
	}
	if xcr0, _ := xgetbv(0); xcr0&0x6 != 0x6 { // XMM and YMM state enabled
		return false, false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0, ecx1&fmaBit != 0
}
