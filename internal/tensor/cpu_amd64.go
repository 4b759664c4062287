//go:build amd64

package tensor

// Tiny CPUID shim — the repo carries no external dependencies, so feature
// detection is done directly, once, by archKernels at package init.

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the extended control register selected by index (XCR0 = 0).
// Only valid when CPUID reports OSXSAVE.
func xgetbv(index uint32) (eax, edx uint32)

// The feature bits amd64Tiers decides on.
const (
	fmaBit     = 1 << 12 // CPUID.1:ECX
	osxsaveBit = 1 << 27 // CPUID.1:ECX
	avxBit     = 1 << 28 // CPUID.1:ECX
	avx2Bit    = 1 << 5  // CPUID.(7,0):EBX
	avx512FBit = 1 << 16 // CPUID.(7,0):EBX
	xcr0YMM    = 0x6     // XCR0: XMM and YMM state
	xcr0ZMM    = 0xe0    // XCR0: opmask, ZMM0–15 upper halves, ZMM16–31
)

// archKernels reads CPUID leaves 1 and 7 and, when the OS has enabled
// XSAVE, XCR0, and hands the three words to amd64Tiers.
func archKernels() []kernel {
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ = cpuid(1, 0)
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&osxsaveBit != 0 {
		xcr0, _ = xgetbv(0)
	}
	return amd64Tiers(ecx1, ebx7, xcr0)
}

// amd64Tiers lists the amd64 tiers a host with these CPUID.1:ECX,
// CPUID.(7,0):EBX and XCR0 words can run, best first. A tier needs the CPU
// to advertise its instructions and the OS to save their registers across
// context switches:
//   - avx2: OSXSAVE, AVX and AVX2, with XMM and YMM state enabled in XCR0.
//     Its ExpShift kernel runs only with FMA as well (see kernels.go).
//   - avx512: avx2's conditions plus AVX512F, with opmask and both ZMM
//     states enabled (XCR0 bits 5–7). Hypervisors may advertise AVX512F
//     and leave them off.
//   - sse: always; it is part of the amd64 baseline.
//
// Picking a tier the host cannot run is a SIGILL on the first kernel call,
// not a slow path, so this is a pure function of the three words, and the
// tests plant them.
func amd64Tiers(ecx1, ebx7, xcr0 uint32) []kernel {
	tiers := []kernel{sseKernel}
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 || xcr0&xcr0YMM != xcr0YMM || ebx7&avx2Bit == 0 {
		return tiers
	}
	avx2 := avx2Kernel
	// math.Exp takes its FMA path exactly when the CPU has AVX and FMA.
	fma := ecx1&fmaBit != 0
	if fma {
		avx2.expWidth = 4
	}
	tiers = append([]kernel{avx2}, tiers...)
	if ebx7&avx512FBit == 0 || xcr0&xcr0ZMM != xcr0ZMM {
		return tiers
	}
	avx512 := avx2
	avx512.name = "avx512"
	avx512.gemmTile, avx512.tileN = gemmTile8x32AVX512Asm, 32
	avx512.axpyPanelG, avx512.panelRows = axpyPanel4AVX512Asm, 4
	avx512.nonzeros = nonzerosAVX512Asm
	avx512.passPos, avx512.gather = passIfPositiveAVX512, gatherRowsAVX512Asm
	if fma {
		avx512.expWidth = 8
	}
	return append([]kernel{avx512}, tiers...)
}
