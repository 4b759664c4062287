package tensor

import (
	"fmt"
	"math"
	"os"
)

// Kernel tier dispatch.
//
// Every hot-path primitive in this package (Saxpy, SaxpyI8, AxpyPanel,
// AxpyPanelI8, AxpyPanelRows, Nonzeros and the blocked GEMM microkernel
// behind Mul/MulBT/MulATAdd) is reached through an impl pointer selected
// once at init from CPU feature detection: "avx512" (avx2 with a 512-bit
// training-GEMM tile, a 4-row panel kernel and a compress-store Nonzeros,
// amd64 with AVX512F), "avx2" (256-bit, amd64 with AVX2), "sse" (128-bit,
// any amd64), "neon" (128-bit, arm64) and "generic" (pure Go, every
// platform).
// DUET_KERNEL=<tier> overrides the choice at startup; SetKernelTier switches
// tiers from tests and benchmarks.
//
// The contract every tier must honor is bitwise equivalence with the generic
// reference: each output element accumulates its k terms in ascending order,
// and every multiply and every add rounds separately to float32. The generic
// loops spell the second half out with explicit float32(...) conversions,
// which the Go spec guarantees are rounding points — so the compiler may not
// contract a*x+y into a fused multiply-add on platforms where it otherwise
// would (arm64). For the same reason the asm tiers use unfused vector
// multiply/add pairs (VMULPS/VADDPS, FMUL/FADD) even when FMA hardware is
// present; FMA's single rounding would diverge from the reference by an ulp.
// A lane rounds the same at every vector width, so the 512-bit pair of the
// avx512 tile keeps the contract exactly as the 256-bit and 128-bit pairs
// do. Tier selection therefore never changes results, only speed. The one
// bit pattern outside the contract is a NaN's payload: when both operands of
// a multiply or an add are NaN, x86 passes the first one's on, and Go's
// compiler orders the generic loops' operands as it likes. Which values are
// NaN is pinned; FuzzGEMMTile holds the tiles to that.
//
// The panel kernels (AxpyPanel, AxpyPanelI8, AxpyPanelRows) hold the same
// contract with a different memory pattern: a strip of up to 64 destination
// columns stays in registers while every listed term is added to it, where
// Saxpy loads and stores its destination once per call. Keeping a value in
// a register instead of storing and reloading it is exact, so a strip's
// element sees the rounded sums the generic loop does, in the same order.
// avx2 and avx512 run one-row strips of 64/32/16/8 columns and sse of
// 32/16/8; neon runs the generic loop. AxpyPanelRows is the group form: a
// group of rows shares one unit list, so each panel row is loaded once for
// the group. avx512 runs it 4 rows × up to 64 columns at a time (its
// PanelRows; a ragged strip's last 16 columns under a mask), every other
// tier one row at a time; either way each row's elements add that row's
// terms in list order, so the group form is bitwise the one-row form row
// by row. A list shared by a group is the
// union of its rows' nonzero units, so a row also adds a[u]·w = ±0 for a
// union unit u where its own activation is ±0; a caller whose destination
// starts at +0 and never becomes −0 gets the sum of its own terms back
// unchanged (made's plan makes that argument). The panel contract covers
// finite inputs, which is all the plan feeds them; the other kernels also
// pin Inf bits and which values are NaN.
//
// ExpShift is the one kernel whose reference is not a loop in this file but
// math.Exp on the same host, and it is the one stated exception to "asm
// tiers never fuse": Go's amd64 math.Exp runs Shibata's SIMD-oriented
// reduction (ISC'10, the SLEEF method) in scalar asm, with FMA where the CPU
// has it. The avx2 kernel runs that instruction sequence four lanes at a
// time, with the same constants, the same VCVTPD2DQ rounding and 2^n
// exponent build, and FMA exactly where math.Exp uses it, so it only runs
// on hosts where math.Exp takes its FMA path; lanes outside (-708, 708) and
// NaNs are recomputed with math.Exp. avx512 runs the same kernel under the
// same flag. Every other tier, and avx2 or avx512 without FMA, runs the
// math.Exp loop. A Go release that changes math.Exp is caught by
// TestExpShiftMatchesMathExp and FuzzExpShift. ExpShift dispatches on a
// flag, not an impl pointer: its callers pass stack buffers, which an
// indirect call would move to the heap.

// gemmTileFunc accumulates a tileM×tileN output tile:
//
//	c[i*ldc+j] += Σ_{k<kn} a[i*ras + k*kas] * b[k*ldb + j]
//
// for i < tileM, j < tileN, walking k in ascending order. The generalized a
// strides (ras between tile rows, kas along k) let one microkernel serve both
// A·B (ras=lda, kas=1) and Aᵀ·B (ras=1, kas=lda) without materializing a
// transpose. Implementations may read only the slice bases; the caller
// guarantees every indexed element is in range and kn >= 0.
type gemmTileFunc func(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int)

// axpyPanelFunc and axpyPanelI8Func are AxpyPanel and AxpyPanelI8 after
// their argument checks (see there). axpyPanelRowsFunc is AxpyPanelRows
// after its checks, for exactly a tier's PanelRows rows.
type (
	axpyPanelFunc     func(y, a []float32, k []int32, panel []float32, stride int)
	axpyPanelI8Func   func(y, x []float32, k []int32, scale []float32, panel []int8, stride int)
	axpyPanelRowsFunc func(y []float32, ldy int, a []float32, lda int, rows []int32, width int, k []int32, panel []float32, stride int)
	nonzerosFunc      func(idx []int32, mask []uint64, x []float32) int
)

// kernel bundles one tier's primitives. saxpy and saxpyI8 process exactly
// len(x) (resp. len(q)) elements; callers guarantee len(y) is at least that.
type kernel struct {
	name         string
	saxpy        func(alpha float32, x, y []float32)
	saxpyI8      func(alpha float32, q []int8, y []float32)
	axpyPanel    axpyPanelFunc
	axpyPanelI8  axpyPanelI8Func
	panelRows    int               // AxpyPanelRows' group size; 0 (one row) when axpyPanelG is nil
	axpyPanelG   axpyPanelRowsFunc // the group kernel, or nil
	nonzeros     nonzerosFunc
	gemmTile     gemmTileFunc
	tileM, tileN int
	expVector    bool // ExpShift runs expShiftVector
}

var genericKernel = kernel{
	name:        "generic",
	saxpy:       saxpyGeneric,
	saxpyI8:     saxpyI8Generic,
	axpyPanel:   axpyPanelGeneric,
	axpyPanelI8: axpyPanelI8Generic,
	nonzeros:    nonzerosGeneric,
	gemmTile:    gemmTileGeneric,
	tileM:       4,
	tileN:       4,
}

// Dispatch state. Written only by setKernel (init, SetKernelTier); the
// impl pointers are copied out so hot paths pay one indirect call, not a
// struct load. Switching tiers is not synchronized with concurrent kernel
// use — it is an init/test/bench-time operation.
var (
	kernelTiers          []kernel // best tier first; "generic" always last
	activeKernel         kernel
	saxpyImpl            func(alpha float32, x, y []float32)
	saxpyI8Impl          func(alpha float32, q []int8, y []float32)
	axpyPanelImpl        axpyPanelFunc
	axpyPanelI8Impl      axpyPanelI8Func
	axpyPanelGImpl       axpyPanelRowsFunc
	panelRows            int
	nonzerosImpl         nonzerosFunc
	gemmTileImpl         gemmTileFunc
	gemmTileM, gemmTileN int
	expVector            bool
)

func init() {
	kernelTiers = append(archKernels(), genericKernel)
	sel := kernelTiers[0]
	if want := os.Getenv("DUET_KERNEL"); want != "" {
		// An unknown name is ignored rather than fatal: init cannot return
		// an error and the best detected tier is always correct. Use
		// SetKernelTier to get an explicit error for a bad name.
		for _, k := range kernelTiers {
			if k.name == want {
				sel = k
				break
			}
		}
	}
	setKernel(sel)
}

func setKernel(k kernel) {
	activeKernel = k
	saxpyImpl = k.saxpy
	saxpyI8Impl = k.saxpyI8
	axpyPanelImpl = k.axpyPanel
	axpyPanelI8Impl = k.axpyPanelI8
	axpyPanelGImpl = k.axpyPanelG
	panelRows = max(1, k.panelRows)
	nonzerosImpl = k.nonzeros
	gemmTileImpl = k.gemmTile
	gemmTileM = k.tileM
	gemmTileN = k.tileN
	expVector = k.expVector
}

// KernelTier reports the name of the tier currently dispatching the SIMD
// kernels: "avx512", "avx2", "sse", "neon" or "generic".
func KernelTier() string { return activeKernel.name }

// KernelTiers lists the tiers available on this CPU, best first. The last
// entry is always "generic".
func KernelTiers() []string {
	names := make([]string, len(kernelTiers))
	for i, k := range kernelTiers {
		names[i] = k.name
	}
	return names
}

// SetKernelTier switches kernel dispatch to the named tier. It is intended
// for tests and benchmarks (and the DUET_KERNEL startup override); it must
// not race with in-flight kernel calls. Unknown or unavailable names return
// an error and leave the active tier unchanged.
func SetKernelTier(name string) error {
	for _, k := range kernelTiers {
		if k.name == name {
			setKernel(k)
			return nil
		}
	}
	return fmt.Errorf("tensor: unknown kernel tier %q (available: %v)", name, KernelTiers())
}

// Saxpy computes y[i] += alpha*x[i] for i < len(x); len(y) must be at least
// len(x). The packed inference plan runs the panel kernels instead; Saxpy
// is serve.CalibrateBudgets' bandwidth probe and the f32 rung of the
// benchmark's kernel ladder (tensor.saxpy_gb_s). The operation is
// elementwise — no horizontal reduction — and every tier rounds the
// multiply and the add separately, so results are identical across tiers.
func Saxpy(alpha float32, x, y []float32) {
	// The reslice enforces len(y) >= len(x) with a panic; the asm tiers
	// loop off len(x) alone and would otherwise write past a short y.
	y = y[:len(x)]
	saxpyImpl(alpha, x, y)
}

// SaxpyI8 computes y[i] += alpha*float32(q[i]) for i < len(q); len(y) must
// be at least len(q). It is the int8 rung of the benchmark's kernel ladder
// (tensor.saxpy_i8_gb_s), a fused dequantize-accumulate: alpha carries the
// caller's activation×scale product and the int8→float32 widening is exact,
// so like Saxpy the result is bitwise identical across tiers.
func SaxpyI8(alpha float32, q []int8, y []float32) {
	y = y[:len(q)]
	saxpyI8Impl(alpha, q, y)
}

// AxpyPanel computes, for j < len(y),
//
//	y[j] += a[k[t]]*panel[k[t]*stride+j]   for t = 0, 1, ..., len(k)-1
//
// with y held in registers across the whole list: one load and one store of
// y per call, however many terms. It is the inner kernel of the packed
// inference plan, whose weights are column panels: panel row u, stride
// floats long, holds input unit u's weights for the panel's columns, and a
// is the layer input's dense row, read only at the listed units. Each
// element adds its terms in list order, rounding every multiply and every
// add separately, so results are identical across tiers.
//
// stride must be a multiple of 8 and at least len(y), k must be ascending,
// and panel must hold row k[len(k)-1] whole: tiers read rows in groups of
// 8 floats, so a ragged len(y) reads into the row's padding. Only the ends of
// k are bounds-checked.
func AxpyPanel(y, a []float32, k []int32, panel []float32, stride int) {
	n := len(k)
	if n == 0 || len(y) == 0 {
		return
	}
	checkPanel(len(y), k, len(panel), stride)
	_ = a[k[n-1]]
	axpyPanelImpl(y, a, k, panel, stride)
}

// AxpyPanelRows is AxpyPanel for a group of rows that share one unit list:
// for each r in rows and j < width,
//
//	y[r*ldy+j] += a[r*lda+k[t]]*panel[k[t]*stride+j]   for t = 0, 1, ..., len(k)-1
//
// y and a are row-major matrices with row strides ldy and lda. Each panel
// row is loaded once per PanelRows rows instead of once per row. Every row's
// elements add the same terms, in the same order and with the same
// roundings, as AxpyPanel on that row alone, so the result is bitwise the
// one-row form's on every tier. The argument rules are AxpyPanel's, per row.
func AxpyPanelRows(y []float32, ldy int, a []float32, lda int, rows []int32, width int, k []int32, panel []float32, stride int) {
	n := len(k)
	if n == 0 || width == 0 {
		return
	}
	checkPanel(width, k, len(panel), stride)
	for _, r := range rows {
		_, _ = y[int(r)*ldy:][width-1], a[int(r)*lda:][k[n-1]]
	}
	if g := panelRows; g > 1 {
		for ; len(rows) >= g; rows = rows[g:] {
			axpyPanelGImpl(y, ldy, a, lda, rows[:g], width, k, panel, stride)
		}
	}
	for _, r := range rows {
		axpyPanelImpl(y[int(r)*ldy:][:width], a[int(r)*lda:], k, panel, stride)
	}
}

// PanelRows is the active tier's AxpyPanelRows group size: how many rows
// share each load of a panel row. It is 4 on avx512 and 1 on every other
// tier, where AxpyPanelRows runs its rows one at a time.
func PanelRows() int { return panelRows }

// AxpyPanelI8 is AxpyPanel over int8 codes with one dequant scale per input
// unit:
//
//	y[j] += (x[k[t]]*scale[k[t]]) * float32(panel[k[t]*stride+j])
//
// where the parenthesized product rounds to float32 once per term, as the
// int8 plan's alpha always has. The int8→float32 widening is exact. The
// argument rules are AxpyPanel's, and x and scale must reach k[len(k)-1].
func AxpyPanelI8(y, x []float32, k []int32, scale []float32, panel []int8, stride int) {
	n := len(k)
	if n == 0 || len(y) == 0 {
		return
	}
	checkPanel(len(y), k, len(panel), stride)
	_, _ = x[k[n-1]], scale[k[n-1]]
	axpyPanelI8Impl(y, x, k, scale, panel, stride)
}

// Nonzeros writes the indices of x's nonzero entries to idx, ascending, and
// returns them; len(idx) must be at least len(x). It is how the plan lists
// a row's units for the panel kernels. When mask is not nil it also sets
// mask to the same entries as bits, bit j of mask[w] for x[64w+j], and
// len(mask) must be at least (len(x)+63)/64; AxpyPanelRows' callers OR
// rows' masks into a group's list. ±0 is zero and NaN is not, as for !=.
func Nonzeros(idx []int32, mask []uint64, x []float32) []int32 {
	idx = idx[:len(x)]
	if mask != nil {
		mask = mask[:(len(x)+63)/64]
		if len(mask) > 0 {
			mask[len(mask)-1] = 0
		}
	}
	return idx[:nonzerosImpl(idx, mask, x)]
}

// ExpShift computes dst[i] = math.Exp(float64(x[i]) - c) for i < len(x),
// bit for bit on every tier; len(dst) must be at least len(x). It is the
// exponential under every softmax: the caller passes the row's maximum as
// c and sums dst itself.
func ExpShift(dst []float64, x []float32, c float64) {
	dst = dst[:len(x)]
	n := 0
	if expVector {
		n = expShiftVector(dst, x, c)
	}
	for i := n; i < len(x); i++ {
		dst[i] = math.Exp(float64(x[i]) - c)
	}
}

func checkPanel(width int, k []int32, panelLen, stride int) {
	if stride%8 != 0 || width > stride || k[0] < 0 || (int(k[len(k)-1])+1)*stride > panelLen {
		panic(fmt.Sprintf("tensor: panel of %d entries, stride %d, cannot serve %d columns of rows %d..%d",
			panelLen, stride, width, k[0], k[len(k)-1]))
	}
}

// Generic reference tier. The explicit float32(...) conversions force the
// intermediate product to round to float32 (a Go-spec guarantee), keeping
// the reference two-rounding on compilers that would otherwise fuse a*x+y
// into a single-rounding FMA (the arm64 backend does).

func saxpyGeneric(alpha float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float32(alpha * v)
	}
}

func saxpyI8Generic(alpha float32, q []int8, y []float32) {
	y = y[:len(q)]
	for i, v := range q {
		y[i] += float32(alpha * float32(v))
	}
}

// axpyPanelGeneric adds the terms one row at a time: each element still
// sees them in list order, which is all the register-held tiers promise.
func axpyPanelGeneric(y, a []float32, k []int32, panel []float32, stride int) {
	for _, u := range k {
		av := a[u]
		row := panel[int(u)*stride:][:len(y)]
		for j, v := range row {
			y[j] += float32(av * v)
		}
	}
}

func axpyPanelI8Generic(y, x []float32, k []int32, scale []float32, panel []int8, stride int) {
	for _, u := range k {
		a := float32(x[u] * scale[u])
		row := panel[int(u)*stride:][:len(y)]
		for j, v := range row {
			y[j] += float32(a * float32(v))
		}
	}
}

// nonzerosGeneric writes every index and keeps the nonzero ones: about half
// of a plan row is zero, in no pattern a branch predictor could learn.
func nonzerosGeneric(idx []int32, mask []uint64, x []float32) int {
	n := 0
	for k, v := range x {
		idx[n] = int32(k)
		if v != 0 {
			n++
		}
	}
	if mask != nil {
		clear(mask)
		for _, u := range idx[:n] {
			mask[u>>6] |= 1 << (u & 63)
		}
	}
	return n
}

// gemmTileGeneric accumulates a 4x4 tile with k outermost, matching the asm
// microkernels' per-element k-ascending accumulation order.
func gemmTileGeneric(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int) {
	for k := 0; k < kn; k++ {
		bRow := b[k*ldb:]
		for i := 0; i < 4; i++ {
			av := a[i*ras+k*kas]
			cRow := c[i*ldc:]
			for j := 0; j < 4; j++ {
				cRow[j] += float32(av * bRow[j])
			}
		}
	}
}
