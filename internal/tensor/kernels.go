package tensor

import (
	"fmt"
	"math"
	"os"
)

// Kernel tier dispatch.
//
// Every hot-path primitive in this package (Saxpy, SaxpyI8, AxpyPanel,
// AxpyPanelI8, AxpyPanelRows, Nonzeros, PassIfPositive, the gather behind
// the GEMMs' live regions and the blocked GEMM microkernel behind
// Mul/MulBT/MulATAdd) is reached through an impl pointer selected
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
	// gatherRowsFunc sets dst[r*ldd+q] = src[r*lds+idx[q]] for r < rows and
	// q < len(idx), every index in range: the reordering behind the GEMMs'
	// live regions (gatherRows).
	gatherRowsFunc func(dst []float32, ldd int, src []float32, lds int, idx []int32, rows int)
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
	passPos      func(dst, src, gate []float32) // PassIfPositive after its checks
	gather       gatherRowsFunc
	max          func(x []float32) float32                                   // Max, any length
	addScaled    func(dst []float32, src []float64, s float64)               // AddScaled after its checks
	adam         func(w, g, m, v []float32, b1, b2 float32, lr, eps float64) // AdamUpdate after its checks
	gemmTile     gemmTileFunc
	tileM, tileN int
	expWidth     int // lanes of ExpShift's vector kernel: 0 (none), 4 or 8
}

var genericKernel = kernel{
	name:        "generic",
	saxpy:       saxpyGeneric,
	saxpyI8:     saxpyI8Generic,
	axpyPanel:   axpyPanelGeneric,
	axpyPanelI8: axpyPanelI8Generic,
	nonzeros:    nonzerosGeneric,
	passPos:     passIfPositiveGeneric,
	gather:      gatherRowsGeneric,
	max:         maxGeneric,
	addScaled:   addScaledGeneric,
	adam:        adamGeneric,
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
	passPosImpl          func(dst, src, gate []float32)
	gatherImpl           gatherRowsFunc
	maxImpl              func(x []float32) float32
	addScaledImpl        func(dst []float32, src []float64, s float64)
	adamImpl             func(w, g, m, v []float32, b1, b2 float32, lr, eps float64)
	gemmTileImpl         gemmTileFunc
	gemmTileM, gemmTileN int
	expWidth             int
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
	passPosImpl = k.passPos
	gatherImpl = k.gather
	maxImpl = k.max
	addScaledImpl = k.addScaled
	adamImpl = k.adam
	gemmTileImpl = k.gemmTile
	gemmTileM = k.tileM
	gemmTileN = k.tileN
	expWidth = k.expWidth
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

// PassIfPositive sets dst[i] to src[i] where gate[i] > 0 and to +0
// elsewhere (for -0, negatives and NaN alike), for i < len(gate); dst and
// src must be at least that long. It is ReLU's forward (src = gate = x) and
// backward (src = dY, gate = the forward's output). The result moves bits
// and computes nothing, so every tier gives the same ones: the asm tiers
// compare each lane ordered greater-than zero and AND src with the
// all-ones or all-zeros mask, without a branch per element (a sign test is
// a coin flip on a training batch's activations).
func PassIfPositive(dst, src, gate []float32) {
	n := len(gate)
	passPosImpl(dst[:n], src[:n], gate)
}

// ExpShift computes dst[i] = math.Exp(float64(x[i]) - c) for i < len(x),
// bit for bit on every tier; len(dst) must be at least len(x). It is the
// exponential under Softmax: the caller passes the row's maximum as c and
// sums dst itself.
func ExpShift(dst []float64, x []float32, c float64) {
	cs := [8]float64{c, c, c, c, c, c, c, c}
	expShift(dst[:len(x)], x, cs[:], 0)
}

// ExpShiftLanes is ExpShift with a shift per element: dst[i] =
// math.Exp(float64(x[i]) - c[i]) for i < len(x), bit for bit on every tier;
// dst and c must be at least len(x) long. It runs a row of softmax blocks
// in one call, each lane shifted by its own block's max or log-sum-exp.
func ExpShiftLanes(dst []float64, x []float32, c []float64) {
	expShift(dst[:len(x)], x, c[:len(x)], 1)
}

// expShift subtracts c[i*cstep]: cstep 1 is a shift per lane, and cstep 0
// one shift, held in each of c's eight elements (the vector kernels load a
// register's worth of them).
func expShift(dst []float64, x []float32, c []float64, cstep int) {
	n := 0
	if expWidth > 0 {
		n = expShiftVector(dst, x, c, cstep)
	}
	for i := n; i < len(x); i++ {
		dst[i] = math.Exp(float64(x[i]) - c[i*cstep])
	}
}

// Max returns the largest entry of x as the loop
//
//	m := float32(math.Inf(-1))
//	for _, v := range x {
//		if v > m {
//			m = v
//		}
//	}
//
// finds it: a NaN never wins, and an empty x, or one of only NaN and −Inf,
// gives −Inf. The vector tiers run that loop on each lane and then compare
// the lanes' maxima, which are never NaN, so the result is the loop's value
// on every tier, bit for bit except that a largest value of zero may come
// back as either +0 or −0.
func Max(x []float32) float32 { return maxImpl(x) }

// AddScaled computes dst[i] += float32(src[i]*s) for i < len(dst), bit for
// bit on every tier: a float64 product rounded to float32, then a float32
// add. len(src) must be at least len(dst). It is the softmax gradient's
// accumulate, s the loss's 1/batch.
func AddScaled(dst []float32, src []float64, s float64) {
	addScaledImpl(dst, src[:len(dst)], s)
}

// AdamUpdate applies one Adam step to len(w) parameters, bit for bit on
// every tier: with g the gradient and m, v the moments (each at least
// len(w) long),
//
//	m[i] = b1*m[i] + (1-b1)*g[i]
//	v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
//	w[i] -= float32(lr*float64(m[i]) / (math.Sqrt(float64(v[i])) + eps))
//
// where each float32 multiply and add rounds separately, left to right, and
// the last line runs in float64. lr carries the step's bias corrections.
func AdamUpdate(w, g, m, v []float32, b1, b2 float32, lr, eps float64) {
	n := len(w)
	adamImpl(w, g[:n], m[:n], v[:n], b1, b2, lr, eps)
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

func maxGeneric(x []float32) float32 { return maxFrom(float32(math.Inf(-1)), x) }

// maxFrom is Max's loop from m: a vector tier's maximum of a prefix of x,
// or −Inf.
func maxFrom(m float32, x []float32) float32 {
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m
}

func addScaledGeneric(dst []float32, src []float64, s float64) {
	src = src[:len(dst)]
	for i, p := range src {
		dst[i] += float32(p * s)
	}
}

func adamGeneric(w, g, m, v []float32, b1, b2 float32, lr, eps float64) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	ob1, ob2 := 1-b1, 1-b2
	for i, gi := range g {
		m[i] = float32(b1*m[i]) + float32(ob1*gi)
		v[i] = float32(b2*v[i]) + float32(float32(ob2*gi)*gi)
		w[i] -= float32(lr * float64(m[i]) / (math.Sqrt(float64(v[i])) + eps))
	}
}

// nonzerosGeneric writes every index and keeps the nonzero ones: about half
// of a plan row is zero, in no pattern a branch predictor could learn.
func passIfPositiveGeneric(dst, src, gate []float32) {
	dst, src = dst[:len(gate)], src[:len(gate)]
	for i, g := range gate {
		var m uint32
		if g > 0 {
			m = ^uint32(0)
		}
		dst[i] = math.Float32frombits(math.Float32bits(src[i]) & m)
	}
}

func gatherRowsGeneric(dst []float32, ldd int, src []float32, lds int, idx []int32, rows int) {
	for r := 0; r < rows; r++ {
		d, s := dst[r*ldd:r*ldd+len(idx)], src[r*lds:]
		for q, i := range idx {
			d[q] = s[i]
		}
	}
}

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
