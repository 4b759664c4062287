package tensor

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// matmulGrain is the minimum number of output rows per goroutine chunk.
const matmulGrain = 8

// Blocking of the GEMM driver. gemmKC is the k extent of one block: a
// gemmKC×tileN panel of b (8 KB at avx2's tile width 8, 32 KB at avx512's
// 32) and a tileM×gemmKC slab of a (another 8 KB) sit in L1 while a tile
// runs: half of a 32 KB L1 on avx2, 40 KB of a Sapphire Rapids core's 48 KB
// on avx512. There, 128 was 9–13% slower than 256 on each of the three DMV
// output-layer GEMMs (one worker, medians of six alternating runs) and no
// faster at ResMADE-128. gemmInPlace is the largest k block of a strided
// operand, in floats (gemmKC × its stride along k, 128 KB), that the
// microkernel reads where it lies instead of through a packed copy: a block
// that small is L2-resident and its rows share pages, so the copy costs more
// than the strided loads it would replace. That holds for the 32-wide tile
// too: packing such blocks cut avx512's ResMADE-128 Mul from ~69 to ~56
// GFLOP/s and MulATAdd from ~70 to ~36. The ResMADE-128 layer's operands
// are within it; of the DMV model's, only those of its 128-wide layer.
const (
	gemmKC      = 256
	gemmInPlace = 1 << 15
)

// packPool recycles the per-worker pack scratch of gemmAccum.
var packPool = sync.Pool{New: func() any { return new(Matrix) }}

// gemmAccum is the cache-blocked GEMM driver behind Mul, MulBT and MulATAdd:
//
//	c[i*ldc+j] += Σ_{k<kn} a[i*ras + k*kas] * b[k*kbs + j*jbs]   (i<m, j<n)
//
// or, with zero, c[i*ldc+j] = Σ...: each worker clears its own rows of c to +0
// before it accumulates into them, so the clear is split like the product.
//
// The generalized strides let one driver compute A·B (ras=lda, kas=1; kbs=ldb,
// jbs=1), Aᵀ·B (ras=1, kas=lda) and A·Bᵀ (kbs=1, jbs=ldb) without a
// transposed copy of either operand; a is always one of the first two
// shapes. Rows are split across workers in whole register tiles. Each worker
// cuts k into blocks of gemmKC and, per block, copies one kb×tileN column
// panel of b at a time into pooled contiguous scratch (ldb = tileN, columns
// past n zero) and runs every row tile of its chunk over that panel, so the
// microkernel's b loads walk 8–32 KB of L1 instead of kb cache lines — and,
// at a training-sized ldb, kb pages — a row stride apart. a is packed k-major
// per k block (the microkernel reads it at ras 1, kas the packed row count)
// only where it should not be read in place: all of the worker's rows when a
// is strided along k (MulATAdd), otherwise just a ragged last row tile,
// zero-padded to tileM rows. A strided operand whose k block is within
// gemmInPlace skips the copy: the same loop nest runs with the operand's own
// strides passed through. Edge tiles (rows past m, columns past n) run the
// same microkernel on a padded copy of their c tile, of which only the real
// cells are stored back. The scratch is kc × (tileN + packed rows) + tileM ×
// tileN floats a worker.
//
// None of this can change a bit. The microkernel loads its c tile,
// accumulates k ascending with an unfused multiply and add per term, and
// stores; a float32 store and reload between k blocks is exact, packing moves
// values without touching them, and a padded lane never feeds a real one. So
// every c element sees the same sequence of roundings as the scalar
// reference, on every tier, for every worker split and every block size.
//
// A nil reg is the dense product: exact-zero a elements contribute their
// signed-zero product instead of being skipped, which is what makes the
// register tile (and the int8 path) possible. A region (see Live) skips
// what a masked weight matrix makes dead, and that cannot change a bit of a
// live cell either, for finite operands, by the argument Mul's m == 1 path
// makes: a dead weight is ±0 and stays ±0; an output that starts at +0 and
// adds k-ascending with unfused multiply-adds never becomes -0, so dropping
// ±0 products from its sum changes nothing; and a skipped tile of an
// accumulated product keeps the value it had. It orders c's columns so that
// a panel's columns share a reduction extent, which the panel then runs
// alone (Mul, MulBT), or its rows and columns so that a panel's live rows
// are a prefix of row tiles, which it runs alone (MulATAdd, whose row tiles
// are then split across workers by live tiles, not count). The order only
// changes which cells share a tile: a reordered operand is gathered as it is
// packed, and reordered columns are accumulated in a copy of the chunk's
// rows of c (cp), gathered and scattered once a call; a tile whose
// reordered rows lie a constant step apart is written in place at that
// step. A reduction that is not contiguous stays dense: packing each
// panel's live terms alone would cost more than the MACs it saves.
func (w *Workers) gemmAccum(zero bool, m, n, kn int, a []float32, ras, kas int, b []float32, kbs, jbs int, c []float32, ldc int, reg *region) {
	if m <= 0 || n <= 0 || kn <= 0 {
		if zero && m > 0 && n > 0 {
			clear(c[:(m-1)*ldc+n]) // an empty sum is +0
		}
		return
	}
	tm, tn, tile := gemmTileM, gemmTileN, gemmTileImpl
	kc := min(gemmKC, kn)
	var rows, cols []int32
	if reg != nil {
		rows, cols = reg.rows, reg.cols
	}
	// A panel that is not a run of b's columns is gathered at these offsets.
	var offs []int32
	if jbs != 1 || cols != nil {
		offs = make([]int32, n)
		for q := range offs {
			c := q
			if cols != nil {
				c = int(cols[q])
			}
			offs[q] = int32(c * jbs) // below len(b), which an int32 reaches here
		}
	}
	// Reordered columns are accumulated in cp, a copy of the chunk's rows of
	// c in tile and panel order, ldp wide and padded to whole tiles, so the
	// tiles write it in place and c is gathered and scattered once a call.
	ldp := (n + tn - 1) / tn * tn
	chunk := func(tlo, thi int) {
		lo, hi := tlo*tm, min(thi*tm, m)
		if zero {
			for i := lo; i < hi; i++ {
				r := reg.row(i)
				clear(c[r*ldc : r*ldc+n])
			}
		}
		// Rows from p0 on are read from the packed copy ap: the ragged last
		// tile, or every row when a is strided along k or its rows are
		// reordered.
		p0 := hi - (hi-lo)%tm
		if kas != 1 && kc*kas > gemmInPlace || rows != nil {
			p0 = lo
		}
		pRows := thi*tm - p0
		nc := 0
		if cols != nil {
			nc = (thi*tm - lo) * ldp
		}
		s := packPool.Get().(*Matrix).Resize(1, kc*(tn+pRows)+tm*tn+nc)
		defer packPool.Put(s)
		bp, ap := s.Data[:kc*tn], s.Data[kc*tn:kc*(tn+pRows)]
		ct, cp := s.Data[kc*(tn+pRows):kc*(tn+pRows)+tm*tn], s.Data[kc*(tn+pRows)+tm*tn:]
		clear(ct)
		if cols != nil {
			clear(cp)
			if !zero {
				movePanel(cp, ldp, c, ldc, reg, lo, hi, false)
			}
		}
		for k0 := 0; k0 < kn; k0 += kc {
			kb := min(kc, kn-k0)
			packA(ap[:pRows*kb], pRows, a, ras, kas, m, reg, p0, hi, k0, kb)
			for j := 0; j < n; j += tn {
				w := min(tn, n-j)
				// The panel's live terms within this k block, and its live rows.
				klo, khi := reg.extent(j, w, kn)
				klo, khi = max(klo, k0), min(khi, k0+kb)
				end := min(hi, reg.liveRows(j, w, m))
				if klo >= khi || end <= lo {
					continue
				}
				kk := khi - klo
				bt, ldb := b[klo*kbs+j*jbs:], kbs
				switch {
				case offs != nil:
					packGather(bp[:kk*tn], tn, b[klo*kbs:], kbs, (n-1)*jbs+1, offs[j:j+w])
					bt, ldb = bp, tn
				case kc*kbs > gemmInPlace || w < tn:
					packPanel(bp[:kk*tn], tn, bt, kbs, w)
					bt, ldb = bp, tn
				}
				for i := lo; i < end; i += tm {
					at, lda, ka := a, ras, kas
					if i < p0 {
						at = a[i*ras+klo*kas:]
					} else {
						at, lda, ka = ap[(klo-k0)*pRows+i-p0:], 1, pRows
					}
					h, step := min(tm, hi-i), 0
					if h == tm && w == tn {
						step = reg.rowStep(i, tm) // the tile's rows' distance in c, if constant
					}
					switch {
					case cols != nil:
						tile(at, lda, ka, bt, ldb, cp[(i-lo)*ldp+j:], ldp, kk)
					case step > 0:
						tile(at, lda, ka, bt, ldb, c[reg.row(i)*ldc+j:], step*ldc, kk)
					default:
						for r := 0; r < h; r++ {
							copy(ct[r*tn:r*tn+w], c[reg.row(i+r)*ldc+j:])
						}
						tile(at, lda, ka, bt, ldb, ct, tn, kk)
						for r := 0; r < h; r++ {
							ci := reg.row(i+r)*ldc + j
							copy(c[ci:ci+w], ct[r*tn:])
						}
					}
				}
			}
		}
		if cols != nil {
			movePanel(cp, ldp, c, ldc, reg, lo, hi, true)
		}
	}
	if reg == nil || reg.rowsLive == nil {
		w.ParallelFor((m+tm-1)/tm, max(1, matmulGrain/tm), chunk)
		return
	}
	// Row tiles past a panel's live prefix cost nothing, so an even split by
	// count would leave the chunk of late tiles idle: cut by live tiles.
	live := make([]int, (n+tn-1)/tn) // per panel, its live row tiles
	for p := range live {
		live[p] = (reg.liveRows(p*tn, min(tn, n-p*tn), m) + tm - 1) / tm
	}
	work := func(t int) (s int) { // live tile-panels among row tiles [0, t)
		for _, l := range live {
			s += min(t, l)
		}
		return s
	}
	mt := slices.Max(live)
	parts := min(w.width, mt)
	total := work(mt)
	cut := func(q int) int { // the first row tile of part q
		return sort.Search(mt, func(t int) bool { return work(t)*parts >= q*total })
	}
	w.ParallelFor(parts, 1, func(qlo, qhi int) { chunk(cut(qlo), cut(qhi)) })
}

// packA copies a's k block [k0, k0+kb) of the rows at tile positions p0,
// p0+1, ..., np of them, into ap k-major: term k of position p0+r at
// ap[k*np + r], which the microkernel reads at ras 1, kas np. Positions
// from hi on are zero. Where a is strided along k its rows are adjacent
// (ras 1), so each k copies one run of an m-long row of a, or gathers it
// when reg reorders the rows (only MulATAdd's do).
func packA(ap []float32, np int, a []float32, ras, kas, m int, reg *region, p0, hi, k0, kb int) {
	nr := hi - p0
	if kas != 1 {
		gather := reg != nil && reg.rows != nil
		if gather {
			gatherRows(ap, np, a[k0*kas:], kas, m, reg.rows[p0:hi], kb)
		}
		for k := 0; k < kb; k++ {
			dst := ap[k*np : (k+1)*np]
			if !gather {
				copy(dst[:nr], a[(k0+k)*kas+p0:])
			}
			clear(dst[nr:])
		}
		return
	}
	for r := 0; r < np; r++ {
		if r >= nr {
			for k := 0; k < kb; k++ {
				ap[k*np+r] = 0
			}
			continue
		}
		src := a[(p0+r)*ras+k0:]
		for k := 0; k < kb; k++ {
			ap[k*np+r] = src[k]
		}
	}
}

// movePanel copies rows [lo, hi) of c, in reg's row and column orders, to
// the ldp-strided cp (back false), or cp back into c (back true).
func movePanel(cp []float32, ldp int, c []float32, ldc int, reg *region, lo, hi int, back bool) {
	n := len(reg.cols)
	if reg.rows == nil { // rows in storage order: one call for the chunk
		if back {
			gatherRows(c[lo*ldc:], ldc, cp, ldp, n, reg.inv, hi-lo)
		} else {
			gatherRows(cp, ldp, c[lo*ldc:], ldc, n, reg.cols, hi-lo)
		}
		return
	}
	for i := lo; i < hi; i++ {
		ci, pi := c[reg.row(i)*ldc:], cp[(i-lo)*ldp:]
		if back {
			gatherRows(ci, n, pi, n, n, reg.inv, 1)
		} else {
			gatherRows(pi, n, ci, n, n, reg.cols, 1)
		}
	}
}

// gatherRows sets dst[r*ldd+q] = src[r*lds+idx[q]] for r < rows and
// q < len(idx) on the active tier. Every index is below n: gemmAccum's
// come from permutations of a matrix's columns, or their offsets into it, so
// checking that the last row reaches n makes the asm tiers' unchecked loads
// safe.
func gatherRows(dst []float32, ldd int, src []float32, lds, n int, idx []int32, rows int) {
	if rows <= 0 || len(idx) == 0 {
		return
	}
	_, _ = src[(rows-1)*lds+n-1], dst[(rows-1)*ldd+len(idx)-1]
	gatherImpl(dst, ldd, src, lds, idx, rows)
}

// packPanel copies the w-column panel b[k*kbs + q] (k < len(bp)/tn, q < w)
// into bp row-major at row stride tn, zeroing columns w..tn: a row's run at
// a time.
func packPanel(bp []float32, tn int, b []float32, kbs, w int) {
	if w < tn {
		clear(bp)
	}
	for k := 0; k*tn < len(bp); k++ {
		copy(bp[k*tn:k*tn+w], b[k*kbs:k*kbs+w])
	}
}

// packGather is packPanel for a panel whose columns are not a run of b's:
// bp[k*tn + q] = b[k*kbs + offs[q]], every offset below n. So are bᵀ's
// panels, which are b's rows (MulBT), and a live region's reordered ones.
func packGather(bp []float32, tn int, b []float32, kbs, n int, offs []int32) {
	if len(offs) < tn {
		clear(bp)
	}
	gatherRows(bp, tn, b, kbs, n, offs, len(bp)/tn)
}

// Mul computes dst = a·b where a is m×k and b is k×n. dst must be m×n and
// must not alias a or b. See gemmAccum for the blocked kernel and the
// bitwise accumulation contract.
//
// At m == 1 — the unbatched inference shape, where MPSN predicate embeddings
// make the activation row mostly exact zeros — the product runs through
// mulRowSkipZero, which skips zero activations instead of streaming their
// signed-zero products. The skip is bitwise identical to the dense driver for
// finite weights: each output element's accumulator starts at +0 (dst.Zero())
// and round-to-nearest addition can never turn it into -0 (x + (-x) = +0, and
// +0 + ±0 = +0), so adding a skipped term's ±0 product would have been the
// identity anyway. Only a non-finite weight (0·Inf = NaN) could tell the
// difference, and a model with those is already broken.
func (w *Workers) Mul(dst, a, b *Matrix) { w.MulLive(dst, a, b, nil) }

// MulLive is Mul with b the weight matrix l describes: each output column
// sums only its panel's live extent of k (see Live). A nil l is Mul.
func (w *Workers) MulLive(dst, a, b *Matrix, l *Live) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if a.Rows == 1 {
		dst.Zero()
		mulRowSkipZero(dst.Data, a.Data, b.Data, b.Cols)
		return
	}
	reg := l.product(b, func(l *Live) *region { return l.fwd })
	w.gemmAccum(true, a.Rows, b.Cols, a.Cols, a.Data, a.Cols, 1, b.Data, b.Cols, 1, dst.Data, b.Cols, reg)
}

// Mul is Default().Mul, for callers that are handed no set.
func Mul(dst, a, b *Matrix) { Default().Mul(dst, a, b) }

// mulRowSkipZero computes the batch-1 row product dst += a·b, skipping
// exact-zero activations (see Mul for why the skip cannot change any output
// bit). Nonzero terms accumulate over ascending k through the dispatched
// Saxpy, exactly like the dense driver's ragged-row path, so the two paths
// agree bit for bit and across kernel tiers.
func mulRowSkipZero(dst, a []float32, b []float32, n int) {
	sax := saxpyImpl
	for k, av := range a {
		if av != 0 {
			sax(av, b[k*n:k*n+n], dst)
		}
	}
}

// MulBT computes dst = a·bᵀ where a is m×k and b is n×k. dst must be m×n.
// A dot-product inner loop would be a horizontal reduction the register tile
// cannot express; instead the driver reads b through transposed strides
// (kbs=1, jbs=ldb), so each panel it packs is already the bᵀ panel the
// microkernel wants and no transposed copy of b is ever materialised. Each
// output element still accumulates its k terms in ascending order, so results
// are bitwise identical to the reduction form.
func (w *Workers) MulBT(dst, a, b *Matrix) { w.MulBTLive(dst, a, b, nil) }

// MulBTLive is MulBT with b the weight matrix l describes, the input
// gradient dY·Wᵀ: each output column sums only its panel's live extent of k,
// and the value of a column l was told is unread is unspecified. A nil l is
// MulBT.
func (w *Workers) MulBTLive(dst, a, b *Matrix, l *Live) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulBT shape mismatch %dx%d · (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	reg := l.product(b, func(l *Live) *region { return l.dx })
	w.gemmAccum(true, a.Rows, b.Rows, a.Cols, a.Data, a.Cols, 1, b.Data, 1, b.Cols, dst.Data, b.Rows, reg)
}

// MulATAdd computes dst += aᵀ·b where a is m×k and b is m×n. dst must be k×n.
// It is the gradient kernel dW += Xᵀ·dY; the driver's generalized strides
// (ras=1, kas=lda) make a's columns its rows, each worker packs the columns
// of its own chunk one k block at a time, and concurrent row chunks never
// write the same cell.
func (w *Workers) MulATAdd(dst, a, b *Matrix) { w.MulATAddLive(dst, a, b, nil) }

// MulATAddLive is MulATAdd with dst the gradient of the weight matrix l
// describes: it accumulates every tile that holds a live cell and leaves the
// other tiles as they are, so every live cell gets MulATAdd's value and a
// dead cell either that or its old one; the caller clears the dead cells.
// A nil l is MulATAdd.
func (w *Workers) MulATAddLive(dst, a, b *Matrix, l *Live) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulATAdd shape mismatch (%dx%d)ᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	reg := l.product(dst, func(l *Live) *region { return l.dw })
	w.gemmAccum(false, a.Cols, b.Cols, a.Rows, a.Data, 1, a.Cols, b.Data, b.Cols, 1, dst.Data, b.Cols, reg)
}
