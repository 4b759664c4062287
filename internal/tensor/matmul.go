package tensor

import (
	"fmt"
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
// transposed copy of either operand. Rows are split across workers in whole
// register tiles. Each worker cuts k into blocks of gemmKC and, per block,
// copies one kb×tileN column panel of b at a time into pooled contiguous
// scratch (ldb = tileN, columns past n zero) and runs every row tile of its
// chunk over that panel, so the microkernel's b loads walk 8–32 KB of L1
// instead of kb cache lines — and, at a training-sized ldb, kb pages — a row
// stride apart. a is packed row-major per k block only where the microkernel
// should not read it in place: all of the worker's rows when a is strided
// along k (MulATAdd), otherwise just a ragged last row tile, zero-padded to
// tileM rows. A strided operand whose k block is within gemmInPlace skips the copy:
// the same loop nest runs with the operand's own strides passed through.
// Edge tiles (rows past m, columns past n) run the same microkernel on a
// padded copy of their c tile, of which only the real cells are stored back.
// The scratch is kc × (tileN + packed rows) + tileM × tileN floats a worker.
//
// None of this can change a bit. The microkernel loads its c tile,
// accumulates k ascending with an unfused multiply and add per term, and
// stores; a float32 store and reload between k blocks is exact, packing moves
// values without touching them, and a padded lane never feeds a real one. So
// every c element sees the same sequence of roundings as the scalar
// reference, on every tier, for every worker split and every block size. The
// driver is dense: exact-zero a elements contribute their signed-zero product
// instead of being skipped, which is what makes the register tile (and the
// int8 path) possible. The one exception lives in Mul: its m == 1 inference
// shape skips zero activations (mulRowSkipZero), which is provably
// bit-identical there because the accumulator starts at +0.
func (w *Workers) gemmAccum(zero bool, m, n, kn int, a []float32, ras, kas int, b []float32, kbs, jbs int, c []float32, ldc int) {
	if m <= 0 || n <= 0 || kn <= 0 {
		if zero && m > 0 && n > 0 {
			clear(c[:(m-1)*ldc+n]) // an empty sum is +0
		}
		return
	}
	tm, tn, tile := gemmTileM, gemmTileN, gemmTileImpl
	kc := min(gemmKC, kn)
	w.ParallelFor((m+tm-1)/tm, max(1, matmulGrain/tm), func(tlo, thi int) {
		lo, hi := tlo*tm, min(thi*tm, m)
		if zero {
			for i := lo; i < hi; i++ {
				clear(c[i*ldc : i*ldc+n])
			}
		}
		// Rows from p0 on are read from the packed copy ap: the ragged last
		// tile, or every row when a is strided along k.
		p0 := hi - (hi-lo)%tm
		if kas != 1 && kc*kas > gemmInPlace {
			p0 = lo
		}
		pRows := thi*tm - p0
		s := packPool.Get().(*Matrix).Resize(1, kc*(tn+pRows)+tm*tn)
		defer packPool.Put(s)
		bp, ap, ct := s.Data[:kc*tn], s.Data[kc*tn:kc*(tn+pRows)], s.Data[kc*(tn+pRows):]
		clear(ct)
		for k0 := 0; k0 < kn; k0 += kc {
			kb := min(kc, kn-k0)
			for r := 0; r < pRows; r++ {
				row := ap[r*kb : (r+1)*kb]
				if p0+r >= hi {
					clear(row)
					continue
				}
				src := a[(p0+r)*ras+k0*kas:]
				for k := range row {
					row[k] = src[k*kas]
				}
			}
			for j := 0; j < n; j += tn {
				w := min(tn, n-j)
				bt, ldb := b[k0*kbs+j*jbs:], kbs
				if jbs != 1 || kc*kbs > gemmInPlace || w < tn {
					packPanel(bp[:kb*tn], tn, bt, kbs, jbs, w)
					bt, ldb = bp, tn
				}
				for i := lo; i < hi; i += tm {
					at, lda, ka := ap, kb, 1
					if i < p0 {
						at, lda, ka = a[i*ras+k0*kas:], ras, kas
					} else {
						at = ap[(i-p0)*kb:]
					}
					h := min(tm, hi-i)
					if h == tm && w == tn {
						tile(at, lda, ka, bt, ldb, c[i*ldc+j:], ldc, kb)
						continue
					}
					for r := 0; r < h; r++ {
						copy(ct[r*tn:r*tn+w], c[(i+r)*ldc+j:])
					}
					tile(at, lda, ka, bt, ldb, ct, tn, kb)
					for r := 0; r < h; r++ {
						copy(c[(i+r)*ldc+j:(i+r)*ldc+j+w], ct[r*tn:])
					}
				}
			}
		}
	})
}

// packPanel copies the w-column panel b[k*kbs + j*jbs] (k < len(bp)/tn, j < w)
// into bp row-major at row stride tn, zeroing columns w..tn. Whichever of b's
// strides is 1 is walked innermost, so the copy reads b in runs.
func packPanel(bp []float32, tn int, b []float32, kbs, jbs, w int) {
	if w < tn {
		clear(bp)
	}
	if jbs == 1 {
		for k := 0; k*tn < len(bp); k++ {
			copy(bp[k*tn:k*tn+w], b[k*kbs:k*kbs+w])
		}
		return
	}
	for j := 0; j < w; j++ {
		col := b[j*jbs:]
		for k := 0; k*tn < len(bp); k++ {
			bp[k*tn+j] = col[k*kbs]
		}
	}
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
func (w *Workers) Mul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %dx%d · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if a.Rows == 1 {
		dst.Zero()
		mulRowSkipZero(dst.Data, a.Data, b.Data, b.Cols)
		return
	}
	w.gemmAccum(true, a.Rows, b.Cols, a.Cols, a.Data, a.Cols, 1, b.Data, b.Cols, 1, dst.Data, b.Cols)
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
func (w *Workers) MulBT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MulBT shape mismatch %dx%d · (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	w.gemmAccum(true, a.Rows, b.Rows, a.Cols, a.Data, a.Cols, 1, b.Data, 1, b.Cols, dst.Data, b.Rows)
}

// MulATAdd computes dst += aᵀ·b where a is m×k and b is m×n. dst must be k×n.
// It is the gradient kernel dW += Xᵀ·dY; the driver's generalized strides
// (ras=1, kas=lda) make a's columns its rows, each worker packs the columns
// of its own chunk one k block at a time, and concurrent row chunks never
// write the same cell.
func (w *Workers) MulATAdd(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MulATAdd shape mismatch (%dx%d)ᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	w.gemmAccum(false, a.Cols, b.Cols, a.Rows, a.Data, 1, a.Cols, b.Data, b.Cols, 1, dst.Data, b.Cols)
}
