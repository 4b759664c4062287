package tensor

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"
)

// Live is where an in×out weight matrix W can be nonzero, in the form the
// blocked GEMM skips the rest by: a masked layer builds it once from its
// connectivity and runs its three training products through it (MulLive,
// MulBTLive, MulATAddLive). A nil *Live is the dense product.
//
// Each product gets a region (nil when the connectivity saves it nothing):
//
//   - X·W and dY·Wᵀ reduce over one of W's axes and write the other. An
//     output column whose live terms form one contiguous run of the
//     reduction gets that run as its extent; any other column keeps the full
//     width, so a reduction that is not contiguous stays dense, and an
//     unread column of dY·Wᵀ an empty one. The output columns are ordered by
//     extent, so the columns of a tile-wide panel share a tight one, and the
//     panel runs only the span of its columns' nonempty extents, k
//     ascending in storage order.
//   - Xᵀ·dY, the gradient dW, reduces over the batch and writes W's shape.
//     Its rows (W's inputs) are ordered by how many outputs they reach, most
//     first, and its columns by the last row in that order they can take
//     from. Under a degree rule every column's live rows are then a prefix
//     of the row order, and a panel runs only the row tiles up to its
//     longest column's prefix.
//
// Ordering columns or rows permutes which cells a tile holds, never which
// terms a cell sums or their order, so it cannot change a bit; see
// gemmAccum for why the skipped terms cannot either.
type Live struct {
	in, out     int
	fwd, dx, dw *region
}

// region restricts one gemmAccum call to the tiles and reduction terms that
// can contribute. Indices are gemmAccum's: c is m×n and k the reduction.
// Per-column entries are indexed by panel position, not storage index.
type region struct {
	rows, cols []int32 // c's rows in tile order and columns in panel order; nil: storage order
	inv        []int32 // cols inverted: each storage column's panel position
	kLo, kHi   []int32 // per column, its live extent of k, [lo, hi); nil: [0, kn)
	rowsLive   []int32 // per column, how many rows in tile order it can take; nil: all
}

// NewLive returns the live region of an in×out weight matrix. liveRow(i,
// live) sets live[o], for every o < out, to whether cell (i, o) can be
// nonzero. read(i) reports whether the caller uses column i of the input
// gradient dY·Wᵀ (nil: every column); MulBTLive leaves an unread column's
// value unspecified, and spends nothing on it unless it shares a panel with
// a read one.
func NewLive(in, out int, liveRow func(i int, live []bool), read func(i int) bool) *Live {
	l := &Live{in: in, out: out}
	byOut, byIn := make([]span, out), make([]span, in)
	live := make([]bool, out)
	for i := 0; i < in; i++ {
		liveRow(i, live)
		var row span
		for o, ok := range live {
			if ok {
				byOut[o].add(i)
				row.add(o)
			}
		}
		byIn[i] = row
	}
	l.fwd = extentRegion(byOut, in)
	dx := slices.Clone(byIn)
	for i := range dx {
		if read != nil && !read(i) {
			dx[i] = span{}
		}
	}
	l.dx = extentRegion(dx, out)

	// dW: rows by reach, most first; columns by how far down that order
	// their live rows go, least first.
	rows := order(in, func(a, b int) int { return cmp.Compare(byIn[b].n, byIn[a].n) })
	reach := make([]int32, out)
	for p := in - 1; p >= 0; p-- {
		liveRow(int(rows[p]), live)
		for o, ok := range live {
			if ok && reach[o] == 0 {
				reach[o] = int32(p + 1)
			}
		}
	}
	if out > 0 && slices.Min(reach) < int32(in) {
		cols := order(out, func(a, b int) int { return cmp.Compare(reach[a], reach[b]) })
		l.dw = &region{rows: identityOrNil(rows), cols: identityOrNil(cols), inv: inverse(cols), rowsLive: permute(reach, cols)}
	}
	return l
}

// span accumulates one output column's live reduction indices, added in
// ascending order.
type span struct{ first, last, n int }

func (s *span) add(k int) {
	if s.n == 0 {
		s.first = k
	}
	s.last = k
	s.n++
}

// extentRegion is the region of a product whose output column j sums the
// reduction indices spans[j] holds, out of kn: the span itself where it is
// contiguous, all of kn where it is not. It is nil when no column is
// narrower than kn.
func extentRegion(spans []span, kn int) *region {
	r := &region{kLo: make([]int32, len(spans)), kHi: make([]int32, len(spans))}
	dense := true
	for j, s := range spans {
		lo, hi := 0, kn
		switch {
		case s.n == 0:
			hi = 0
		case s.last-s.first+1 == s.n:
			lo, hi = s.first, s.last+1
		}
		r.kLo[j], r.kHi[j] = int32(lo), int32(hi)
		dense = dense && lo == 0 && hi == kn
	}
	if dense {
		return nil
	}
	cols := order(len(spans), func(a, b int) int {
		return cmp.Or(cmp.Compare(r.kLo[a], r.kLo[b]), cmp.Compare(r.kHi[a], r.kHi[b]))
	})
	r.cols, r.inv, r.kLo, r.kHi = identityOrNil(cols), inverse(cols), permute(r.kLo, cols), permute(r.kHi, cols)
	return r
}

// permute returns v in the order idx lists.
func permute(v, idx []int32) []int32 {
	p := make([]int32, len(idx))
	for q, i := range idx {
		p[q] = v[i]
	}
	return p
}

// order returns 0..n-1 stably sorted by cmpFn.
func order(n int, cmpFn func(a, b int) int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int { return cmpFn(int(a), int(b)) })
	return idx
}

// inverse returns the permutation p undoes, nil for the identity.
func inverse(p []int32) []int32 {
	if identityOrNil(p) == nil {
		return nil
	}
	inv := make([]int32, len(p))
	for q, i := range p {
		inv[i] = int32(q)
	}
	return inv
}

// identityOrNil returns nil for the identity permutation, which gemmAccum
// runs in storage order, writing tiles in place.
func identityOrNil(p []int32) []int32 {
	for i, v := range p {
		if int(v) != i {
			return p
		}
	}
	return nil
}

// product returns the region of one of l's products, nil for a nil l, after
// checking that the weight matrix is the shape l was built for.
func (l *Live) product(wt *Matrix, pick func(*Live) *region) *region {
	if l == nil {
		return nil
	}
	if wt.Rows != l.in || wt.Cols != l.out {
		panic(fmt.Sprintf("tensor: live region of a %dx%d matrix used on %dx%d", l.in, l.out, wt.Rows, wt.Cols))
	}
	return pick(l)
}

// extent returns the reduction extent of the w-column panel starting at
// panel position j: the span of its columns' nonempty extents, empty when
// they all are.
func (r *region) extent(j, w, kn int) (lo, hi int) {
	if r == nil || r.kLo == nil {
		return 0, kn
	}
	lo, hi = kn, 0
	for q := j; q < j+w; q++ {
		if r.kLo[q] < r.kHi[q] {
			lo, hi = min(lo, int(r.kLo[q])), max(hi, int(r.kHi[q]))
		}
	}
	return lo, hi
}

// liveRows returns how many rows, in tile order, the w-column panel starting
// at panel position j can write.
func (r *region) liveRows(j, w, m int) int {
	if r == nil || r.rowsLive == nil {
		return m
	}
	return int(slices.Max(r.rowsLive[j : j+w]))
}

// rowStep returns the storage distance between consecutive rows of the
// tm-row tile at position i when it is one and positive, else 0. In storage
// order it is 1; under a cyclic degree rule most tiles of the degree order
// hold one degree's rows, a cycle apart.
func (r *region) rowStep(i, tm int) int {
	if r == nil || r.rows == nil {
		return 1
	}
	rs := r.rows[i : i+tm]
	d := rs[1] - rs[0]
	for q := 2; q < tm; q++ {
		if rs[q]-rs[q-1] != d {
			return 0
		}
	}
	return int(max(d, 0))
}

// row maps a tile position to its storage row.
func (r *region) row(p int) int {
	if r == nil || r.rows == nil {
		return p
	}
	return int(r.rows[p])
}

// GEMMTile returns the active tier's training-GEMM register tile, rows by
// columns: the granularity CountMACs counts in.
func GEMMTile() (rows, cols int) { return gemmTileM, gemmTileN }

// CountMACs runs fn with the GEMM tile kernel wrapped in a counter and
// returns the multiply-adds the tiles executed: tileM × tileN × k per tile
// call, padding included. It swaps the dispatched kernel like SetKernelTier
// does, so nothing else may run a GEMM meanwhile; tests use it to pin what
// a region saves without timing anything.
func CountMACs(fn func()) int64 {
	var n atomic.Int64
	tile, tm, tn := gemmTileImpl, int64(gemmTileM), int64(gemmTileN)
	gemmTileImpl = func(a []float32, ras, kas int, b []float32, ldb int, c []float32, ldc, kn int) {
		n.Add(tm * tn * int64(kn))
		tile(a, ras, kas, b, ldb, c, ldc, kn)
	}
	defer func() { gemmTileImpl = tile }()
	fn()
	return n.Load()
}
