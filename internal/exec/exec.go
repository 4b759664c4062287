// Package exec computes exact query cardinalities by columnar scan. It is
// the ground-truth oracle for workload labelling and estimator evaluation.
package exec

import (
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// Cardinality returns the exact number of tuples in t satisfying q.
// Predicates are compiled to per-column code intervals; the scan checks the
// most selective interval first to maximize early exits.
func Cardinality(t *relation.Table, q workload.Query) int64 {
	ivs := q.ColumnIntervals(t)
	cols := constrainedBySelectivity(t, q, ivs)
	if len(cols) == 0 {
		return int64(t.NumRows())
	}
	for _, c := range cols {
		if ivs[c].Empty() {
			return 0
		}
	}
	var count int64
	n := t.NumRows()
rows:
	for r := 0; r < n; r++ {
		for _, c := range cols {
			v := t.Cols[c].Codes.At(r)
			if v < ivs[c].Lo || v > ivs[c].Hi {
				continue rows
			}
		}
		count++
	}
	return count
}

// Cardinalities labels all queries, scanning in parallel across queries on w.
func Cardinalities(w *tensor.Workers, t *relation.Table, qs []workload.Query) []int64 {
	out := make([]int64, len(qs))
	w.ParallelFor(len(qs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = Cardinality(t, qs[i])
		}
	})
	return out
}

// Label pairs each query with its exact cardinality, scanning on the default
// worker set.
func Label(t *relation.Table, qs []workload.Query) []workload.LabeledQuery {
	cards := Cardinalities(tensor.Default(), t, qs)
	out := make([]workload.LabeledQuery, len(qs))
	for i, q := range qs {
		out[i] = workload.LabeledQuery{Query: q, Card: cards[i]}
	}
	return out
}

// constrainedBySelectivity returns the constrained columns ordered from the
// narrowest interval (relative to its domain) to the widest.
func constrainedBySelectivity(t *relation.Table, q workload.Query, ivs []workload.Interval) []int {
	cols := q.Columns()
	sel := make([]float64, len(cols))
	for i, c := range cols {
		ndv := t.Cols[c].NumDistinct()
		sel[i] = float64(ivs[c].Width()) / float64(ndv)
	}
	// Insertion sort: the list is tiny.
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && sel[j] < sel[j-1]; j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
			cols[j], cols[j-1] = cols[j-1], cols[j]
		}
	}
	return cols
}
