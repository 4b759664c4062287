package duet_test

import (
	"fmt"
	"math"
	"testing"

	"duet"
	"duet/internal/relation"
	"duet/internal/workload"
)

// predReference is Pred's former hand-written mapping from a raw int64 to a
// code predicate, kept as the reference Pred (now the textual predicate
// resolver) must reproduce.
func predReference(t *duet.Table, column string, op duet.Op, value int64) duet.Predicate {
	ci := t.ColumnIndex(column)
	if ci < 0 {
		panic(fmt.Sprintf("duet: unknown column %q", column))
	}
	code, exact := t.Cols[ci].CodeOfInt(value)
	if int(code) >= t.Cols[ci].NumDistinct() {
		return workload.DegeneratePredicate(ci, op, t.Cols[ci].NumDistinct())
	}
	if op == duet.OpEq && !exact {
		return duet.Predicate{Col: ci, Op: duet.OpGt, Code: int32(t.Cols[ci].NumDistinct()) - 1}
	}
	switch op {
	case duet.OpLt, duet.OpGe:
		return duet.Predicate{Col: ci, Op: op, Code: code}
	case duet.OpLe, duet.OpGt:
		if !exact {
			if op == duet.OpLe {
				return duet.Predicate{Col: ci, Op: duet.OpLt, Code: code}
			}
			return duet.Predicate{Col: ci, Op: duet.OpGe, Code: code}
		}
		return duet.Predicate{Col: ci, Op: op, Code: code}
	default:
		return duet.Predicate{Col: ci, Op: op, Code: code}
	}
}

// TestPredMatchesReference compares Pred with the reference on every
// operator, on an int and a float column, at each dictionary value, one
// either side of it, and beyond both ends of the dictionary.
func TestPredMatchesReference(t *testing.T) {
	tbl := relation.NewTable("t", []*relation.Column{
		relation.NewIntColumn("i", []int64{-7, 0, 3, 3, 4, 10, 10, 1000}),
		relation.NewFloatColumn("f", []float64{-2.5, -2, 0, 1.5, 3, 3, 9, 1e6}),
	})
	ops := []duet.Op{duet.OpEq, duet.OpGt, duet.OpLt, duet.OpGe, duet.OpLe}
	values := []int64{math.MinInt64, -1 << 40, -100, 1 << 40, math.MaxInt64}
	var dict []int64
	for _, v := range tbl.Cols[0].Ints {
		dict = append(dict, v)
	}
	for _, v := range tbl.Cols[1].Floats {
		dict = append(dict, int64(v)) // truncated: -2.5 probes -3, -2 and -1
	}
	for _, v := range dict {
		values = append(values, v-1, v, v+1)
	}
	checked := 0
	for _, c := range tbl.Cols {
		for _, op := range ops {
			for _, v := range values {
				got, want := duet.Pred(tbl, c.Name, op, v), predReference(tbl, c.Name, op, v)
				if got != want {
					t.Fatalf("Pred(%s %v %d) = %+v, reference %+v", c.Name, op, v, got, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d predicates agree", checked)
}
