package exec

import (
	"testing"
	"testing/quick"

	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

func testTable(rows int, seed int64) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: seed,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 10, Skew: 1.5, Parent: -1},
			{Name: "b", NDV: 5, Skew: 0, Parent: 0, Noise: 0.3},
			{Name: "c", NDV: 25, Skew: 1.2, Parent: -1},
		},
	})
}

// bruteForce checks predicates directly, without interval compilation.
func bruteForce(t *relation.Table, q workload.Query) int64 {
	var count int64
rows:
	for r := 0; r < t.NumRows(); r++ {
		for _, p := range q.Preds {
			if !p.Matches(t.Cols[p.Col].Codes.At(r)) {
				continue rows
			}
		}
		count++
	}
	return count
}

func TestCardinalityMatchesBruteForce(t *testing.T) {
	tbl := testTable(400, 1)
	qs := workload.Generate(tbl, workload.GenConfig{
		Seed: 3, NumQueries: 150, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	for _, q := range qs {
		if got, want := Cardinality(tbl, q), bruteForce(tbl, q); got != want {
			t.Fatalf("query %v: got %d want %d", q, got, want)
		}
	}
}

func TestCardinalityProperty(t *testing.T) {
	tbl := testTable(200, 2)
	f := func(col0 uint8, op0 uint8, code0 uint8, col1 uint8, op1 uint8, code1 uint8) bool {
		mk := func(col, op, code uint8) workload.Predicate {
			c := int(col) % tbl.NumCols()
			return workload.Predicate{
				Col:  c,
				Op:   workload.Op(op % workload.NumOps),
				Code: int32(int(code) % tbl.Cols[c].NumDistinct()),
			}
		}
		q := workload.Query{Preds: []workload.Predicate{mk(col0, op0, code0), mk(col1, op1, code1)}}
		return Cardinality(tbl, q) == bruteForce(tbl, q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyQueryReturnsAllRows(t *testing.T) {
	tbl := testTable(123, 3)
	if got := Cardinality(tbl, workload.Query{}); got != 123 {
		t.Fatalf("empty query: %d", got)
	}
}

func TestContradictionReturnsZero(t *testing.T) {
	tbl := testTable(100, 4)
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGt, Code: 5},
		{Col: 0, Op: workload.OpLt, Code: 3},
	}}
	if got := Cardinality(tbl, q); got != 0 {
		t.Fatalf("contradiction: %d", got)
	}
}

func TestCardinalitiesParallelMatchesSerial(t *testing.T) {
	tbl := testTable(300, 5)
	qs := workload.Generate(tbl, workload.GenConfig{
		Seed: 6, NumQueries: 64, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	w := tensor.NewWorkers(3)
	defer w.Close()
	par := Cardinalities(w, tbl, qs)
	for i, q := range qs {
		if par[i] != Cardinality(tbl, q) {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
}

func TestLabel(t *testing.T) {
	tbl := testTable(100, 7)
	qs := workload.Generate(tbl, workload.GenConfig{
		Seed: 8, NumQueries: 10, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
	labeled := Label(tbl, qs)
	if len(labeled) != 10 {
		t.Fatalf("labeled %d", len(labeled))
	}
	for i, lq := range labeled {
		if lq.Card != Cardinality(tbl, qs[i]) {
			t.Fatal("label mismatch")
		}
	}
}
