package relation

import (
	"testing"
	"testing/quick"
)

func TestEquiJoinBasic(t *testing.T) {
	left := NewTable("orders", []*Column{
		NewIntColumn("cust_id", []int64{1, 2, 2, 3}),
		NewIntColumn("amount", []int64{10, 20, 30, 40}),
	})
	right := NewTable("customers", []*Column{
		NewIntColumn("id", []int64{1, 2, 4}),
		NewIntColumn("region", []int64{7, 8, 9}),
	})
	j, err := EquiJoin("oc", left, "cust_id", right, "id")
	if err != nil {
		t.Fatal(err)
	}
	// cust 1 matches once, cust 2 twice, cust 3 never -> 3 rows.
	if j.NumRows() != 3 {
		t.Fatalf("join rows %d want 3", j.NumRows())
	}
	if j.NumCols() != 3 { // l_cust_id, l_amount, r_region
		t.Fatalf("join cols %d want 3", j.NumCols())
	}
	if j.ColumnIndex("l_cust_id") < 0 || j.ColumnIndex("r_region") < 0 {
		t.Fatalf("column names: %v", colNames(j))
	}
	// Verify a joined row: amount 20 (cust 2) pairs with region 8.
	ai := j.ColumnIndex("l_amount")
	gi := j.ColumnIndex("r_region")
	found := false
	for r := 0; r < j.NumRows(); r++ {
		amount := j.Cols[ai].Ints[j.Cols[ai].Codes.At(r)]
		region := j.Cols[gi].Ints[j.Cols[gi].Codes.At(r)]
		if amount == 20 && region == 8 {
			found = true
		}
	}
	if !found {
		t.Fatal("expected (20, 8) pair missing")
	}
}

func colNames(t *Table) []string {
	out := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		out[i] = c.Name
	}
	return out
}

func TestEquiJoinErrors(t *testing.T) {
	a := NewTable("a", []*Column{NewIntColumn("x", []int64{1})})
	b := NewTable("b", []*Column{NewStringColumn("y", []string{"1"})})
	if _, err := EquiJoin("j", a, "nope", b, "y"); err == nil {
		t.Fatal("missing column should error")
	}
	if _, err := EquiJoin("j", a, "x", b, "y"); err == nil {
		t.Fatal("kind mismatch should error")
	}
}

func TestJoinCardinalityMatchesMaterialized(t *testing.T) {
	f := func(seedL, seedR int64) bool {
		left := Generate(SynConfig{Name: "l", Rows: 120, Seed: seedL, Cols: []ColSpec{
			{Name: "k", NDV: 9, Skew: 1.3, Parent: -1},
			{Name: "v", NDV: 5, Skew: 0, Parent: -1},
		}})
		right := Generate(SynConfig{Name: "r", Rows: 80, Seed: seedR, Cols: []ColSpec{
			{Name: "k", NDV: 9, Skew: 0, Parent: -1},
			{Name: "w", NDV: 4, Skew: 0, Parent: -1},
		}})
		j, err := EquiJoin("j", left, "k", right, "k")
		if err != nil {
			return false
		}
		card, err := MultiJoinCardinality(&JoinGraph{Tables: []*Table{left, right}, Edges: []JoinEdge{{"l", "k", "r", "k"}}})
		if err != nil {
			return false
		}
		return int64(j.NumRows()) == card
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinedTableUsableForEstimation(t *testing.T) {
	// The join result is a normal Table: dictionaries sorted, codes valid.
	left := Generate(SynConfig{Name: "l", Rows: 200, Seed: 3, Cols: []ColSpec{
		{Name: "k", NDV: 12, Skew: 1.4, Parent: -1},
		{Name: "v", NDV: 20, Skew: 1.1, Parent: 0, Noise: 0.2},
	}})
	right := Generate(SynConfig{Name: "r", Rows: 150, Seed: 4, Cols: []ColSpec{
		{Name: "k", NDV: 12, Skew: 0, Parent: -1},
		{Name: "w", NDV: 6, Skew: 0, Parent: -1},
	}})
	j, err := EquiJoin("j", left, "k", right, "k")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range j.Cols {
		for i := 1; i < c.NumDistinct(); i++ {
			if c.Kind == KindInt && c.Ints[i] <= c.Ints[i-1] {
				t.Fatalf("column %s dictionary not sorted", c.Name)
			}
		}
		for _, code := range DecodeCodes(c.Codes) {
			if int(code) >= c.NumDistinct() || code < 0 {
				t.Fatalf("column %s code %d out of range", c.Name, code)
			}
		}
	}
}
