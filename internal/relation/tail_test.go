package relation

import (
	"fmt"
	"testing"
)

// widthTable builds a table whose columns are backed by non-I32 code arrays,
// standing in for a mapped .duetcol base.
func widthTable() *Table {
	// a: ints 10,20,30 with u8 codes; s: strings with u8 codes.
	a := &Column{Name: "a", Kind: KindInt, Ints: []int64{10, 20, 30},
		Codes: Codes[uint8]{0, 1, 2, 1, 0}}
	s := &Column{Name: "s", Kind: KindString, Strs: []string{"x", "y"},
		Codes: Codes[uint16]{0, 1, 1, 0, 1}}
	return NewTable("base", []*Column{a, s})
}

func TestAppendRowsBuildsTailOverMappedBase(t *testing.T) {
	base := widthTable()
	grown, err := AppendRows(base, [][]string{{"20", "y"}, {"25", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRows() != 7 {
		t.Fatalf("rows = %d, want 7", grown.NumRows())
	}
	// The base table must be untouched (copy-on-write) and still width-coded.
	if _, ok := base.Cols[0].Codes.(Codes[uint8]); !ok || base.NumRows() != 5 {
		t.Fatalf("base mutated: %T, %d rows", base.Cols[0].Codes, base.NumRows())
	}
	// The grown columns must be tails over the same base array, not copies.
	tc, ok := grown.Cols[0].Codes.(*TailCodes)
	if !ok {
		t.Fatalf("grown int column is %T, want *TailCodes", grown.Cols[0].Codes)
	}
	if _, ok := tc.Base.(Codes[uint8]); !ok {
		t.Fatalf("tail base is %T, want the original Codes[uint8]", tc.Base)
	}
	// "25" grew the int dictionary: 10,20,25,30. Base codes must read through
	// the remap; appended rows land in the merged space.
	wantInts := []int64{10, 20, 30, 20, 10, 20, 25}
	for r, w := range wantInts {
		c := grown.Cols[0]
		if got := c.Ints[c.Codes.At(r)]; got != w {
			t.Fatalf("row %d int = %d, want %d", r, got, w)
		}
	}
	wantStrs := []string{"x", "y", "y", "x", "y", "y", "z"}
	for r, w := range wantStrs {
		c := grown.Cols[1]
		if got := c.Strs[c.Codes.At(r)]; got != w {
			t.Fatalf("row %d str = %q, want %q", r, got, w)
		}
	}
}

func TestAppendRowsTailFlattens(t *testing.T) {
	tbl := widthTable()
	// Ten successive ingest batches must not nest TailCodes: read cost stays
	// one remap lookup regardless of batch count.
	for i := 0; i < 10; i++ {
		var err error
		tbl, err = AppendRows(tbl, [][]string{{fmt.Sprintf("%d", 100+i), "y"}})
		if err != nil {
			t.Fatal(err)
		}
	}
	tc, ok := tbl.Cols[0].Codes.(*TailCodes)
	if !ok {
		t.Fatalf("column is %T, want *TailCodes", tbl.Cols[0].Codes)
	}
	if _, nested := tc.Base.(*TailCodes); nested {
		t.Fatal("TailCodes nested instead of flattening")
	}
	if tbl.NumRows() != 15 || len(tc.Tail) != 10 {
		t.Fatalf("rows=%d tail=%d, want 15/10", tbl.NumRows(), len(tc.Tail))
	}
	// Every appended value present, in order, through the merged dictionary.
	for i := 0; i < 10; i++ {
		c := tbl.Cols[0]
		if got := c.Ints[c.Codes.At(5+i)]; got != int64(100+i) {
			t.Fatalf("appended row %d = %d, want %d", i, got, 100+i)
		}
	}
	// AppendTo bulk decode agrees with At across the base/tail boundary.
	all := tbl.Cols[0].Codes.AppendTo(nil, 0, tbl.NumRows())
	for r, code := range all {
		if code != tbl.Cols[0].Codes.At(r) {
			t.Fatalf("AppendTo[%d]=%d, At=%d", r, code, tbl.Cols[0].Codes.At(r))
		}
	}
	// Histogram over the tail-backed column still sums to 1.
	var sum float64
	for _, h := range tbl.CodeHist(0) {
		sum += h
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("CodeHist sum = %g", sum)
	}
}
