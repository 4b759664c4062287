package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

func appendTestTable() *Table {
	return NewTable("t", []*Column{
		NewIntColumn("a", []int64{10, 20, 20, 40}),
		NewFloatColumn("f", []float64{1.5, 2.5, 2.5, 4}),
		NewStringColumn("s", []string{"x", "y", "y", "z"}),
	})
}

// rowValues renders row r as raw strings, the lossless comparison basis when
// dictionaries (and therefore codes) differ between tables.
func rowValues(t *Table, r int) []string {
	out := make([]string, t.NumCols())
	for i, c := range t.Cols {
		out[i] = c.ValueString(c.Codes.At(r))
	}
	return out
}

func TestAppendRowsNoFreshValues(t *testing.T) {
	base := appendTestTable()
	grown, err := AppendRows(base, [][]string{{"20", "1.5", "z"}, {"40", "4", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if grown.NumRows() != 6 || base.NumRows() != 4 {
		t.Fatalf("rows: grown %d (want 6), base %d (want 4)", grown.NumRows(), base.NumRows())
	}
	for i := range base.Cols {
		if base.Cols[i].NumDistinct() != grown.Cols[i].NumDistinct() {
			t.Fatalf("column %d NDV changed without fresh values", i)
		}
		// Unchanged dictionaries are shared, not copied.
		switch base.Cols[i].Kind {
		case KindInt:
			if &base.Cols[i].Ints[0] != &grown.Cols[i].Ints[0] {
				t.Fatalf("column %d dictionary was copied needlessly", i)
			}
		}
	}
	want := [][]string{{"10", "1.5", "x"}, {"20", "2.5", "y"}, {"20", "2.5", "y"}, {"40", "4", "z"},
		{"20", "1.5", "z"}, {"40", "4", "x"}}
	for r := range want {
		if got := rowValues(grown, r); fmt.Sprint(got) != fmt.Sprint(want[r]) {
			t.Fatalf("row %d = %v, want %v", r, got, want[r])
		}
	}
}

func TestAppendRowsGrowsDictionaries(t *testing.T) {
	base := appendTestTable()
	baseRows := make([][]string, base.NumRows())
	for r := range baseRows {
		baseRows[r] = rowValues(base, r)
	}
	// 15 lands mid-dictionary for "a" (shifting codes of 20 and 40), 0.5 at
	// the front for "f", "zz" at the back for "s".
	grown, err := AppendRows(base, [][]string{{"15", "0.5", "zz"}, {"15", "2.5", "x"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := grown.Cols[0].NumDistinct(); got != 4 {
		t.Fatalf("a NDV = %d, want 4", got)
	}
	if got := grown.Cols[1].NumDistinct(); got != 4 {
		t.Fatalf("f NDV = %d, want 4", got)
	}
	if got := grown.Cols[2].NumDistinct(); got != 4 {
		t.Fatalf("s NDV = %d, want 4", got)
	}
	// Every pre-existing row keeps its values under the remapped codes, and
	// the input table is untouched.
	for r, want := range baseRows {
		if got := rowValues(grown, r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("remapped row %d = %v, want %v", r, got, want)
		}
		if got := rowValues(base, r); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("input table mutated: row %d = %v, want %v", r, got, want)
		}
	}
	if got := rowValues(grown, 4); fmt.Sprint(got) != fmt.Sprint([]string{"15", "0.5", "zz"}) {
		t.Fatalf("appended row = %v", got)
	}
	// Dictionaries stay sorted (the repo-wide invariant codes rely on).
	for i := 1; i < len(grown.Cols[0].Ints); i++ {
		if grown.Cols[0].Ints[i-1] >= grown.Cols[0].Ints[i] {
			t.Fatalf("a dictionary not strictly sorted: %v", grown.Cols[0].Ints)
		}
	}
}

func TestAppendRowsErrors(t *testing.T) {
	base := appendTestTable()
	if _, err := AppendRows(base, [][]string{{"1", "2"}}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := AppendRows(base, [][]string{{"notanint", "2.5", "x"}}); err == nil {
		t.Fatal("unparseable int accepted")
	}
	if _, err := AppendRows(base, [][]string{{"1", "notafloat", "x"}}); err == nil {
		t.Fatal("unparseable float accepted")
	}
	if got, err := AppendRows(base, nil); err != nil || got != base {
		t.Fatalf("empty append: got %v, %v", got, err)
	}
}

func TestCodeHistAndProjectValue(t *testing.T) {
	base := appendTestTable()
	h := base.CodeHist(0) // values 10,20,20,40 -> codes 0,1,1,2
	want := []float64{0.25, 0.5, 0.25}
	if len(h) != len(want) {
		t.Fatalf("hist len %d, want %d", len(h), len(want))
	}
	for i := range want {
		if diff := h[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("hist[%d] = %v, want %v", i, h[i], want[i])
		}
	}
	c := base.Cols[0]
	if code, exact, err := c.ProjectValue("20"); err != nil || !exact || code != 1 {
		t.Fatalf("ProjectValue(20) = %d,%v,%v", code, exact, err)
	}
	if code, exact, err := c.ProjectValue("25"); err != nil || exact || code != 2 {
		t.Fatalf("ProjectValue(25) = %d,%v,%v (want lower-bound 2, inexact)", code, exact, err)
	}
	if code, exact, err := c.ProjectValue("99"); err != nil || exact || code != 2 {
		t.Fatalf("ProjectValue(99) = %d,%v,%v (want clamp to last code)", code, exact, err)
	}
	if _, _, err := c.ProjectValue("nope"); err == nil {
		t.Fatal("unparseable value accepted")
	}
}

// TestNaNIsOneValue: NaN is one dictionary value that sorts below every other
// float, whether it arrives through LoadCSV or AppendRows, and a lookup finds
// it.
func TestNaNIsOneValue(t *testing.T) {
	tbl, err := LoadCSV(strings.NewReader("a\n1.5\nNaN\n2.5\nNaN"), "t", true)
	if err != nil {
		t.Fatal(err)
	}
	c := tbl.Cols[0]
	if d := c.Floats; len(d) != 3 || !math.IsNaN(d[0]) || d[1] != 1.5 || d[2] != 2.5 {
		t.Fatalf("dictionary %v, want [NaN 1.5 2.5]", d)
	}
	if got := DecodeCodes(c.Codes); !slices.Equal(got, []int32{1, 0, 2, 0}) {
		t.Fatalf("codes %v, want [1 0 2 0]", got)
	}
	var sum float64
	for _, h := range tbl.CodeHist(0) {
		sum += h
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("CodeHist sums to %g", sum)
	}

	base := NewTable("t", []*Column{NewFloatColumn("a", []float64{1.5, 2.5})})
	grown, err := AppendRows(base, [][]string{{"NaN"}, {"NaN"}, {"0.5"}})
	if err != nil {
		t.Fatal(err)
	}
	if grown, err = AppendRows(grown, [][]string{{"0.1"}}); err != nil {
		t.Fatal(err)
	}
	d := grown.Cols[0].Floats
	if err := grown.Cols[0].CheckAscending(); err != nil || len(d) != 5 || !math.IsNaN(d[0]) {
		t.Fatalf("grown dictionary %v (%v), want [NaN 0.1 0.5 1.5 2.5]", d, err)
	}
	if code, exact, err := c.ProjectValue("NaN"); err != nil || !exact || code != 0 {
		t.Fatalf("ProjectValue(NaN) = %d,%v,%v, want 0,true", code, exact, err)
	}
}

// fuzzBases returns one single-column table per kind, each in memory and
// over a Codes[uint8] base standing in for a mapped column (so AppendRows
// builds a TailCodes).
func fuzzBases() []*Table {
	cols := []*Column{
		NewIntColumn("i", []int64{30, -7, 10, 30}),
		NewFloatColumn("f", []float64{2.5, math.NaN(), 0, 2.5}),
		NewStringColumn("s", []string{"y", "", "x", "y"}),
	}
	var out []*Table
	for _, c := range cols {
		narrow := *c
		codes := Codes[uint8]{}
		for _, code := range DecodeCodes(c.Codes) {
			codes = append(codes, uint8(code))
		}
		narrow.Codes = codes
		out = append(out, NewTable(c.Name, []*Column{c}), NewTable(c.Name+"8", []*Column{&narrow}))
	}
	return out
}

// FuzzAppendRows: appending any text cells to an int, float or string
// column, in memory or over a narrow base, either errors or leaves a strictly
// ascending dictionary, every code below NDV, every old row's value as it was
// and every appended cell looking up exactly to its row's code. Each base
// takes two appends: rows x and y, then x again onto the result.
func FuzzAppendRows(f *testing.F) {
	for _, s := range []string{"NaN", "-0", "+Inf", "1e309", "9223372036854775808", "'x'", ""} {
		f.Add(s, "0.5")
	}
	f.Fuzz(func(t *testing.T, x, y string) {
		for _, tbl := range fuzzBases() {
			for _, cells := range [][]string{{x, y}, {x}} {
				rows := make([][]string, len(cells))
				for i, cell := range cells {
					rows[i] = []string{cell}
				}
				grown, err := AppendRows(tbl, rows)
				if err != nil {
					break
				}
				old, c := tbl.Cols[0], grown.Cols[0]
				if err := c.CheckAscending(); err != nil {
					t.Fatalf("%s after %q: %v", tbl.Name, cells, err)
				}
				ndv := int32(c.NumDistinct())
				for r := 0; r < grown.NumRows(); r++ {
					if code := c.Codes.At(r); code < 0 || code >= ndv {
						t.Fatalf("%s after %q: row %d has code %d of %d", tbl.Name, cells, r, code, ndv)
					}
				}
				for r := 0; r < tbl.NumRows(); r++ {
					if got, want := c.ValueString(c.Codes.At(r)), old.ValueString(old.Codes.At(r)); got != want {
						t.Fatalf("%s after %q: old row %d reads %q, was %q", tbl.Name, cells, r, got, want)
					}
				}
				for i, cell := range cells {
					r := tbl.NumRows() + i
					code, exact, err := c.Lookup(cell)
					if err != nil || !exact || code != c.Codes.At(r) {
						t.Fatalf("%s: Lookup(%q) = %d,%v,%v, row %d has code %d", tbl.Name, cell, code, exact, err, r, c.Codes.At(r))
					}
				}
				tbl = grown
			}
		}
	})
}
