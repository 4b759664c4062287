package relation

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntColumnDictionary(t *testing.T) {
	c := NewIntColumn("x", []int64{5, 3, 5, 9, 3, 3})
	if c.NumDistinct() != 3 {
		t.Fatalf("NDV=%d want 3", c.NumDistinct())
	}
	want := []int64{3, 5, 9}
	for i, v := range want {
		if c.Ints[i] != v {
			t.Fatalf("dict=%v want %v", c.Ints, want)
		}
	}
	// Codes decode back to original values.
	orig := []int64{5, 3, 5, 9, 3, 3}
	for i, code := range DecodeCodes(c.Codes) {
		if c.Ints[code] != orig[i] {
			t.Fatalf("row %d decodes to %d want %d", i, c.Ints[code], orig[i])
		}
	}
}

func TestDictionaryRoundtripProperty(t *testing.T) {
	f := func(vals []int64) bool {
		if len(vals) == 0 {
			return true
		}
		c := NewIntColumn("x", vals)
		for i, code := range DecodeCodes(c.Codes) {
			if c.Ints[code] != vals[i] {
				return false
			}
		}
		// Dictionary strictly ascending.
		for i := 1; i < len(c.Ints); i++ {
			if c.Ints[i] <= c.Ints[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFloatAndStringColumns(t *testing.T) {
	fc := NewFloatColumn("f", []float64{1.5, -2, 1.5})
	if fc.NumDistinct() != 2 || fc.Floats[0] != -2 {
		t.Fatalf("float dict %v", fc.Floats)
	}
	sc := NewStringColumn("s", []string{"b", "a", "b", "c"})
	if sc.NumDistinct() != 3 || sc.Strs[0] != "a" {
		t.Fatalf("string dict %v", sc.Strs)
	}
	if sc.ValueString(sc.Codes.At(0)) != "b" {
		t.Fatal("ValueString mismatch")
	}
}

func TestLowerBound(t *testing.T) {
	c := NewIntColumn("x", []int64{10, 20, 30})
	cases := []struct {
		v    int64
		want int32
	}{{5, 0}, {10, 0}, {15, 1}, {30, 2}, {31, 3}}
	for _, tc := range cases {
		if got, _ := c.CodeOfInt(tc.v); got != tc.want {
			t.Fatalf("CodeOfInt(%d)=%d want %d", tc.v, got, tc.want)
		}
		if got, _, err := c.Lookup(strconv.FormatInt(tc.v, 10)); err != nil || got != tc.want {
			t.Fatalf("Lookup(%d)=%d,%v want %d", tc.v, got, err, tc.want)
		}
	}
	if code, ok := c.CodeOfInt(20); !ok || code != 1 {
		t.Fatalf("CodeOfInt(20)=(%d,%v)", code, ok)
	}
	if _, ok := c.CodeOfInt(25); ok {
		t.Fatal("CodeOfInt(25) should not be exact")
	}
}

func TestNewCodedColumnCompacts(t *testing.T) {
	// Codes 0 and 5 used out of domain 10 -> NDV 2, values preserved as ints.
	c := NewCodedColumn("x", []int32{5, 0, 5}, 10)
	if c.NumDistinct() != 2 {
		t.Fatalf("NDV=%d want 2", c.NumDistinct())
	}
	if c.Ints[0] != 0 || c.Ints[1] != 5 {
		t.Fatalf("dict=%v", c.Ints)
	}
	if c.Codes.At(0) != 1 || c.Codes.At(1) != 0 {
		t.Fatalf("codes=%v", c.Codes)
	}
}

func TestTableValidation(t *testing.T) {
	a := NewIntColumn("a", []int64{1, 2})
	b := NewIntColumn("b", []int64{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged columns")
		}
	}()
	NewTable("t", []*Column{a, b})
}

func TestTableAccessors(t *testing.T) {
	tbl := NewTable("t", []*Column{
		NewIntColumn("a", []int64{1, 2, 1}),
		NewIntColumn("b", []int64{7, 7, 8}),
	})
	if tbl.NumRows() != 3 || tbl.NumCols() != 2 {
		t.Fatalf("shape %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	row := tbl.RowCodes(2, nil)
	if tbl.Cols[0].Ints[row[0]] != 1 || tbl.Cols[1].Ints[row[1]] != 8 {
		t.Fatalf("row decode %v", row)
	}
	if tbl.ColumnIndex("b") != 1 || tbl.ColumnIndex("zz") != -1 {
		t.Fatal("ColumnIndex")
	}
	if ndvs := tbl.NDVs(); ndvs[0] != 2 || ndvs[1] != 2 {
		t.Fatalf("NDVs %v", ndvs)
	}
	if !strings.Contains(tbl.Stats(), "3 rows") {
		t.Fatalf("Stats: %s", tbl.Stats())
	}
}

func TestCSVRoundtrip(t *testing.T) {
	in := "a,b,c\n1,2.5,x\n3,1.5,y\n1,2.5,x\n"
	tbl, err := LoadCSV(strings.NewReader(in), "t", true)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Cols[0].Kind != KindInt || tbl.Cols[1].Kind != KindFloat || tbl.Cols[2].Kind != KindString {
		t.Fatalf("kinds: %v %v %v", tbl.Cols[0].Kind, tbl.Cols[1].Kind, tbl.Cols[2].Kind)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	tbl2, err := LoadCSV(&buf, "t2", true)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.NumRows() != 3 || tbl2.NumCols() != 3 {
		t.Fatalf("roundtrip shape %dx%d", tbl2.NumRows(), tbl2.NumCols())
	}
	for ci := range tbl.Cols {
		for r := 0; r < 3; r++ {
			a := tbl.Cols[ci].ValueString(tbl.Cols[ci].Codes.At(r))
			b := tbl2.Cols[ci].ValueString(tbl2.Cols[ci].Codes.At(r))
			if a != b {
				t.Fatalf("col %d row %d: %q vs %q", ci, r, a, b)
			}
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), "t", false); err == nil {
		t.Fatal("empty csv should error")
	}
	if _, err := LoadCSV(strings.NewReader("a,b\n"), "t", true); err == nil {
		t.Fatal("header-only csv should error")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := SynConfig{Name: "g", Rows: 500, Seed: 7, Cols: []ColSpec{
		{Name: "a", NDV: 10, Skew: 1.5, Parent: -1},
		{Name: "b", NDV: 20, Skew: 0, Parent: 0, Noise: 0.2},
	}}
	t1 := Generate(cfg)
	t2 := Generate(cfg)
	for ci := range t1.Cols {
		for r := 0; r < t1.Cols[ci].NumRows(); r++ {
			if t1.Cols[ci].Codes.At(r) != t2.Cols[ci].Codes.At(r) {
				t.Fatal("generation is not deterministic")
			}
		}
	}
}

func TestGenerateCorrelation(t *testing.T) {
	// With zero noise the child must be a pure function of the parent.
	tbl := Generate(SynConfig{Name: "g", Rows: 2000, Seed: 3, Cols: []ColSpec{
		{Name: "p", NDV: 8, Skew: 0, Parent: -1},
		{Name: "c", NDV: 16, Skew: 0, Parent: 0, Noise: 0},
	}})
	seen := map[int32]int32{}
	for r := 0; r < tbl.NumRows(); r++ {
		p := tbl.Cols[0].Codes.At(r)
		c := tbl.Cols[1].Codes.At(r)
		if prev, ok := seen[p]; ok && prev != c {
			t.Fatalf("child not functional in parent: p=%d -> {%d,%d}", p, prev, c)
		}
		seen[p] = c
	}
}

func TestSyntheticShapes(t *testing.T) {
	dmv := SynDMV(2000, 1)
	if dmv.NumCols() != 11 {
		t.Fatalf("SynDMV cols=%d", dmv.NumCols())
	}
	kdd := SynKDD(1000, 1)
	if kdd.NumCols() != 100 {
		t.Fatalf("SynKDD cols=%d", kdd.NumCols())
	}
	for _, c := range kdd.Cols {
		if d := c.NumDistinct(); d < 2 && c.NumRows() > 500 {
			t.Fatalf("column %s NDV=%d, degenerate", c.Name, d)
		}
		if d := c.NumDistinct(); d > 57 {
			t.Fatalf("column %s NDV=%d exceeds Kddcup98 profile", c.Name, d)
		}
	}
	cen := SynCensus(1000, 1)
	if cen.NumCols() != 14 {
		t.Fatalf("SynCensus cols=%d", cen.NumCols())
	}
	for _, c := range cen.Cols {
		if c.NumDistinct() > 123 {
			t.Fatalf("census column %s NDV=%d exceeds profile", c.Name, c.NumDistinct())
		}
	}
}

func TestZipfSkewShowsUp(t *testing.T) {
	tbl := Generate(SynConfig{Name: "g", Rows: 10000, Seed: 9, Cols: []ColSpec{
		{Name: "z", NDV: 50, Skew: 2.0, Parent: -1},
	}})
	counts := make([]int, 50)
	for _, code := range DecodeCodes(tbl.Cols[0].Codes) {
		counts[tbl.Cols[0].Ints[code]]++
	}
	if counts[0] < 5*counts[10] {
		t.Fatalf("expected strong skew: count0=%d count10=%d", counts[0], counts[10])
	}
}
