package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"duet/internal/relation"
)

func testTable(rows int, seed int64) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: seed,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 20, Skew: 1.5, Parent: -1},
			{Name: "b", NDV: 8, Skew: 0, Parent: 0, Noise: 0.3},
			{Name: "c", NDV: 50, Skew: 1.2, Parent: -1},
		},
	})
}

func TestPredicateIntervalVsMatches(t *testing.T) {
	// Property: Interval and Matches agree for every op/code/value combo.
	f := func(opRaw uint8, code8, v8 uint8) bool {
		const ndv = 16
		op := Op(opRaw % NumOps)
		p := Predicate{Col: 0, Op: op, Code: int32(code8 % ndv)}
		v := int32(v8 % ndv)
		lo, hi := p.Interval(ndv)
		inIv := v >= lo && v <= hi
		return inIv == p.Matches(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{OpEq: "=", OpGt: ">", OpLt: "<", OpGe: ">=", OpLe: "<="}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%v", op)
		}
	}
}

func TestColumnIntervalsIntersect(t *testing.T) {
	tbl := testTable(100, 1)
	q := Query{Preds: []Predicate{
		{Col: 0, Op: OpGe, Code: 3},
		{Col: 0, Op: OpLe, Code: 10},
		{Col: 2, Op: OpEq, Code: 5},
	}}
	ivs := q.ColumnIntervals(tbl)
	if ivs[0].Lo != 3 || ivs[0].Hi != 10 {
		t.Fatalf("col0 interval %+v", ivs[0])
	}
	if ivs[1].Lo != 0 || int(ivs[1].Hi) != tbl.Cols[1].NumDistinct()-1 {
		t.Fatalf("unconstrained col1 %+v", ivs[1])
	}
	if ivs[2].Lo != 5 || ivs[2].Hi != 5 {
		t.Fatalf("col2 %+v", ivs[2])
	}
	// Contradictory predicates produce an empty interval.
	q2 := Query{Preds: []Predicate{
		{Col: 0, Op: OpGt, Code: 10},
		{Col: 0, Op: OpLt, Code: 5},
	}}
	if !q2.ColumnIntervals(tbl)[0].Empty() {
		t.Fatal("contradiction should be empty")
	}
}

func TestQueryColumnsSortedDistinct(t *testing.T) {
	q := Query{Preds: []Predicate{{Col: 2}, {Col: 0}, {Col: 2}}}
	cols := q.Columns()
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 2 {
		t.Fatalf("Columns()=%v", cols)
	}
}

func TestGenerateRespectsConfig(t *testing.T) {
	tbl := testTable(500, 2)
	cfg := GenConfig{Seed: 5, NumQueries: 200, MinPreds: 1, MaxPreds: 2, BoundedCol: -1}
	qs := Generate(tbl, cfg)
	if len(qs) != 200 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if q.NumPreds() < 1 || q.NumPreds() > 2 {
			t.Fatalf("query has %d preds", q.NumPreds())
		}
		cols := q.Columns()
		if len(cols) != q.NumPreds() {
			t.Fatalf("duplicate columns without MultiPredCols: %v", q)
		}
		for _, p := range q.Preds {
			if int(p.Code) >= tbl.Cols[p.Col].NumDistinct() || p.Code < 0 {
				t.Fatalf("code out of domain: %v", p)
			}
		}
	}
}

func TestGenerateDeterministicInSeed(t *testing.T) {
	tbl := testTable(500, 2)
	cfg := RandQConfig(tbl.NumCols(), 50)
	a := Generate(tbl, cfg)
	b := Generate(tbl, cfg)
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("same seed produced different workloads")
		}
	}
	cfg2 := cfg
	cfg2.Seed = 999
	c := Generate(tbl, cfg2)
	same := true
	for i := range a {
		if a[i].String() != c[i].String() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestGenerateNonEmptyGuaranteeForNonStrictOps(t *testing.T) {
	// With only non-strict operators, predicate values come from a sampled
	// tuple, so every generated query matches at least its source row.
	tbl := testTable(300, 3)
	qs := Generate(tbl, GenConfig{Seed: 11, NumQueries: 100, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, Ops: []Op{OpEq, OpGe, OpLe}})
	for _, q := range qs {
		matched := false
		for r := 0; r < tbl.NumRows() && !matched; r++ {
			ok := true
			for _, p := range q.Preds {
				if !p.Matches(tbl.Cols[p.Col].Codes.At(r)) {
					ok = false
					break
				}
			}
			matched = ok
		}
		if !matched {
			t.Fatalf("query %v matches no rows", q)
		}
	}
}

func TestGenerateNoTriviallyEmptyPredicates(t *testing.T) {
	tbl := testTable(300, 13)
	qs := Generate(tbl, GenConfig{Seed: 17, NumQueries: 300, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	for _, q := range qs {
		for _, p := range q.Preds {
			lo, hi := p.Interval(tbl.Cols[p.Col].NumDistinct())
			if lo > hi {
				t.Fatalf("trivially empty predicate generated: %v", p)
			}
		}
	}
}

func TestGammaPredsSkew(t *testing.T) {
	tbl := relation.SynKDD(200, 1)
	qs := Generate(tbl, InQConfig(tbl.NumCols(), 500, LargestColumn(tbl)))
	hist := map[int]int{}
	for _, q := range qs {
		hist[len(q.Columns())]++
	}
	// Gamma(2) peaks low-mid; extremes should be rarer than the mode.
	mode, modeCount := 0, 0
	for k, c := range hist {
		if c > modeCount {
			mode, modeCount = k, c
		}
	}
	if mode == 12 || mode == 1 && hist[12] > modeCount/2 {
		t.Fatalf("gamma predicate distribution looks uniform: %v", hist)
	}
}

func TestBoundedColumnRestricts(t *testing.T) {
	tbl := testTable(500, 4)
	bc := 2 // ndv 50 -> 1% -> 1 code
	qs := Generate(tbl, GenConfig{Seed: 7, NumQueries: 400, MinPreds: 3, MaxPreds: 3,
		BoundedCol: bc, BoundedFrac: 0.01})
	codes := map[int32]bool{}
	for _, q := range qs {
		for _, p := range q.Preds {
			if p.Col == bc {
				codes[p.Code] = true
			}
		}
	}
	if len(codes) > 1 {
		t.Fatalf("bounded column used %d codes, want 1", len(codes))
	}
}

func TestMultiPredColsProduceRanges(t *testing.T) {
	tbl := testTable(500, 5)
	qs := Generate(tbl, GenConfig{Seed: 9, NumQueries: 200, MinPreds: 2, MaxPreds: 3,
		BoundedCol: -1, Ops: []Op{OpGe, OpLe, OpGt, OpLt}, MultiPredCols: 2})
	foundDouble := false
	for _, q := range qs {
		perCol := map[int]int{}
		for _, p := range q.Preds {
			perCol[p.Col]++
		}
		for col, n := range perCol {
			if n > 1 {
				foundDouble = true
				if !hasTwoSided(q, col) {
					t.Fatalf("double predicate on col %d is not a two-sided range: %v", col, q)
				}
			}
		}
	}
	if !foundDouble {
		t.Fatal("MultiPredCols produced no multi-predicate columns")
	}
}

func hasTwoSided(q Query, col int) bool {
	var lower, upper bool
	for _, p := range q.Preds {
		if p.Col != col {
			continue
		}
		switch p.Op {
		case OpGe, OpGt:
			lower = true
		case OpLe, OpLt:
			upper = true
		}
	}
	return lower && upper
}

func TestQErrorProperties(t *testing.T) {
	f := func(a, b uint32) bool {
		e := float64(a%1e8) + 0.5
		c := float64(b%1e8) + 0.5
		q := QError(e, c)
		return q >= 1 && q == QError(c, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if QError(0, 0) != 1 {
		t.Fatal("QError clamps both sides to 1")
	}
	if QError(10, 100) != 10 {
		t.Fatal("QError(10,100) should be 10")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 100})
	if s.Max != 100 || s.Median != 3 || s.N != 5 {
		t.Fatalf("%+v", s)
	}
	if math.Abs(s.Mean-22) > 1e-9 {
		t.Fatalf("mean %v", s.Mean)
	}
	if s.P75 != 4 {
		t.Fatalf("p75 %v", s.P75)
	}
	if s.P99 < 4 || s.P99 > 100 {
		t.Fatalf("p99 %v", s.P99)
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summarize")
	}
}

func TestCDFMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	fr := []float64{0.1, 0.5, 0.9, 1.0}
	cdf := CDF(vals, fr)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatalf("CDF not monotone: %v", cdf)
		}
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		sum += gammaSample(rng, 2, 3)
	}
	mean := sum / float64(n)
	if math.Abs(mean-6) > 0.3 { // E[Gamma(2,3)] = 6
		t.Fatalf("gamma mean %v want ~6", mean)
	}
}
