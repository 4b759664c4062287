package workload

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"duet/internal/relation"
)

func parseTable() *relation.Table {
	return relation.NewTable("t", []*relation.Column{
		relation.NewIntColumn("age", []int64{20, 30, 30, 40, 55}),
		relation.NewFloatColumn("score", []float64{1.5, 2.5, 2.5, 3.0, 9.5}),
		relation.NewStringColumn("state", []string{"CA", "NY", "NY", "TX", "WA"}),
	})
}

// rawMatches evaluates the textual predicate directly against raw values.
func rawMatches(t *relation.Table, row int, col string, op Op, lit string) bool {
	ci := t.ColumnIndex(col)
	c := t.Cols[ci]
	switch c.Kind {
	case relation.KindInt:
		v := c.Ints[c.Codes.At(row)]
		x, _ := strconv.ParseInt(lit, 10, 64)
		return cmpInt(v, x, op)
	case relation.KindFloat:
		v := c.Floats[c.Codes.At(row)]
		x, _ := strconv.ParseFloat(lit, 64)
		return cmpFloat(v, x, op)
	default:
		v := c.Strs[c.Codes.At(row)]
		return cmpString(v, lit, op)
	}
}

func cmpInt(a, b int64, op Op) bool {
	switch op {
	case OpEq:
		return a == b
	case OpLt:
		return a < b
	case OpGt:
		return a > b
	case OpLe:
		return a <= b
	default:
		return a >= b
	}
}

func cmpFloat(a, b float64, op Op) bool {
	switch op {
	case OpEq:
		return a == b
	case OpLt:
		return a < b
	case OpGt:
		return a > b
	case OpLe:
		return a <= b
	default:
		return a >= b
	}
}

func cmpString(a, b string, op Op) bool {
	switch op {
	case OpEq:
		return a == b
	case OpLt:
		return a < b
	case OpGt:
		return a > b
	case OpLe:
		return a <= b
	default:
		return a >= b
	}
}

func opText(op Op) string { return op.String() }

// TestParsePredicateSemantics: for every op and literal (present or absent
// in the column), the parsed predicate must select exactly the rows the raw
// comparison selects.
func TestParsePredicateSemantics(t *testing.T) {
	tbl := parseTable()
	lits := map[string][]string{
		"age":   {"19", "20", "25", "30", "55", "60"},
		"score": {"1.0", "1.5", "2.0", "2.5", "9.5", "10.5"},
	}
	for col, vals := range lits {
		for _, lit := range vals {
			for _, op := range []Op{OpEq, OpLt, OpGt, OpLe, OpGe} {
				q, err := ParseQuery(tbl, col+opText(op)+lit)
				if err != nil {
					t.Fatalf("%s %s %s: %v", col, op, lit, err)
				}
				p := q.Preds[0]
				for row := 0; row < tbl.NumRows(); row++ {
					got := p.Matches(tbl.Cols[p.Col].Codes.At(row))
					want := rawMatches(tbl, row, col, op, lit)
					if got != want {
						t.Fatalf("%s %s %s row %d: parsed %v raw %v", col, op, lit, row, got, want)
					}
				}
			}
		}
	}
}

func TestParseStringPredicates(t *testing.T) {
	tbl := parseTable()
	for _, tc := range []struct {
		expr string
		want int // matching rows
	}{
		{"state='NY'", 2},
		{"state='MT'", 0},  // absent value
		{"state<'NY'", 1},  // CA
		{"state>='NY'", 4}, // NY,NY,TX,WA
		{"state<='OK'", 3}, // CA,NY,NY (OK absent)
	} {
		q, err := ParseQuery(tbl, tc.expr)
		if err != nil {
			t.Fatal(err)
		}
		count := 0
		p := q.Preds[0]
		for row := 0; row < tbl.NumRows(); row++ {
			if p.Matches(tbl.Cols[p.Col].Codes.At(row)) {
				count++
			}
		}
		if count != tc.want {
			t.Fatalf("%s: %d rows, want %d", tc.expr, count, tc.want)
		}
	}
}

func TestParseConjunction(t *testing.T) {
	tbl := parseTable()
	// AND is case-insensitive.
	for _, expr := range []string{
		"age>=30 AND state='NY' AND score<3.0",
		"age>=30 and state='NY' And score<3.0",
	} {
		q, err := ParseQuery(tbl, expr)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Preds) != 3 {
			t.Fatalf("%q: got %d predicates", expr, len(q.Preds))
		}
	}
}

func TestParseErrors(t *testing.T) {
	tbl := parseTable()
	for _, tc := range []struct {
		expr, wantSub string
	}{
		{"bogus=1", "unknown column"},
		{"age~5", "cannot parse"},        // bad operator
		{"state=NY", "cannot parse"},     // unquoted bare identifier
		{"age='x'", "string literal"},    // string literal on int column
		{"age >= ", "cannot parse"},      // missing value
		{"score='hi'", "string literal"}, // string literal on float column
		{"state<=3", "unquoted literal"}, // numeric literal on string column
		{"age=1 AND bogus=2", "unknown column"},
		{"other.age>=30", `does not match table "t"`},      // wrong qualifier
		{"a.x = b.y", "join view"},                         // join clause on a single table
		{"age>=30 AND a.x = b.y", "join view"},             // join clause mixed with predicates
		{"x = b.y", "qualified left side"},                 // unqualified join lhs
		{"a.x < b.y", "only equality"},                     // non-equi join
		{"a.x = a.y", "relates a table to itself"},         // self join
		{"a.x = b.y AND a.x = b.y", "duplicate join pred"}, // duplicate clause
		{"a.x = b.y AND b.y = a.x", "duplicate join pred"}, // duplicate, flipped
		{"age=1 AND AND age=2", "cannot parse"},            // overlapping separators
		{"age=1 AND ſtate='NY'", "cannot parse"},           // ſ upper-cases to one byte fewer
	} {
		_, err := ParseQuery(tbl, tc.expr)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("ParseQuery(%q) = %v, want substring %q", tc.expr, err, tc.wantSub)
		}
	}
	if q, err := ParseQuery(tbl, "  "); err != nil || len(q.Preds) != 0 {
		t.Fatal("blank input should parse to the empty query")
	}
}

func TestParseQualifiedColumns(t *testing.T) {
	tbl := parseTable()
	q, err := ParseQuery(tbl, "t.age>=30 AND t.state='NY'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 || q.Preds[0].Col != 0 || q.Preds[1].Col != 2 {
		t.Fatalf("qualified parse: %v", q)
	}
	// Qualified and unqualified forms resolve identically.
	q2, err := ParseQuery(tbl, "age>=30 AND state='NY'")
	if err != nil {
		t.Fatal(err)
	}
	for i := range q.Preds {
		if q.Preds[i] != q2.Preds[i] {
			t.Fatalf("qualified %v != unqualified %v", q.Preds[i], q2.Preds[i])
		}
	}
}

func TestParseRawJoinSyntax(t *testing.T) {
	rq, err := ParseRaw("orders.cust_id = customers.id AND orders.amount<=10 AND region>2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rq.Joins) != 1 || len(rq.Preds) != 2 {
		t.Fatalf("raw parse: %+v", rq)
	}
	j := rq.Joins[0]
	if j.LeftTable != "orders" || j.LeftCol != "cust_id" || j.RightTable != "customers" || j.RightCol != "id" {
		t.Fatalf("join clause: %+v", j)
	}
	if rq.Preds[0].Table != "orders" || rq.Preds[0].Column != "amount" || rq.Preds[0].Op != OpLe || rq.Preds[0].Lit != "10" {
		t.Fatalf("first predicate: %+v", rq.Preds[0])
	}
	if rq.Preds[1].Table != "" || rq.Preds[1].Column != "region" {
		t.Fatalf("second predicate: %+v", rq.Preds[1])
	}
	// Whitespace around the dots is tolerated.
	rq2, err := ParseRaw("a . x = b . y")
	if err != nil || len(rq2.Joins) != 1 {
		t.Fatalf("spaced join: %+v %v", rq2, err)
	}
	// Canonical ordering makes the clause orientation-insensitive.
	flip := relation.JoinEdge{LeftTable: "b", LeftCol: "y", RightTable: "a", RightCol: "x"}
	if rq2.Joins[0].Canonical() != flip.Canonical() {
		t.Fatal("canonical clauses differ")
	}
	// Two distinct join clauses parse (the router rejects multi-way, not the parser).
	rq3, err := ParseRaw("a.x = b.y AND b.z = c.w")
	if err != nil || len(rq3.Joins) != 2 {
		t.Fatalf("two joins: %+v %v", rq3, err)
	}
}

func TestParseMultiJoinClauseSets(t *testing.T) {
	// A 3-table chain carries two join clauses plus predicates.
	rq, err := ParseRaw("orders.cust_id = customers.id AND customers.region_id = regions.id AND orders.amount<=10 AND regions.pop>100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rq.Joins) != 2 || len(rq.Preds) != 2 {
		t.Fatalf("chain parse: %+v", rq)
	}
	if got := rq.JoinTables(); len(got) != 3 || got[0] != "customers" || got[1] != "orders" || got[2] != "regions" {
		t.Fatalf("JoinTables = %v", got)
	}
	if !relation.Connected(rq.Joins) {
		t.Fatal("chain clauses reported disconnected")
	}

	// JoinSetKey is orientation- and order-insensitive.
	a, _ := ParseRaw("orders.cust_id = customers.id AND customers.region_id = regions.id")
	b, _ := ParseRaw("regions.id = customers.region_id AND customers.id = orders.cust_id")
	if JoinSetKey(a.Joins) != JoinSetKey(b.Joins) {
		t.Fatalf("set keys differ: %q vs %q", JoinSetKey(a.Joins), JoinSetKey(b.Joins))
	}
	c, _ := ParseRaw("orders.cust_id = customers.id")
	if JoinSetKey(a.Joins) == JoinSetKey(c.Joins) {
		t.Fatal("different clause sets share a key")
	}

	// A star over 4 tables parses with three clauses.
	star, err := ParseRaw("f.a = da.k AND f.b = db.k AND f.c = dc.k AND f.m>1")
	if err != nil || len(star.Joins) != 3 || len(star.Preds) != 1 {
		t.Fatalf("star parse: %+v %v", star, err)
	}
	if !relation.Connected(star.Joins) {
		t.Fatal("star clauses reported disconnected")
	}

	// Disconnected clause pairs (a cross product of two joins) are detected.
	x, err := ParseRaw("a.x = b.y AND c.z = d.w")
	if err != nil {
		t.Fatal(err)
	}
	if relation.Connected(x.Joins) {
		t.Fatal("disconnected clauses reported connected")
	}
	if none, _ := ParseRaw("m>1"); relation.Connected(none.Joins) {
		t.Fatal("join-free query reported connected")
	}
}

func TestParseQuotedAndKeepsQuotes(t *testing.T) {
	tbl := relation.NewTable("t", []*relation.Column{
		relation.NewStringColumn("s", []string{"x AND y", "z"}),
		relation.NewIntColumn("n", []int64{1, 2}),
	})
	q, err := ParseQuery(tbl, "s='x AND y' AND n=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("quoted AND split incorrectly: %d preds", len(q.Preds))
	}
}

func TestParseRoundtripProperty(t *testing.T) {
	tbl := parseTable()
	f := func(v int16, opRaw uint8) bool {
		op := Op(opRaw % NumOps)
		expr := "age" + opText(op) + strconv.Itoa(int(v))
		q, err := ParseQuery(tbl, expr)
		if err != nil {
			return false
		}
		p := q.Preds[0]
		for row := 0; row < tbl.NumRows(); row++ {
			if p.Matches(tbl.Cols[0].Codes.At(row)) != rawMatches(tbl, row, "age", op, strconv.Itoa(int(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestParseBeyondDictionaryClamps: literals past every dictionary value must
// resolve to in-domain codes (value encoders index by code, so code == NDV
// would crash them) with the degenerate always-true/always-false semantics.
// This is the path drifted feedback queries hit: the workload references
// values the trained snapshot has never seen.
func TestParseBeyondDictionaryClamps(t *testing.T) {
	tbl := parseTable()
	ndv := int32(tbl.Cols[0].NumDistinct())
	cases := []struct {
		expr  string
		empty bool // whether the interval must be empty
	}{
		{"age>=100", true},
		{"age>100", true},
		{"age=100", true},
		{"age<100", false},
		{"age<=100", false},
	}
	for _, tc := range cases {
		q, err := ParseQuery(tbl, tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.expr, err)
		}
		p := q.Preds[0]
		if p.Code < 0 || p.Code >= ndv {
			t.Fatalf("%s: out-of-domain code %d (NDV %d)", tc.expr, p.Code, ndv)
		}
		lo, hi := p.Interval(int(ndv))
		if got := lo > hi; got != tc.empty {
			t.Fatalf("%s: interval [%d,%d] empty=%v, want %v", tc.expr, lo, hi, got, tc.empty)
		}
		if !tc.empty && (lo != 0 || hi != ndv-1) {
			t.Fatalf("%s: want the full domain, got [%d,%d]", tc.expr, lo, hi)
		}
	}
}

// TestParseIntegerBeyondInt64: a literal past either end of int64 compares
// with an integer column as the number it is, even on a column that holds
// MinInt64, where the float conversion used to land.
func TestParseIntegerBeyondInt64(t *testing.T) {
	tbl := relation.NewTable("t", []*relation.Column{
		relation.NewIntColumn("i", []int64{math.MinInt64, 5, 7}),
	})
	for _, tc := range []struct {
		lit  string
		rows map[Op]int // rows each op selects
	}{
		{"99999999999999999999", map[Op]int{OpLt: 3, OpLe: 3, OpEq: 0, OpGt: 0, OpGe: 0}},
		{"9223372036854775808", map[Op]int{OpLt: 3, OpLe: 3, OpEq: 0, OpGt: 0, OpGe: 0}},
		{"-99999999999999999999", map[Op]int{OpLt: 0, OpLe: 0, OpEq: 0, OpGt: 3, OpGe: 3}},
		{"-9223372036854775809", map[Op]int{OpLt: 0, OpLe: 0, OpEq: 0, OpGt: 3, OpGe: 3}},
		{"99999999999999999999.5", map[Op]int{OpLt: 3, OpLe: 3, OpEq: 0, OpGt: 0, OpGe: 0}},
		{"-99999999999999999999.5", map[Op]int{OpLt: 0, OpLe: 0, OpEq: 0, OpGt: 3, OpGe: 3}},
	} {
		for op, want := range tc.rows {
			expr := "i" + opText(op) + tc.lit
			q, err := ParseQuery(tbl, expr)
			if err != nil {
				t.Fatalf("%s: %v", expr, err)
			}
			p, got := q.Preds[0], 0
			for row := 0; row < tbl.NumRows(); row++ {
				if p.Matches(tbl.Cols[0].Codes.At(row)) {
					got++
				}
			}
			if got != want {
				t.Errorf("%s parses to %v, which selects %d rows, want %d", expr, p, got, want)
			}
		}
	}
	if _, err := ParseQuery(tbl, "i<NaN"); err == nil {
		t.Error("i<NaN parsed")
	}
}

// FuzzParseQuery feeds arbitrary text to ParseRaw and to ParseQuery over
// parseTable: neither may panic, ParseQuery accepts only what ParseRaw
// splits into join-free predicates, one each, and a query it returns has
// every predicate on a column of the table with an in-domain code, so
// ColumnIntervals and CanonicalKey run on it.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"age>=30 AND state='NY' AND score<3.0",
		"age>=30 and state='NY' And score<3.0",
		"t.age>=30 AND t.state='NY'",
		"state<='OK'",
		"score>10.5",
		"age<100",
		"age=25.5",
		"s='x AND y' AND n=2",
		"age~5",
		"age >= ",
		"state=NY",
		"other.age>=30",
		"age>=30 AND a.x = b.y",
		"orders.cust_id = customers.id AND orders.amount<=10 AND region>2",
		"a . x = b . y",
		"a.x = b.y AND b.y = a.x",
		"  ",
	} {
		f.Add(s)
	}
	tbl := parseTable()
	f.Fuzz(func(t *testing.T, s string) {
		rq, rawErr := ParseRaw(s)
		q, err := ParseQuery(tbl, s)
		if err != nil {
			return
		}
		if rawErr != nil || len(rq.Joins) != 0 || len(rq.Preds) != len(q.Preds) {
			t.Fatalf("ParseQuery(%q) = %v, but ParseRaw gives %+v, %v", s, q, rq, rawErr)
		}
		for _, p := range q.Preds {
			if p.Col < 0 || p.Col >= tbl.NumCols() || p.Op >= NumOps || p.Code < 0 || int(p.Code) >= tbl.Cols[p.Col].NumDistinct() {
				t.Fatalf("ParseQuery(%q): predicate %v is outside the table", s, p)
			}
		}
		if ivs := q.ColumnIntervals(tbl); len(ivs) != tbl.NumCols() {
			t.Fatalf("ParseQuery(%q): %d column intervals for %d columns", s, len(ivs), tbl.NumCols())
		}
		q.CanonicalKey()
	})
}

// TestParseQueryAllocs: two predicates over a census table parse in ten
// allocations, whether their literals are integers or fractions compared on
// an integer column.
func TestParseQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tbl := relation.SynCensus(2000, 1)
	for _, expr := range []string{"age<=40 AND hours>30", "age<=40.5 AND hours>30.25"} {
		if a := testing.AllocsPerRun(100, func() { ParseQuery(tbl, expr) }); a > 10 {
			t.Fatalf("ParseQuery(%q) allocates %v times, want at most 10", expr, a)
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool
