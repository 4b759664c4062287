package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// chainTables builds a small orders -> customers -> regions chain with
// dangling rows on every side so the full outer join is exercised.
func chainTables() (orders, customers, regions *Table) {
	// customers: ids 1..4; customer 4 has no orders, region 9 is unknown.
	customers = NewTable("customers", []*Column{
		NewIntColumn("id", []int64{1, 2, 3, 4}),
		NewIntColumn("region_id", []int64{10, 11, 10, 9}),
	})
	// orders: cust_id 5 matches no customer (dangling order).
	orders = NewTable("orders", []*Column{
		NewIntColumn("cust_id", []int64{1, 1, 2, 3, 5}),
		NewIntColumn("amount", []int64{7, 8, 7, 9, 6}),
	})
	// regions: region 12 has no customers (dangling region).
	regions = NewTable("regions", []*Column{
		NewIntColumn("region_id", []int64{10, 11, 12}),
		NewIntColumn("pop", []int64{100, 200, 300}),
	})
	return orders, customers, regions
}

func chainGraph(orders, customers, regions *Table) *JoinGraph {
	return &JoinGraph{
		Tables: []*Table{orders, customers, regions},
		Edges: []JoinEdge{
			{"orders", "cust_id", "customers", "id"},
			{"customers", "region_id", "regions", "region_id"},
		},
	}
}

// bruteChainInner counts the 3-way inner join by nested hash joins on raw
// values, independently of MultiJoin.
func bruteChainInner(orders, customers, regions *Table) int64 {
	regByID := map[int64]int64{}
	for r := 0; r < regions.NumRows(); r++ {
		regByID[regions.Cols[0].Ints[regions.Cols[0].Codes.At(r)]]++
	}
	custByID := map[int64]int64{}
	for r := 0; r < customers.NumRows(); r++ {
		id := customers.Cols[0].Ints[customers.Cols[0].Codes.At(r)]
		reg := customers.Cols[1].Ints[customers.Cols[1].Codes.At(r)]
		custByID[id] += regByID[reg]
	}
	var total int64
	for r := 0; r < orders.NumRows(); r++ {
		total += custByID[orders.Cols[0].Ints[orders.Cols[0].Codes.At(r)]]
	}
	return total
}

func TestMultiJoinChain(t *testing.T) {
	orders, customers, regions := chainTables()
	g := chainGraph(orders, customers, regions)
	joined, err := MultiJoin("ocr", g)
	if err != nil {
		t.Fatal(err)
	}

	// Expected full outer join by hand: orders 1,1,2,3 match customers 1,2,3
	// which match regions 10,11,10 -> 4 fully joined rows. Order with
	// cust_id=5 survives alone among orders; customer 4 survives with region
	// NULL (its region 9 is unknown); region 12 survives alone.
	// Rows: 4 (inner) + 1 (dangling order) + 1 (customer 4) + 1 (region 12).
	if got := joined.NumRows(); got != 7 {
		t.Fatalf("FOJ rows = %d, want 7", got)
	}

	// Columns: per table its source columns then its fanout column.
	wantCols := []string{
		"orders_cust_id", "orders_amount", "__fanout_orders",
		"customers_id", "customers_region_id", "__fanout_customers",
		"regions_region_id", "regions_pop", "__fanout_regions",
	}
	if joined.NumCols() != len(wantCols) {
		t.Fatalf("got %d columns", joined.NumCols())
	}
	for i, w := range wantCols {
		if joined.Cols[i].Name != w {
			t.Fatalf("column %d = %q, want %q", i, joined.Cols[i].Name, w)
		}
	}

	// Inner-join recovery: rows where every fanout >= 1 must match both the
	// DP cardinality and the brute-force hash join.
	want := bruteChainInner(orders, customers, regions)
	dp, err := MultiJoinCardinality(g)
	if err != nil {
		t.Fatal(err)
	}
	if dp != want {
		t.Fatalf("MultiJoinCardinality = %d, brute force = %d", dp, want)
	}
	var inner int64
	fanIdx := []int{joined.ColumnIndex("__fanout_orders"), joined.ColumnIndex("__fanout_customers"), joined.ColumnIndex("__fanout_regions")}
	for r := 0; r < joined.NumRows(); r++ {
		all := true
		for _, fi := range fanIdx {
			c := joined.Cols[fi]
			if c.Ints[c.Codes.At(r)] < 1 {
				all = false
				break
			}
		}
		if all {
			inner++
		}
	}
	if inner != want {
		t.Fatalf("all-fanout>=1 rows = %d, want inner join %d", inner, want)
	}

	// Every base row survives: each base value multiset must appear.
	amount := joined.Cols[joined.ColumnIndex("orders_amount")]
	seen := map[int64]int{}
	foOrders := joined.Cols[fanIdx[0]]
	for r := 0; r < joined.NumRows(); r++ {
		if foOrders.Ints[foOrders.Codes.At(r)] >= 1 {
			seen[amount.Ints[amount.Codes.At(r)]]++
		}
	}
	for _, a := range []int64{6, 7, 8, 9} {
		if seen[a] == 0 {
			t.Fatalf("order amount %d lost by the outer join", a)
		}
	}

	// NULL sentinels sort past every real value: customers_id has max 4, so
	// its sentinel is 5 and absent rows carry the last code.
	cid := joined.Cols[joined.ColumnIndex("customers_id")]
	if got := cid.Ints[cid.NumDistinct()-1]; got != 5 {
		t.Fatalf("customers_id NULL sentinel = %d, want 5", got)
	}
}

// starGraph is a star: fact in the middle, two dimensions, generated with
// skew so fanouts vary.
func starGraph() *JoinGraph {
	dimA := Generate(SynConfig{Name: "da", Rows: 60, Seed: 3, Cols: []ColSpec{
		{Name: "k", NDV: 40, Skew: 0.5, Parent: -1},
		{Name: "x", NDV: 8, Skew: 1.0, Parent: 0, Noise: 0.2},
	}})
	dimB := Generate(SynConfig{Name: "db", Rows: 50, Seed: 4, Cols: []ColSpec{
		{Name: "k", NDV: 30, Skew: 0.8, Parent: -1},
		{Name: "y", NDV: 6, Skew: 1.2, Parent: 0, Noise: 0.2},
	}})
	fact := Generate(SynConfig{Name: "fact", Rows: 200, Seed: 5, Cols: []ColSpec{
		{Name: "a_k", NDV: 45, Skew: 1.1, Parent: -1},
		{Name: "b_k", NDV: 35, Skew: 1.3, Parent: -1},
	}})
	return &JoinGraph{
		Tables: []*Table{fact, dimA, dimB},
		Edges: []JoinEdge{
			{"fact", "a_k", "da", "k"},
			{"fact", "b_k", "db", "k"},
		},
	}
}

func TestMultiJoinStarMatchesDP(t *testing.T) {
	g := starGraph()
	joined, err := MultiJoin("star", g)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := MultiJoinCardinality(g)
	if err != nil {
		t.Fatal(err)
	}
	var inner int64
	fanCols := []*Column{
		joined.Cols[joined.ColumnIndex(FanoutColumn("fact"))],
		joined.Cols[joined.ColumnIndex(FanoutColumn("da"))],
		joined.Cols[joined.ColumnIndex(FanoutColumn("db"))],
	}
	for r := 0; r < joined.NumRows(); r++ {
		all := true
		for _, c := range fanCols {
			if c.Ints[c.Codes.At(r)] < 1 {
				all = false
				break
			}
		}
		if all {
			inner++
		}
	}
	if inner != dp {
		t.Fatalf("star inner rows %d != DP cardinality %d", inner, dp)
	}
}

func TestJoinGraphValidation(t *testing.T) {
	orders, customers, regions := chainTables()
	for _, tc := range []struct {
		name string
		g    *JoinGraph
		want string
	}{
		{"one table", &JoinGraph{Tables: []*Table{orders}}, "at least 2 tables"},
		{"missing edge", &JoinGraph{Tables: []*Table{orders, customers, regions},
			Edges: []JoinEdge{{"orders", "cust_id", "customers", "id"}}}, "spanning tree"},
		{"cycle", &JoinGraph{Tables: []*Table{orders, customers},
			Edges: []JoinEdge{{"orders", "cust_id", "customers", "id"}, {"orders", "amount", "customers", "region_id"}}}, "spanning tree"},
		{"disconnected", &JoinGraph{Tables: []*Table{orders, customers, regions},
			Edges: []JoinEdge{{"orders", "cust_id", "customers", "id"}, {"customers", "id", "orders", "amount"}}}, "not connected"},
		{"unknown table", &JoinGraph{Tables: []*Table{orders, customers},
			Edges: []JoinEdge{{"orders", "cust_id", "nope", "id"}}}, "outside the graph"},
		{"unknown column", &JoinGraph{Tables: []*Table{orders, customers},
			Edges: []JoinEdge{{"orders", "bogus", "customers", "id"}}}, "not found"},
		{"self join", &JoinGraph{Tables: []*Table{orders, customers},
			Edges: []JoinEdge{{"orders", "cust_id", "orders", "amount"}}}, "to itself"},
	} {
		if _, err := MultiJoin("x", tc.g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MultiJoin err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Kind mismatch through a string column.
	s := NewTable("s", []*Column{NewStringColumn("k", []string{"1", "2"})})
	g := &JoinGraph{Tables: []*Table{orders, s}, Edges: []JoinEdge{{"orders", "cust_id", "s", "k"}}}
	if _, err := MultiJoin("x", g); err == nil || !strings.Contains(err.Error(), "kinds differ") {
		t.Fatalf("kind mismatch: %v", err)
	}
}

// TestMultiJoinMatchesEquiJoinInner: restricting the 2-table FOJ to rows with
// both fanouts >= 1 yields exactly as many rows as the legacy inner EquiJoin.
func TestMultiJoinMatchesEquiJoinInner(t *testing.T) {
	orders, customers, _ := chainTables()
	inner, err := EquiJoin("oc", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	g := &JoinGraph{Tables: []*Table{orders, customers},
		Edges: []JoinEdge{{"orders", "cust_id", "customers", "id"}}}
	foj, err := MultiJoin("oc_foj", g)
	if err != nil {
		t.Fatal(err)
	}
	fo := foj.Cols[foj.ColumnIndex(FanoutColumn("orders"))]
	fc := foj.Cols[foj.ColumnIndex(FanoutColumn("customers"))]
	var n int
	for r := 0; r < foj.NumRows(); r++ {
		if fo.Ints[fo.Codes.At(r)] >= 1 && fc.Ints[fc.Codes.At(r)] >= 1 {
			n++
		}
	}
	if n != inner.NumRows() {
		t.Fatalf("FOJ inner rows %d != EquiJoin rows %d", n, inner.NumRows())
	}
}

// referenceMultiJoin is the generation-by-generation full outer join MultiJoin
// once ran, kept as the oracle MultiJoin's walk must reproduce bit for bit:
// seeded with every root row, each BFS edge in turn expands every row by its
// matches (or keeps it when the parent is absent or unmatched) and appends
// the edge's dangling child rows; the view is then projected from the final
// row assignments, with dictionaries and NULL sentinels read off them.
func referenceMultiJoin(name string, g *JoinGraph) (*Table, error) {
	tree, err := g.validate()
	if err != nil {
		return nil, err
	}
	nt := len(g.Tables)
	type fojRow struct{ asg, fan []int32 } // per table: base row (-1 absent), fanout
	blank := func() fojRow {
		r := fojRow{make([]int32, nt), make([]int32, nt)}
		for i := range r.asg {
			r.asg[i] = -1
		}
		return r
	}
	clone := func(r fojRow) fojRow {
		return fojRow{append([]int32(nil), r.asg...), append([]int32(nil), r.fan...)}
	}
	var cur []fojRow
	for r := 0; r < g.Tables[0].NumRows(); r++ {
		row := blank()
		row.asg[0] = int32(r)
		cur = append(cur, row)
	}
	for _, te := range tree {
		o := (*JoinIndexes)(nil).orientedFor(g, te)
		pc, cc := g.Tables[te.parent].Cols[te.parentCol], g.Tables[te.child].Cols[te.childCol]
		var next []fojRow
		for _, row := range cur {
			p := row.asg[te.parent]
			if p < 0 || o.childCode(pc.Codes.At(int(p))) < 0 {
				next = append(next, row)
				continue
			}
			ms := o.matches(o.childCode(pc.Codes.At(int(p))))
			for _, m := range ms {
				j := clone(row)
				j.asg[te.child], j.fan[te.child] = m, int32(len(ms))
				next = append(next, j)
			}
		}
		for r := 0; r < g.Tables[te.child].NumRows(); r++ {
			if o.dangling(cc.Codes.At(r)) {
				row := blank()
				row.asg[te.child], row.fan[te.child] = int32(r), 1
				next = append(next, row)
			}
		}
		cur = next
	}
	for _, row := range cur {
		if row.asg[0] >= 0 {
			row.fan[0] = 1
		}
	}
	var cols []*Column
	for ti, t := range g.Tables {
		absent := false
		for _, row := range cur {
			absent = absent || row.asg[ti] < 0
		}
		for _, src := range t.Cols {
			out, err := dictWithNull(JoinViewColumn(t.Name, src.Name), src, absent)
			if err != nil {
				return nil, err
			}
			codes := make([]int32, len(cur))
			for i, row := range cur {
				if a := row.asg[ti]; a < 0 {
					codes[i] = int32(src.NumDistinct())
				} else {
					codes[i] = src.Codes.At(int(a))
				}
			}
			out.Codes = I32Codes(codes)
			cols = append(cols, out)
		}
		fv := make([]int64, len(cur))
		for i, row := range cur {
			fv[i] = int64(row.fan[ti])
		}
		cols = append(cols, NewIntColumn(FanoutColumn(t.Name), fv))
	}
	return NewTable(name, cols), nil
}

// randomJoinTree builds a random join tree of 2-5 tables: a random shape and
// root, random edge orientation and order, int or string keys over small
// overlapping domains (so fanouts vary and rows dangle on every side), and
// some empty tables.
func randomJoinTree(rng *rand.Rand) *JoinGraph {
	nt := 2 + rng.Intn(4)
	rows := make([]int, nt)
	for i := range rows {
		if rng.Intn(6) > 0 {
			rows[i] = 1 + rng.Intn(7)
		}
	}
	type edge struct{ a, b int }
	edges := make([]edge, nt-1)
	for i := 1; i < nt; i++ {
		edges[i-1] = edge{rng.Intn(i), i}
	}
	keys := make([][]*Column, nt)
	for ei, e := range edges {
		str := rng.Intn(2) == 0
		for _, ti := range []int{e.a, e.b} {
			dom := 1 + rng.Intn(5)
			off := rng.Intn(3)
			name := fmt.Sprintf("k%d", ei)
			vals := make([]int64, rows[ti])
			for r := range vals {
				vals[r] = int64(off + rng.Intn(dom))
			}
			if str {
				ss := make([]string, len(vals))
				for r, v := range vals {
					ss[r] = fmt.Sprint(v)
				}
				keys[ti] = append(keys[ti], NewStringColumn(name, ss))
			} else {
				keys[ti] = append(keys[ti], NewIntColumn(name, vals))
			}
		}
	}
	perm := rng.Perm(nt) // table i is placed at position perm[i]: a random root
	g := &JoinGraph{Tables: make([]*Table, nt)}
	for ti := range rows {
		vals := make([]float64, rows[ti])
		for r := range vals {
			vals[r] = float64(rng.Intn(3)) / 2
		}
		cols := append(keys[ti], NewFloatColumn("v", vals))
		g.Tables[perm[ti]] = NewTable(fmt.Sprintf("t%d", ti), cols)
	}
	for _, ei := range rng.Perm(len(edges)) {
		e := edges[ei]
		je := JoinEdge{fmt.Sprintf("t%d", e.a), fmt.Sprintf("k%d", ei), fmt.Sprintf("t%d", e.b), fmt.Sprintf("k%d", ei)}
		if rng.Intn(2) == 0 {
			je.LeftTable, je.RightTable = je.RightTable, je.LeftTable
		}
		g.Edges = append(g.Edges, je)
	}
	return g
}

// assertSameView fails unless got equals want in row count, column names and
// kinds, dictionaries and every code.
func assertSameView(t *testing.T, label string, got, want *Table) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: view is %dx%d, reference %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c, gc := range got.Cols {
		wc := want.Cols[c]
		if gc.Name != wc.Name || gc.Kind != wc.Kind {
			t.Fatalf("%s: column %d is %s/%v, reference %s/%v", label, c, gc.Name, gc.Kind, wc.Name, wc.Kind)
		}
		if !slices.Equal(gc.Ints, wc.Ints) || !slices.Equal(gc.Floats, wc.Floats) || !slices.Equal(gc.Strs, wc.Strs) {
			t.Fatalf("%s: column %q dictionary differs from the reference", label, gc.Name)
		}
		if gi, wi := DecodeCodes(gc.Codes), DecodeCodes(wc.Codes); !slices.Equal(gi, wi) {
			t.Fatalf("%s: column %q codes differ from the reference:\n got %v\nwant %v", label, gc.Name, gi, wi)
		}
	}
}

// TestMultiJoinMatchesReference: MultiJoin reproduces the reference assembly
// bit for bit — row order, dictionaries, NULL sentinels and fanout codes —
// on the fixtures and on random join trees, and a sampled view built over the
// same graph has exactly the reference layout.
func TestMultiJoinMatchesReference(t *testing.T) {
	orders, customers, regions := chainTables()
	emptyRoot := NewTable("orders", []*Column{NewIntColumn("cust_id", nil), NewIntColumn("amount", nil)})
	a := NewTable("a", []*Column{NewIntColumn("k", []int64{1, 2, 3}), NewIntColumn("x", []int64{5, 6, 7})})
	b := NewTable("b", []*Column{NewIntColumn("k", []int64{1, 2, 3}), NewIntColumn("y", []int64{8, 9, 8})})
	// The outrigger hangs a table off one arm of the star, so the BFS edge
	// order (fact-da, fact-db, da-dx) differs from a DFS (fact-da, da-dx,
	// fact-db) and so does the row order each produces.
	outrigger := starGraph()
	outrigger.Tables = append(outrigger.Tables, NewTable("dx", []*Column{
		NewIntColumn("x", []int64{0, 1, 1, 2, 3, 5, 8, 9, 9}), NewIntColumn("z", []int64{1, 2, 3, 1, 2, 3, 1, 2, 3})}))
	outrigger.Edges = append(outrigger.Edges, JoinEdge{"da", "x", "dx", "x"})
	labels := []string{"chain", "chain-empty-root", "fully-matched", "star", "star-outrigger", "fanout1", "fanout10"}
	graphs := []*JoinGraph{
		chainGraph(orders, customers, regions),
		chainGraph(emptyRoot, customers, regions),
		{Tables: []*Table{a, b}, Edges: []JoinEdge{{"a", "k", "b", "k"}}},
		starGraph(),
		outrigger,
		fanoutChain(1),
		fanoutChain(10),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		labels = append(labels, fmt.Sprintf("random%d", i))
		graphs = append(graphs, randomJoinTree(rng))
	}
	for i, g := range graphs {
		label := labels[i]
		want, err := referenceMultiJoin("v", g)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		got, err := MultiJoin("v", g)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertSameView(t, label, got, want)
		s, err := NewJoinSampler(g, 1)
		if want.NumRows() == 0 {
			if err == nil {
				t.Fatalf("%s: sampler over an empty FOJ built without error", label)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: sampler: %v", label, err)
		}
		if s.Total() != int64(want.NumRows()) {
			t.Fatalf("%s: sampler Total = %d, FOJ rows = %d", label, s.Total(), want.NumRows())
		}
		sampled, err := s.SampleTable("v", 8)
		if err != nil {
			t.Fatal(err)
		}
		assertSameLayout(t, sampled, want)
	}
}

// TestJoinIndexesRebuildReplacedTable: a cached edge index serves only the
// columns it was built over. Counting over a replacement table of the same
// name (a grown generation) rebuilds the edge in place, so the count is the
// new table's and the cache still holds one index per edge.
func TestJoinIndexesRebuildReplacedTable(t *testing.T) {
	orders, customers, regions := chainTables()
	ix := NewJoinIndexes()
	count := func(c *Table) int64 {
		t.Helper()
		n, err := MultiJoinCardinalityIndexed(chainGraph(orders, c, regions), ix)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MultiJoinCardinality(chainGraph(orders, c, regions))
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Fatalf("cached count %d, uncached %d", n, want)
		}
		return n
	}
	before := count(customers)
	// Customer 0, without orders, in the unknown region 9: the id dictionary
	// gains a new first value, so every code an index translates to shifts
	// while the join size stays.
	grown, err := AppendRows(customers, [][]string{{"0", "9"}})
	if err != nil {
		t.Fatal(err)
	}
	if after := count(grown); after != before {
		t.Fatalf("count over the grown table %d, want %d", after, before)
	}
	if len(ix.byKey) != 2 {
		t.Fatalf("cache holds %d edge indexes, want one per edge (2)", len(ix.byKey))
	}
	if count(customers) != before {
		t.Fatal("count over the original table changed")
	}
}
