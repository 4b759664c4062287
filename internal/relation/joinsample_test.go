package relation

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// fojKey renders one view row's codes as a comparable key. Sampler draws and
// MultiJoin rows share dictionaries, so equal keys mean equal tuples.
func fojKey(codes []int32) string { return fmt.Sprint(codes) }

// fojHistogram counts each distinct code tuple of a materialized view.
func fojHistogram(view *Table) map[string]int {
	h := make(map[string]int, view.NumRows())
	row := make([]int32, view.NumCols())
	for r := 0; r < view.NumRows(); r++ {
		for c, col := range view.Cols {
			row[c] = col.Codes.At(r)
		}
		h[fojKey(row)]++
	}
	return h
}

// assertSameLayout verifies the sampler's table has exactly the column
// layout (names, kinds, dictionaries) MultiJoin materializes.
func assertSameLayout(t *testing.T, sampled, materialized *Table) {
	t.Helper()
	if sampled.NumCols() != materialized.NumCols() {
		t.Fatalf("sampled has %d columns, materialized %d", sampled.NumCols(), materialized.NumCols())
	}
	for i, sc := range sampled.Cols {
		mc := materialized.Cols[i]
		if sc.Name != mc.Name || sc.Kind != mc.Kind {
			t.Fatalf("column %d: sampled %s/%v, materialized %s/%v", i, sc.Name, sc.Kind, mc.Name, mc.Kind)
		}
		if sc.NumDistinct() != mc.NumDistinct() {
			t.Fatalf("column %q: sampled NDV %d, materialized NDV %d", sc.Name, sc.NumDistinct(), mc.NumDistinct())
		}
		for v := 0; v < sc.NumDistinct(); v++ {
			if sc.ValueString(int32(v)) != mc.ValueString(int32(v)) {
				t.Fatalf("column %q code %d: sampled value %q, materialized %q",
					sc.Name, v, sc.ValueString(int32(v)), mc.ValueString(int32(v)))
			}
		}
	}
}

// drawAndCheck draws n tuples, verifies every one is exactly a row of the
// materialized FOJ (codes, fanouts and NULL sentinels included), and returns
// the per-distinct-row observation counts.
func drawAndCheck(t *testing.T, s *JoinSampler, view *Table, n int) map[string]int {
	t.Helper()
	hist := fojHistogram(view)
	obs := make(map[string]int, len(hist))
	buf := make([]int32, s.NumCols())
	for i := 0; i < n; i++ {
		s.Draw(buf)
		k := fojKey(buf)
		if hist[k] == 0 {
			t.Fatalf("draw %d produced a tuple outside the FOJ: %v", i, buf)
		}
		obs[k]++
	}
	return obs
}

// chiSquare compares observed draw counts against the uniform-FOJ
// expectation and fails above the bound (deterministic: the sampler's RNG is
// seeded).
func chiSquare(t *testing.T, hist map[string]int, obs map[string]int, n, total int) {
	t.Helper()
	var chi2 float64
	for k, mult := range hist {
		exp := float64(n) * float64(mult) / float64(total)
		d := float64(obs[k]) - exp
		chi2 += d * d / exp
	}
	df := float64(len(hist) - 1)
	bound := df + 8*math.Sqrt(2*df) + 10
	if chi2 > bound {
		t.Fatalf("chi-square %.1f exceeds %.1f (df %.0f): sampler draws are not uniform over the FOJ", chi2, bound, df)
	}
	for k, mult := range hist {
		if obs[k] == 0 {
			t.Fatalf("FOJ row (multiplicity %d) never sampled in %d draws: %s", mult, n, k)
		}
	}
}

func TestJoinSamplerUnbiasedChain(t *testing.T) {
	orders, customers, regions := chainTables()
	g := chainGraph(orders, customers, regions)
	view, err := MultiJoin("ocr", g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewJoinSampler(g, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 21000
	obs := drawAndCheck(t, s, view, n)
	chiSquare(t, fojHistogram(view), obs, n, view.NumRows())

	// Dangling-row correctness, spelled out: the dangling order (cust_id 5)
	// must be drawn with customers and regions absent — NULL sentinel codes
	// and zero fanouts — and the dangling region (id 12) alone with orders
	// and customers absent and its own fanout 1.
	tbl, err := s.SampleTable("chk", 4000)
	if err != nil {
		t.Fatal(err)
	}
	col := func(name string) *Column { return tbl.Cols[tbl.ColumnIndex(name)] }
	cust, fo, fc, fr := col("orders_cust_id"), col("__fanout_orders"), col("__fanout_customers"), col("__fanout_regions")
	cid, rid := col("customers_id"), col("regions_region_id")
	sawDanglingOrder, sawDanglingRegion := false, false
	for r := 0; r < tbl.NumRows(); r++ {
		if fo.Ints[fo.Codes.At(r)] == 1 && cust.Ints[cust.Codes.At(r)] == 5 {
			sawDanglingOrder = true
			if fc.Ints[fc.Codes.At(r)] != 0 || fr.Ints[fr.Codes.At(r)] != 0 {
				t.Fatalf("dangling order drawn with nonzero partner fanouts at row %d", r)
			}
			if int(cid.Codes.At(r)) != cid.NumDistinct()-1 {
				t.Fatalf("dangling order row %d lacks the customers_id NULL sentinel", r)
			}
		}
		if fr.Ints[fr.Codes.At(r)] == 1 && rid.Ints[rid.Codes.At(r)] == 12 {
			sawDanglingRegion = true
			if fo.Ints[fo.Codes.At(r)] != 0 || fc.Ints[fc.Codes.At(r)] != 0 {
				t.Fatalf("dangling region drawn with nonzero partner fanouts at row %d", r)
			}
		}
	}
	if !sawDanglingOrder || !sawDanglingRegion {
		t.Fatalf("dangling rows missing from 4000 draws: order=%v region=%v", sawDanglingOrder, sawDanglingRegion)
	}
}

func TestJoinSamplerUnbiasedStar(t *testing.T) {
	dimA := Generate(SynConfig{Name: "da", Rows: 18, Seed: 3, Cols: []ColSpec{
		{Name: "k", NDV: 12, Skew: 0.5, Parent: -1},
		{Name: "x", NDV: 5, Skew: 1.0, Parent: 0, Noise: 0.2},
	}})
	dimB := Generate(SynConfig{Name: "db", Rows: 15, Seed: 4, Cols: []ColSpec{
		{Name: "k", NDV: 10, Skew: 0.8, Parent: -1},
		{Name: "y", NDV: 4, Skew: 1.2, Parent: 0, Noise: 0.2},
	}})
	fact := Generate(SynConfig{Name: "fact", Rows: 40, Seed: 5, Cols: []ColSpec{
		{Name: "a_k", NDV: 14, Skew: 1.1, Parent: -1},
		{Name: "b_k", NDV: 12, Skew: 1.3, Parent: -1},
	}})
	g := &JoinGraph{
		Tables: []*Table{fact, dimA, dimB},
		Edges: []JoinEdge{
			{"fact", "a_k", "da", "k"},
			{"fact", "b_k", "db", "k"},
		},
	}
	view, err := MultiJoin("star", g)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewJoinSampler(g, 11)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total() != int64(view.NumRows()) {
		t.Fatalf("star Total = %d, FOJ rows = %d", s.Total(), view.NumRows())
	}
	n := 120 * view.NumRows()
	obs := drawAndCheck(t, s, view, n)
	chiSquare(t, fojHistogram(view), obs, n, view.NumRows())
}

// fanoutChain builds the a -> b -> c -> d chain whose FOJ size scales with
// dFanout while every base table keeps the same row count: c's join key
// cycles through 1800/dFanout distinct values, so each c row matches dFanout
// d rows.
func fanoutChain(dFanout int) *JoinGraph {
	const k, nb, nc = 200, 600, 1800
	seq := func(n, mod int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i % mod)
		}
		return out
	}
	a := NewTable("a", []*Column{NewIntColumn("ak", seq(k, k)), NewIntColumn("av", seq(k, 7))})
	b := NewTable("b", []*Column{NewIntColumn("ak", seq(nb, k)), NewIntColumn("bk", seq(nb, nb)), NewIntColumn("bv", seq(nb, 5))})
	c := NewTable("c", []*Column{NewIntColumn("bk", seq(nc, nb)), NewIntColumn("ck", seq(nc, nc/dFanout)), NewIntColumn("cv", seq(nc, 6))})
	d := NewTable("d", []*Column{NewIntColumn("ck", seq(nc, nc/dFanout)), NewIntColumn("dv", seq(nc, 9))})
	return &JoinGraph{
		Tables: []*Table{a, b, c, d},
		Edges: []JoinEdge{
			{"a", "ak", "b", "ak"},
			{"b", "bk", "c", "bk"},
			{"c", "ck", "d", "ck"},
		},
	}
}

// allocDelta measures the bytes allocated by f (TotalAlloc is monotonic, so
// the measurement is GC-independent).
func allocDelta(f func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// TestJoinSamplerConstantMemory is the scale-unlock property: growing the
// FOJ ~30x (same base tables, higher fanout) grows MultiJoin's allocations
// by a large factor, while the sampler's stay roughly flat — its memory is
// O(base rows + budget), independent of join cardinality.
func TestJoinSamplerConstantMemory(t *testing.T) {
	small, big := fanoutChain(1), fanoutChain(30)
	smallCard, err := MultiJoinCardinality(small)
	if err != nil {
		t.Fatal(err)
	}
	bigCard, err := MultiJoinCardinality(big)
	if err != nil {
		t.Fatal(err)
	}
	if bigCard < 25*smallCard {
		t.Fatalf("fixture: big FOJ %d not ~30x small %d", bigCard, smallCard)
	}
	const budget = 2000
	sample := func(g *JoinGraph) int64 {
		return allocDelta(func() {
			s, err := NewJoinSampler(g, 5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SampleTable("s", budget); err != nil {
				t.Fatal(err)
			}
		})
	}
	materialize := func(g *JoinGraph) int64 {
		return allocDelta(func() {
			if _, err := MultiJoin("m", g); err != nil {
				t.Fatal(err)
			}
		})
	}
	sSmall, sBig := sample(small), sample(big)
	mSmall, mBig := materialize(small), materialize(big)
	t.Logf("alloc bytes: sampler %d -> %d, materialized %d -> %d (FOJ %d -> %d rows)",
		sSmall, sBig, mSmall, mBig, smallCard, bigCard)
	if sBig > 2*sSmall {
		t.Fatalf("sampler allocations grew %.1fx with the FOJ; want roughly flat", float64(sBig)/float64(sSmall))
	}
	if mBig < 4*mSmall {
		t.Fatalf("materialized allocations grew only %.1fx on a 30x FOJ; fixture no longer discriminates", float64(mBig)/float64(mSmall))
	}
	if sBig*4 > mBig {
		t.Fatalf("sampler (%d bytes) not clearly below materialization (%d bytes) on the big FOJ", sBig, mBig)
	}
}

// TestJoinIndexesShared: one JoinIndexes serves the exact DP over a graph and
// its subset graphs with identical results to the uncached path.
func TestJoinIndexesShared(t *testing.T) {
	orders, customers, regions := chainTables()
	g := chainGraph(orders, customers, regions)
	ix := NewJoinIndexes()

	want, err := MultiJoinCardinality(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MultiJoinCardinalityIndexed(g, ix)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("indexed cardinality %d != %d", got, want)
	}
	// Subset graphs reuse the same cache (the registry's subtree anchors).
	sub := &JoinGraph{Tables: []*Table{customers, regions},
		Edges: []JoinEdge{{"customers", "region_id", "regions", "region_id"}}}
	subWant, err := MultiJoinCardinality(sub)
	if err != nil {
		t.Fatal(err)
	}
	subGot, err := MultiJoinCardinalityIndexed(sub, ix)
	if err != nil {
		t.Fatal(err)
	}
	if subGot != subWant {
		t.Fatalf("indexed subset cardinality %d != %d", subGot, subWant)
	}
}

// BenchmarkJoinSampler is one sampled join-view construction on the big
// fanoutChain: the CSR edge indexes plus a budget-row FOJ sample, which is
// what building a sampled graph view costs however large the join is.
func BenchmarkJoinSampler(b *testing.B) {
	g := fanoutChain(10)
	const budget = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewJoinSampler(g, 5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SampleTable("s", budget); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*budget/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkMultiJoin is one materialized join view on the same big
// fanoutChain: the layout plus every one of its 18,000 FOJ rows.
func BenchmarkMultiJoin(b *testing.B) {
	g := fanoutChain(10)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		v, err := MultiJoin("m", g)
		if err != nil {
			b.Fatal(err)
		}
		rows += v.NumRows()
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}
