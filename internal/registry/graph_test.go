package registry

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/serve"
	"duet/internal/workload"
)

// chainBase generates the orders -> customers -> regions chain with dangling
// rows on every edge (orders without customers, customers in unknown regions,
// regions without customers).
func chainBase() (orders, customers, regions *relation.Table) {
	regions = relation.Generate(relation.SynConfig{
		Name: "regions", Rows: 40, Seed: 7,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 40, Skew: 0, Parent: -1},
			{Name: "pop", NDV: 10, Skew: 1.1, Parent: 0, Noise: 0.2},
		},
	})
	customers = relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 300, Seed: 8,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 330, Skew: 0, Parent: -1},
			{Name: "region_id", NDV: 44, Skew: 1.1, Parent: -1},
			{Name: "segment", NDV: 6, Skew: 1.3, Parent: 1, Noise: 0.2},
		},
	})
	orders = relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 900, Seed: 9,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 360, Skew: 1.2, Parent: -1},
			{Name: "amount", NDV: 32, Skew: 1.4, Parent: 0, Noise: 0.3},
		},
	})
	return orders, customers, regions
}

func chainSpec() *JoinGraphSpec {
	return &JoinGraphSpec{
		Tables: []string{"orders", "customers", "regions"},
		Edges: []relation.JoinEdge{
			{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
			{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
		},
	}
}

// trainN fits a small model for the given epochs (0 = untrained),
// deterministically.
func trainN(tb *relation.Table, seed int64, epochs int) *core.Model {
	m := core.NewModel(tb, smallConfig(seed))
	if epochs > 0 {
		tc := core.DefaultTrainConfig()
		tc.Epochs = epochs
		tc.Lambda = 0
		tc.Seed = seed
		core.Train(m, tc)
	}
	return m
}

// graphFixture registers the three base tables and the 3-table chain view.
func graphFixture(t *testing.T, epochs int) (*Registry, *relation.Table) {
	t.Helper()
	orders, customers, regions := chainBase()
	view, err := relation.MultiJoin("ocr", &relation.JoinGraph{
		Tables: []*relation.Table{orders, customers, regions},
		Edges: []relation.JoinEdge{
			{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
			{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg.Close() })
	for seed, tb := range map[int64]*relation.Table{41: orders, 42: customers, 43: regions} {
		if err := reg.Add(tb.Name, tb, trainN(tb, seed, epochs), AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Add("ocr", view, trainN(view, 44, epochs), AddOpts{Graph: chainSpec()}); err != nil {
		t.Fatal(err)
	}
	return reg, view
}

func TestRouteGraphChain(t *testing.T) {
	reg, view := graphFixture(t, 0)
	expr := "orders.cust_id = customers.id AND customers.region_id = regions.id AND orders.amount<=7 AND regions.pop>3"
	res, err := reg.Resolve("", expr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "ocr" || res.Calib == nil || res.Exact <= 0 {
		t.Fatalf("resolved to %+v", res)
	}
	if len(res.Calib.Preds) != 3 {
		t.Fatalf("calibration query: %v", res.Calib)
	}
	// Three presence predicates (sorted by table) followed by the rewritten
	// value predicates; regions.pop>3 opens upward into the NULL sentinel, so
	// it carries a clamp.
	names := make([]string, len(res.Query.Preds))
	for i, p := range res.Query.Preds {
		names[i] = view.Cols[p.Col].Name
	}
	want := []string{
		"__fanout_customers", "__fanout_orders", "__fanout_regions",
		"orders_amount", "regions_pop", "regions_pop",
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("predicate columns %v, want %v", names, want)
	}
	last := res.Query.Preds[len(res.Query.Preds)-1]
	if last.Op != workload.OpLt || last.Code != int32(view.Cols[last.Col].NumDistinct())-1 {
		t.Fatalf("NULL clamp predicate = %v", last)
	}

	// Orientation- and order-insensitive: flipped and reordered clauses
	// resolve to the same view and the same query.
	flipped := "regions.id = customers.region_id AND customers.id = orders.cust_id AND orders.amount<=7 AND regions.pop>3"
	res2, err := reg.Resolve("", flipped)
	if err != nil || res2.Model != "ocr" {
		t.Fatalf("flipped resolve: %+v %v", res2, err)
	}
	if len(res2.Query.Preds) != len(res.Query.Preds) {
		t.Fatalf("flipped query differs: %v vs %v", res2.Query, res.Query)
	}

	// Wrong explicit target is rejected.
	if _, err := reg.Resolve("orders", expr); err == nil || !strings.Contains(err.Error(), "does not serve the join") {
		t.Fatalf("wrong target: %v", err)
	}
}

// TestGraphRoutedRowsExactlyInnerJoin is the semantic core: the rewritten
// query (presence predicates + per-table column map + NULL clamps) must
// select, on the full-outer-join view, exactly the rows of the 3-way inner
// join satisfying the original predicates — counted independently via nested
// legacy EquiJoins.
func TestGraphRoutedRowsExactlyInnerJoin(t *testing.T) {
	reg, view := graphFixture(t, 0)
	orders, customers, regions := chainBase()
	oc, err := relation.EquiJoin("oc", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := relation.EquiJoin("ocr_inner", oc, "r_region_id", regions, "id")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		graphPreds, innerPreds string
	}{
		{"", ""},
		{" AND orders.amount<=7", "l_l_amount<=7"},
		{" AND orders.amount>7", "l_l_amount>7"},
		{" AND regions.pop>3", "r_pop>3"},
		{" AND orders.amount<=12 AND regions.pop>=2", "l_l_amount<=12 AND r_pop>=2"},
		{" AND customers.segment=3 AND orders.amount>=5", "l_r_segment=3 AND l_l_amount>=5"},
		{" AND regions.pop>100", "r_pop>100"}, // beyond the domain: zero rows
	} {
		expr := "orders.cust_id = customers.id AND customers.region_id = regions.id" + tc.graphPreds
		res, err := reg.Resolve("", expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		got := exec.Cardinality(view, res.Query)
		iq, err := workload.ParseQuery(inner, tc.innerPreds)
		if err != nil {
			t.Fatal(err)
		}
		want := exec.Cardinality(inner, iq)
		if got != want {
			t.Fatalf("%q: view rows %d, inner join rows %d", expr, got, want)
		}
	}
}

// TestGraphEstimateFanoutCorrected is the acceptance criterion: a 3-table
// chain-join query routed through the registry returns a fanout-corrected
// estimate whose q-error against exec ground truth is no worse than the
// legacy path (a model over the nested inner-join materialization, the old
// two-table approach chained) on the same data.
func TestGraphEstimateFanoutCorrected(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	const epochs = 10
	reg, view := graphFixture(t, epochs)
	orders, customers, regions := chainBase()
	oc, err := relation.EquiJoin("oc", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	inner, err := relation.EquiJoin("ocr_inner", oc, "r_region_id", regions, "id")
	if err != nil {
		t.Fatal(err)
	}
	legacy := trainN(inner, 44, epochs)

	ctx := context.Background()
	var graphErrs, legacyErrs []float64
	for _, preds := range []struct {
		graph, inner string
	}{
		{"orders.amount<=3", "l_l_amount<=3"},
		{"orders.amount<=7", "l_l_amount<=7"},
		{"orders.amount<=12", "l_l_amount<=12"},
		{"orders.amount>7", "l_l_amount>7"},
		{"regions.pop>=2", "r_pop>=2"},
		{"regions.pop>3", "r_pop>3"},
		{"customers.segment<=2", "l_r_segment<=2"},
		{"orders.amount<=9 AND regions.pop>=2", "l_l_amount<=9 AND r_pop>=2"},
		{"orders.amount<=15 AND customers.segment<=3", "l_l_amount<=15 AND l_r_segment<=3"},
		{"orders.amount>=4 AND regions.pop<=6", "l_l_amount>=4 AND r_pop<=6"},
	} {
		expr := "orders.cust_id = customers.id AND customers.region_id = regions.id AND " + preds.graph
		name, est, err := estimateExpr(ctx, reg, "", expr)
		if err != nil || name != "ocr" {
			t.Fatalf("%s: %q %v", expr, name, err)
		}
		iq, err := workload.ParseQuery(inner, preds.inner)
		if err != nil {
			t.Fatal(err)
		}
		truth := exec.Cardinality(inner, iq)
		graphErrs = append(graphErrs, workload.QError(est, float64(truth)))
		legacyErrs = append(legacyErrs, workload.QError(legacy.EstimateCard(iq), float64(truth)))

		// Sanity: the routed query's exact count on the view IS the truth
		// (fanout restriction works), so the model is estimating the right
		// quantity.
		res, err := reg.Resolve("", expr)
		if err != nil {
			t.Fatal(err)
		}
		if got := exec.Cardinality(view, res.Query); got != truth {
			t.Fatalf("%s: view restriction %d != truth %d", expr, got, truth)
		}
	}
	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	gm, lm := med(graphErrs), med(legacyErrs)
	t.Logf("median q-error: graph view %.3f, legacy nested inner join %.3f", gm, lm)
	if gm > lm {
		t.Fatalf("graph-view median q-error %.3f worse than legacy %.3f", gm, lm)
	}
}

// TestSubsetJoinFanoutCorrection: a query joining only two tables of a
// 3-table view (no pairwise view registered) resolves against the big view,
// anchored on the exact pairwise inner-join cardinality — so a join-size
// query is answered exactly despite each pair appearing in the view once per
// region fanout.
func TestSubsetJoinFanoutCorrection(t *testing.T) {
	reg, view := graphFixture(t, 0)
	orders, customers, _ := chainBase()

	res, err := reg.Resolve("", "orders.cust_id = customers.id AND orders.amount<=7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "ocr" || res.Calib == nil {
		t.Fatalf("resolved to %+v", res)
	}
	pair := pairJoin(t, orders, "cust_id", customers, "id")
	if res.Exact != float64(pair) {
		t.Fatalf("Exact = %v, want pairwise join %d", res.Exact, pair)
	}
	// The view overcounts pairs by the region fanout; the anchor corrects it.
	res0, err := reg.Resolve("", "orders.cust_id = customers.id")
	if err != nil {
		t.Fatal(err)
	}
	present := exec.Cardinality(view, res0.Query)
	if present <= int64(pair) {
		t.Fatalf("fixture needs region fanout: view pairs %d <= true pairs %d", present, pair)
	}
	// No value predicates: the estimate is the exact pairwise cardinality,
	// for any model.
	name, got, err := estimateExpr(context.Background(), reg, "", "orders.cust_id = customers.id")
	if err != nil || name != "ocr" {
		t.Fatalf("EstimateExpr: %q %v", name, err)
	}
	if got != float64(pair) {
		t.Fatalf("join-size estimate %v, want exact %d", got, pair)
	}

	// With value predicates the estimate is anchored: never above the exact
	// join size, and EstimateExpr equals combining the two model estimates.
	preds, err := estimateBatch(context.Background(), reg, res.Model, []workload.Query{res.Query, *res.Calib})
	if err != nil {
		t.Fatal(err)
	}
	_, viaExpr, err := estimateExpr(context.Background(), reg, "", "orders.cust_id = customers.id AND orders.amount<=7")
	if err != nil {
		t.Fatal(err)
	}
	want := res.Exact * math.Min(1, preds[0]/preds[1])
	if math.Float64bits(viaExpr) != math.Float64bits(want) {
		t.Fatalf("EstimateExpr %v != calibrated %v", viaExpr, want)
	}
	if viaExpr > float64(pair) {
		t.Fatalf("calibrated estimate %v exceeds join size %d", viaExpr, pair)
	}

	// The customers-regions subtree corrects through the same machinery.
	crPair := pairJoin(t, customers, "region_id", reg.mustTable(t, "regions"), "id")
	_, crGot, err := estimateExpr(context.Background(), reg, "", "customers.region_id = regions.id")
	if err != nil {
		t.Fatal(err)
	}
	if crGot != float64(crPair) {
		t.Fatalf("customers-regions join size %v, want %d", crGot, crPair)
	}
}

// mustTable fetches a registered model's table.
// pairJoin is the exact inner-join size of l.lc = r.rc.
func pairJoin(t *testing.T, l *relation.Table, lc string, r *relation.Table, rc string) int64 {
	t.Helper()
	n, err := relation.MultiJoinCardinality(&relation.JoinGraph{Tables: []*relation.Table{l, r},
		Edges: []relation.JoinEdge{{LeftTable: l.Name, LeftCol: lc, RightTable: r.Name, RightCol: rc}}})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (r *Registry) mustTable(t *testing.T, name string) *relation.Table {
	t.Helper()
	tb, err := r.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestRouteGraphStar(t *testing.T) {
	da := relation.Generate(relation.SynConfig{Name: "da", Rows: 80, Seed: 3, Cols: []relation.ColSpec{
		{Name: "k", NDV: 60, Skew: 0, Parent: -1},
		{Name: "x", NDV: 8, Skew: 1.0, Parent: 0, Noise: 0.2},
	}})
	db := relation.Generate(relation.SynConfig{Name: "db", Rows: 70, Seed: 4, Cols: []relation.ColSpec{
		{Name: "k", NDV: 50, Skew: 0, Parent: -1},
		{Name: "y", NDV: 6, Skew: 1.2, Parent: 0, Noise: 0.2},
	}})
	fact := relation.Generate(relation.SynConfig{Name: "fact", Rows: 400, Seed: 5, Cols: []relation.ColSpec{
		{Name: "a_k", NDV: 66, Skew: 1.1, Parent: -1},
		{Name: "b_k", NDV: 55, Skew: 1.3, Parent: -1},
		{Name: "m", NDV: 12, Skew: 1.2, Parent: 0, Noise: 0.3},
	}})
	view, err := relation.MultiJoin("star", &relation.JoinGraph{
		Tables: []*relation.Table{fact, da, db},
		Edges: []relation.JoinEdge{
			{LeftTable: "fact", LeftCol: "a_k", RightTable: "da", RightCol: "k"},
			{LeftTable: "fact", LeftCol: "b_k", RightTable: "db", RightCol: "k"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg.Close() })
	for seed, tb := range map[int64]*relation.Table{51: fact, 52: da, 53: db} {
		if err := reg.Add(tb.Name, tb, core.NewModel(tb, smallConfig(seed)), AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	spec := &JoinGraphSpec{
		Tables: []string{"fact", "da", "db"},
		Edges: []relation.JoinEdge{
			{LeftTable: "fact", LeftCol: "a_k", RightTable: "da", RightCol: "k"},
			{LeftTable: "fact", LeftCol: "b_k", RightTable: "db", RightCol: "k"},
		},
	}
	if err := reg.Add("star", view, core.NewModel(view, smallConfig(54)), AddOpts{Graph: spec}); err != nil {
		t.Fatal(err)
	}

	res, err := reg.Resolve("", "fact.a_k = da.k AND fact.b_k = db.k AND da.x<=3 AND fact.m>2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "star" || res.Calib == nil {
		t.Fatalf("star resolve: %+v", res)
	}
	// Exact inner-join restriction, verified against the DP oracle when no
	// value predicates apply.
	res0, err := reg.Resolve("", "da.k = fact.a_k AND db.k = fact.b_k")
	if err != nil {
		t.Fatal(err)
	}
	dp, err := relation.MultiJoinCardinality(&relation.JoinGraph{
		Tables: []*relation.Table{fact, da, db},
		Edges: []relation.JoinEdge{
			{LeftTable: "fact", LeftCol: "a_k", RightTable: "da", RightCol: "k"},
			{LeftTable: "fact", LeftCol: "b_k", RightTable: "db", RightCol: "k"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := exec.Cardinality(view, res0.Query); got != dp {
		t.Fatalf("star restriction %d != DP cardinality %d", got, dp)
	}
	if res0.Exact != float64(dp) {
		t.Fatalf("star anchor %v != DP cardinality %d", res0.Exact, dp)
	}

	// A disconnected clause set is rejected with a clear error.
	if _, err := reg.Resolve("", "fact.a_k = da.k AND fakeA.z = fakeB.w"); err == nil ||
		!strings.Contains(err.Error(), "do not connect") {
		t.Fatalf("disconnected clauses: %v", err)
	}
}

// TestRouteCyclicClausesAdvice: a connected clause set with a cycle is not
// a tree, and every join view is one, so the router says that rather than
// advising a view that could never be built.
func TestRouteCyclicClausesAdvice(t *testing.T) {
	reg, _ := graphFixture(t, 0)
	_, err := reg.Resolve("", "orders.cust_id = customers.id AND customers.region_id = regions.id AND regions.id = orders.amount")
	if err == nil || !strings.Contains(err.Error(), "do not form a tree") {
		t.Fatalf("3-table cycle: %v", err)
	}
	// A connected tree no view serves points at the offline trainer.
	_, err = reg.Resolve("", "orders.amount = regions.pop AND customers.region_id = regions.id")
	if err == nil || !strings.Contains(err.Error(), "duettrain -manifest") {
		t.Fatalf("unserved tree: %v", err)
	}
}

func TestInferTargetAmbiguityErrors(t *testing.T) {
	reg, _ := graphFixture(t, 0)
	// Mixed qualifiers without a join clause: the error names the candidate
	// view covering both tables.
	_, err := reg.Resolve("", "orders.amount<=7 AND customers.segment=2")
	if err == nil || !strings.Contains(err.Error(), "candidate views") || !strings.Contains(err.Error(), "ocr") {
		t.Fatalf("mixed qualifiers: %v", err)
	}
	// Mixed qualifiers no view covers: says so.
	_, err = reg.Resolve("", "orders.amount<=7 AND warehouses.zone=2")
	if err == nil || !strings.Contains(err.Error(), "no registered join view covers them") {
		t.Fatalf("uncovered qualifiers: %v", err)
	}
	// A single qualifier that is a view table but not a model: lists views.
	reg2 := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg2.Close() })
	orders, customers, regions := chainBase()
	view, err := relation.MultiJoin("ocr", &relation.JoinGraph{
		Tables: []*relation.Table{orders, customers, regions},
		Edges: []relation.JoinEdge{
			{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
			{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg2.Add("ocr", view, core.NewModel(view, smallConfig(1)), AddOpts{Graph: chainSpec()}); err != nil {
		t.Fatal(err)
	}
	// As the sole entry, the view answers the qualified query directly (the
	// pre-join-graph fall-through).
	if res, err := reg2.Resolve("", "orders.amount<=7"); err != nil || res.Model != "ocr" {
		t.Fatalf("sole-view qualifier: %+v %v", res, err)
	}
	// With a second model registered the qualifier no longer pins a target;
	// the error lists the views joining it.
	other := testTable("other", 3)
	if err := reg2.Add("other", other, core.NewModel(other, smallConfig(2)), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	_, err = reg2.Resolve("", "orders.amount<=7")
	if err == nil || !strings.Contains(err.Error(), "not a registered model") || !strings.Contains(err.Error(), "ocr") {
		t.Fatalf("view-only qualifier: %v", err)
	}
}

func TestGraphAddValidation(t *testing.T) {
	reg, view := graphFixture(t, 0)
	spec := chainSpec()
	// Same edge set in flipped orientation and different order collides.
	flipped := &JoinGraphSpec{
		Tables: []string{"regions", "customers", "orders"},
		Edges: []relation.JoinEdge{
			{LeftTable: "regions", LeftCol: "id", RightTable: "customers", RightCol: "region_id"},
			{LeftTable: "customers", LeftCol: "id", RightTable: "orders", RightCol: "cust_id"},
		},
	}
	err := reg.Add("dup", view, core.NewModel(view, smallConfig(2)), AddOpts{Graph: flipped})
	if err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("duplicate graph: %v", err)
	}
	// Join and Graph are mutually exclusive.
	err = reg.Add("both", view, core.NewModel(view, smallConfig(2)), AddOpts{
		Join:  &relation.JoinEdge{LeftTable: "a", LeftCol: "x", RightTable: "b", RightCol: "y"},
		Graph: spec,
	})
	if err == nil || !strings.Contains(err.Error(), "not both") {
		t.Fatalf("join+graph: %v", err)
	}
	// A spec over a table the view does not carry fanout columns for fails.
	orders, customers, _ := chainBase()
	bad := &JoinGraphSpec{
		Tables: []string{"orders", "customers"},
		Edges:  []relation.JoinEdge{{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"}},
	}
	inner, err := relation.EquiJoin("oc", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	err = reg.Add("oc", inner, core.NewModel(inner, smallConfig(2)), AddOpts{Graph: bad})
	if err == nil || !strings.Contains(err.Error(), "fanout column") {
		t.Fatalf("non-MultiJoin view accepted as graph: %v", err)
	}
	// Disconnected and non-tree specs fail fast.
	discon := &JoinGraphSpec{
		Tables: []string{"orders", "customers", "regions"},
		Edges: []relation.JoinEdge{
			{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
			{LeftTable: "customers", LeftCol: "id", RightTable: "orders", RightCol: "amount"},
		},
	}
	err = reg.Add("x", view, core.NewModel(view, smallConfig(2)), AddOpts{Graph: discon})
	if err == nil || !strings.Contains(err.Error(), "not connected") {
		t.Fatalf("disconnected spec: %v", err)
	}
}

// TestLegacyJoinStillRoutesFirst: a legacy two-table view and a 3-table graph
// view can coexist; single-clause queries matching the legacy view keep
// routing to it bitwise-identically, untouched by the graph machinery.
func TestLegacyJoinStillRoutesFirst(t *testing.T) {
	reg, _ := graphFixture(t, 0)
	orders, customers, _ := chainBase()
	inner, err := relation.EquiJoin("oc_legacy", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewModel(inner, smallConfig(77))
	want := m.EstimateCardBatch([]workload.Query{mustParse(t, inner, "l_amount<=7")})[0]
	err = reg.Add("oc_legacy", inner, m, AddOpts{
		Join: &relation.JoinEdge{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := reg.Resolve("", "orders.cust_id = customers.id AND orders.amount<=7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "oc_legacy" || res.Calib != nil {
		t.Fatalf("legacy precedence lost: %+v", res)
	}
	got, err := estimate(context.Background(), reg, res.Model, res.Query)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("legacy estimate %v != direct %v", got, want)
	}
}

// TestExplicitGraphTargetOverlapsLegacy: when a legacy view serves a clause
// a larger graph view also contains, explicitly targeting the graph view
// must route there (as a fanout-corrected subset join) instead of erroring
// on the legacy view's claim.
func TestExplicitGraphTargetOverlapsLegacy(t *testing.T) {
	reg, _ := graphFixture(t, 0)
	orders, customers, _ := chainBase()
	inner, err := relation.EquiJoin("oc_legacy", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	err = reg.Add("oc_legacy", inner, core.NewModel(inner, smallConfig(78)), AddOpts{
		Join: &relation.JoinEdge{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	expr := "orders.cust_id = customers.id AND orders.amount<=7"
	// No target: the legacy view keeps first claim.
	res, err := reg.Resolve("", expr)
	if err != nil || res.Model != "oc_legacy" {
		t.Fatalf("untargeted: %+v %v", res, err)
	}
	// Explicit graph-view target: served as a subset of its edges.
	res, err = reg.Resolve("ocr", expr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "ocr" || res.Calib == nil {
		t.Fatalf("targeted: %+v", res)
	}
	// A base-model target still gets the legacy refusal.
	if _, err := reg.Resolve("orders", expr); err == nil || !strings.Contains(err.Error(), "does not serve the join") {
		t.Fatalf("base target: %v", err)
	}
}

// TestSoleViewRoutesQualifiedPredicates preserves the PR2 behavior: a
// registry whose only entry is a join view still answers qualified
// predicate-only expressions through it.
func TestSoleViewRoutesQualifiedPredicates(t *testing.T) {
	orders, customers, _ := chainBase()
	inner, err := relation.EquiJoin("oc", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg.Close() })
	err = reg.Add("oc", inner, core.NewModel(inner, smallConfig(5)), AddOpts{
		Join: &relation.JoinEdge{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	name, q, err := route(reg, "", "orders.amount<=7")
	if err != nil || name != "oc" {
		t.Fatalf("sole-view routing: %q %v", name, err)
	}
	if c := inner.Cols[q.Preds[0].Col].Name; c != "l_amount" {
		t.Fatalf("predicate on %q", c)
	}
}

// TestBaseSnapshotMatchesTableName: subset fanout correction must find base
// tables by table name even when registered under a different model name,
// and must not trust a model name whose table is something else.
func TestBaseSnapshotMatchesTableName(t *testing.T) {
	orders, customers, regions := chainBase()
	view, err := relation.MultiJoin("ocr", &relation.JoinGraph{
		Tables: []*relation.Table{orders, customers, regions},
		Edges: []relation.JoinEdge{
			{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
			{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg.Close() })
	// "orders" the model name serves an unrelated table; the real orders
	// table is registered under another name. The snapshot must skip the
	// imposter and find the real one by table name.
	imposter := testTable("not_orders", 9)
	for _, m := range []struct {
		name string
		tb   *relation.Table
	}{{"orders", imposter}, {"orders_v2", orders}, {"customers", customers}, {"regions", regions}} {
		if err := reg.Add(m.name, m.tb, core.NewModel(m.tb, smallConfig(6)), AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Add("ocr", view, core.NewModel(view, smallConfig(7)), AddOpts{Graph: chainSpec()}); err != nil {
		t.Fatal(err)
	}
	pair := pairJoin(t, orders, "cust_id", customers, "id")
	_, got, err := estimateExpr(context.Background(), reg, "ocr", "orders.cust_id = customers.id")
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(pair) {
		t.Fatalf("subset join size %v, want %d", got, pair)
	}
}

// TestAmbiguousViewColumnNamesRejected: a table pair whose names make a
// "<table>_<col>" view column attributable to both is refused at
// materialization and at registration.
func TestAmbiguousViewColumnNamesRejected(t *testing.T) {
	a := relation.NewTable("a", []*relation.Column{
		relation.NewIntColumn("k", []int64{1, 2, 3}),
		relation.NewIntColumn("b_c", []int64{1, 2, 3}),
	})
	ab := relation.NewTable("a_b", []*relation.Column{
		relation.NewIntColumn("k", []int64{1, 2, 3}),
	})
	g := &relation.JoinGraph{Tables: []*relation.Table{a, ab},
		Edges: []relation.JoinEdge{{LeftTable: "a", LeftCol: "k", RightTable: "a_b", RightCol: "k"}}}
	if _, err := relation.MultiJoin("x", g); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("MultiJoin ambiguity: %v", err)
	}
}

func mustParse(t *testing.T, tb *relation.Table, expr string) workload.Query {
	t.Helper()
	q, err := workload.ParseQuery(tb, expr)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestPerModelServeConfig: an AddOpts.Serve override replaces the registry-
// wide engine config for that model only, and survives reload.
func TestPerModelServeConfig(t *testing.T) {
	ta := testTable("alpha", 1)
	tbt := testTable("beta", 2)
	// Registry default caches; beta overrides with caching disabled.
	reg := New(Config{Dir: t.TempDir(), Serve: serve.Config{CacheSize: 64}})
	defer reg.Close()
	if err := reg.Add("alpha", ta, trainedModel(ta, 1), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("beta", tbt, trainedModel(tbt, 2), AddOpts{Serve: &serve.Config{CacheSize: -1}}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 10}}}
	for i := 0; i < 3; i++ {
		if _, err := estimate(ctx, reg, "alpha", q); err != nil {
			t.Fatal(err)
		}
		if _, err := estimate(ctx, reg, "beta", q); err != nil {
			t.Fatal(err)
		}
	}
	stats := reg.Stats()
	if stats.PerModel["alpha"].CacheHits == 0 {
		t.Fatalf("alpha should cache: %+v", stats.PerModel["alpha"])
	}
	if stats.PerModel["beta"].CacheHits != 0 {
		t.Fatalf("beta override ignored: %+v", stats.PerModel["beta"])
	}

	// The override survives a reload: save beta, reload it, and observe the
	// cache still disabled.
	if _, err := reg.SaveModel("beta"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload("beta"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := estimate(ctx, reg, "beta", q); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Stats().PerModel["beta"].CacheHits; got != 0 {
		t.Fatalf("beta caches after reload: %d hits", got)
	}
}
