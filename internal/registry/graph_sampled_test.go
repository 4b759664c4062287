package registry

import (
	"context"
	"sort"
	"strings"
	"testing"

	"duet/internal/core"
	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/workload"
)

// chain4Base generates a 4-table a -> b -> c -> d chain whose full outer
// join is an order of magnitude larger than its largest base table — the
// JOB-scale shape sampled materialization exists for — with dangling rows on
// every edge and value columns correlated with the keys.
func chain4Base() (a, b, c, d *relation.Table) {
	a = relation.Generate(relation.SynConfig{
		Name: "a", Rows: 200, Seed: 21,
		Cols: []relation.ColSpec{
			{Name: "ak", NDV: 70, Skew: 0, Parent: -1},
			{Name: "av", NDV: 12, Skew: 1.2, Parent: 0, Noise: 0.25},
		},
	})
	b = relation.Generate(relation.SynConfig{
		Name: "b", Rows: 420, Seed: 22,
		Cols: []relation.ColSpec{
			{Name: "ak", NDV: 78, Skew: 1.1, Parent: -1},
			{Name: "bk", NDV: 210, Skew: 0, Parent: -1},
			{Name: "bv", NDV: 8, Skew: 1.3, Parent: 0, Noise: 0.2},
		},
	})
	c = relation.Generate(relation.SynConfig{
		Name: "c", Rows: 500, Seed: 23,
		Cols: []relation.ColSpec{
			{Name: "bk", NDV: 225, Skew: 1.1, Parent: -1},
			{Name: "ck", NDV: 200, Skew: 0, Parent: -1},
			{Name: "cv", NDV: 10, Skew: 1.2, Parent: 0, Noise: 0.2},
		},
	})
	d = relation.Generate(relation.SynConfig{
		Name: "d", Rows: 500, Seed: 24,
		Cols: []relation.ColSpec{
			{Name: "ck", NDV: 215, Skew: 1.2, Parent: -1},
			{Name: "dv", NDV: 9, Skew: 1.1, Parent: 0, Noise: 0.3},
		},
	})
	return a, b, c, d
}

func chain4Graph(a, b, c, d *relation.Table) *relation.JoinGraph {
	return &relation.JoinGraph{
		Tables: []*relation.Table{a, b, c, d},
		Edges: []relation.JoinEdge{
			{LeftTable: "a", LeftCol: "ak", RightTable: "b", RightCol: "ak"},
			{LeftTable: "b", LeftCol: "bk", RightTable: "c", RightCol: "bk"},
			{LeftTable: "c", LeftCol: "ck", RightTable: "d", RightCol: "ck"},
		},
	}
}

func chain4Spec(sample int) *JoinGraphSpec {
	return &JoinGraphSpec{
		Tables: []string{"a", "b", "c", "d"},
		Edges: []relation.JoinEdge{
			{LeftTable: "a", LeftCol: "ak", RightTable: "b", RightCol: "ak"},
			{LeftTable: "b", LeftCol: "bk", RightTable: "c", RightCol: "bk"},
			{LeftTable: "c", LeftCol: "ck", RightTable: "d", RightCol: "ck"},
		},
		Sample: sample,
	}
}

// addChainBases registers the four base tables (untrained models: base
// estimates are not under test here).
func addChainBases(t *testing.T, reg *Registry, tabs ...*relation.Table) {
	t.Helper()
	for i, tb := range tabs {
		if err := reg.Add(tb.Name, tb, core.NewModel(tb, smallConfig(int64(60+i))), AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSampledGraphViewExactAnchors: a sampled view routes through the
// unchanged Resolution path, and every exact anchor — the full edge set's
// included — is the base-table DP cardinality, never the sample size.
func TestSampledGraphViewExactAnchors(t *testing.T) {
	a, b, c, d := chain4Base()
	g := chain4Graph(a, b, c, d)
	s, err := relation.NewJoinSampler(g, 31)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 512
	view, err := s.SampleTable("abcd", budget)
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg.Close() })
	addChainBases(t, reg, a, b, c, d)
	if err := reg.Add("abcd", view, core.NewModel(view, smallConfig(70)), AddOpts{Graph: chain4Spec(budget)}); err != nil {
		t.Fatal(err)
	}

	full := "a.ak = b.ak AND b.bk = c.bk AND c.ck = d.ck"
	res, err := reg.Resolve("", full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Model != "abcd" || res.Calib == nil {
		t.Fatalf("sampled view resolution: %+v", res)
	}
	dp, err := relation.MultiJoinCardinality(g)
	if err != nil {
		t.Fatal(err)
	}
	if int64(dp) == int64(budget) {
		t.Fatal("fixture degenerate: FOJ size equals the sample budget")
	}
	if res.Exact != float64(dp) {
		t.Fatalf("full-set anchor %v, want base-table DP %d (sample has %d rows)", res.Exact, dp, view.NumRows())
	}
	// A join-size query is answered exactly, whatever the model says.
	_, got, err := estimateExpr(context.Background(), reg, "", full)
	if err != nil {
		t.Fatal(err)
	}
	if got != float64(dp) {
		t.Fatalf("join-size estimate %v, want exact %d", got, dp)
	}
	// Subset joins anchor on the subtree DP through the same cached indexes.
	sub := &relation.JoinGraph{Tables: []*relation.Table{b, c},
		Edges: []relation.JoinEdge{{LeftTable: "b", LeftCol: "bk", RightTable: "c", RightCol: "bk"}}}
	subDP, err := relation.MultiJoinCardinality(sub)
	if err != nil {
		t.Fatal(err)
	}
	_, subGot, err := estimateExpr(context.Background(), reg, "", "b.bk = c.bk")
	if err != nil {
		t.Fatal(err)
	}
	if subGot != float64(subDP) {
		t.Fatalf("subset join-size estimate %v, want %d", subGot, subDP)
	}
}

func TestSampledViewRequiresBaseTables(t *testing.T) {
	a, b, c, d := chain4Base()
	g := chain4Graph(a, b, c, d)
	s, err := relation.NewJoinSampler(g, 31)
	if err != nil {
		t.Fatal(err)
	}
	view, err := s.SampleTable("abcd", 256)
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { reg.Close() })
	// Only two of four base tables registered: Add must refuse and name the
	// missing ones.
	addChainBases(t, reg, a, c)
	err = reg.Add("abcd", view, core.NewModel(view, smallConfig(70)), AddOpts{Graph: chain4Spec(256)})
	if err == nil || !strings.Contains(err.Error(), "register base tables") ||
		!strings.Contains(err.Error(), "b") || !strings.Contains(err.Error(), "d") {
		t.Fatalf("missing base tables: %v", err)
	}
	// A materialized view of the same spec still registers lazily (subset
	// anchors fail later, full-set anchors count the view).
	mat, err := relation.MultiJoin("abcd_mat", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("abcd_mat", mat, core.NewModel(mat, smallConfig(71)), AddOpts{Graph: chain4Spec(0)}); err != nil {
		t.Fatal(err)
	}
	// Negative budgets are rejected outright.
	err = reg.Add("neg", view, core.NewModel(view, smallConfig(72)), AddOpts{Graph: chain4Spec(-1)})
	if err == nil || !strings.Contains(err.Error(), "sample budget") {
		t.Fatalf("negative budget: %v", err)
	}
}

// trainStream fits a model over the sampler's tuple stream: the table only
// supplies dictionaries, every training batch is a fresh draw.
func trainStream(view *relation.Table, src core.TupleSource, rows int, seed int64, epochs int) *core.Model {
	m := core.NewModel(view, smallConfig(seed))
	tc := core.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.Lambda = 0
	tc.Seed = seed
	tc.Source = src
	tc.SourceRows = rows
	core.Train(m, tc)
	return m
}

// TestSampledGraphQErrorWithinBoundOfMaterialized is the acceptance
// criterion: on a 4-table chain whose FOJ is >= 10x the largest base table,
// a model trained from sampler draws (memory bounded by the budget) routed
// through the registry stays within 1.5x of the fully materialized view's
// median q-error on a join workload — while both answer through the same
// Resolution/exact-anchor path.
func TestSampledGraphQErrorWithinBoundOfMaterialized(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, b, c, d := chain4Base()
	g := chain4Graph(a, b, c, d)
	matView, err := relation.MultiJoin("abcd", g)
	if err != nil {
		t.Fatal(err)
	}
	largestBase := 0
	for _, tb := range []*relation.Table{a, b, c, d} {
		if tb.NumRows() > largestBase {
			largestBase = tb.NumRows()
		}
	}
	if matView.NumRows() < 10*largestBase {
		t.Fatalf("fixture: FOJ %d rows < 10x largest base %d", matView.NumRows(), largestBase)
	}

	const epochs = 6
	const budget = 1500
	s, err := relation.NewJoinSampler(g, 33)
	if err != nil {
		t.Fatal(err)
	}
	smpView, err := s.SampleTable("abcd", budget)
	if err != nil {
		t.Fatal(err)
	}

	regMat := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { regMat.Close() })
	addChainBases(t, regMat, a, b, c, d)
	if err := regMat.Add("abcd", matView, trainN(matView, 81, epochs), AddOpts{Graph: chain4Spec(0)}); err != nil {
		t.Fatal(err)
	}
	regSmp := New(Config{Dir: t.TempDir(), Serve: serveNoCache()})
	t.Cleanup(func() { regSmp.Close() })
	addChainBases(t, regSmp, a, b, c, d)
	smpModel := trainStream(smpView, s, budget, 81, epochs)
	if err := regSmp.Add("abcd", smpView, smpModel, AddOpts{Graph: chain4Spec(budget)}); err != nil {
		t.Fatal(err)
	}

	join := "a.ak = b.ak AND b.bk = c.bk AND c.ck = d.ck AND "
	exprs := []string{
		"a.av<=3", "a.av<=6", "a.av>2", "b.bv<=2", "b.bv<=4", "b.bv>1",
		"c.cv<=3", "c.cv<=6", "c.cv>=2", "d.dv<=2", "d.dv<=5", "d.dv>2",
		"a.av<=6 AND c.cv<=5", "b.bv<=3 AND d.dv<=4", "a.av>=2 AND d.dv<=6",
		"a.av<=8 AND b.bv<=5", "c.cv>=1 AND d.dv>=1", "a.av<=4 AND b.bv<=4 AND c.cv<=6",
	}
	ctx := context.Background()
	var matErrs, smpErrs []float64
	for _, pred := range exprs {
		expr := join + pred
		res, err := regMat.Resolve("", expr)
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		truth := float64(exec.Cardinality(matView, res.Query))
		_, matEst, err := estimateExpr(ctx, regMat, "", expr)
		if err != nil {
			t.Fatal(err)
		}
		resS, err := regSmp.Resolve("", expr)
		if err != nil {
			t.Fatalf("sampled %s: %v", expr, err)
		}
		if resS.Calib == nil || resS.Model != "abcd" {
			t.Fatalf("sampled resolution lost the calibration: %+v", resS)
		}
		_, smpEst, err := estimateExpr(ctx, regSmp, "", expr)
		if err != nil {
			t.Fatal(err)
		}
		matErrs = append(matErrs, workload.QError(matEst, truth))
		smpErrs = append(smpErrs, workload.QError(smpEst, truth))
	}
	med := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	matMed, smpMed := med(matErrs), med(smpErrs)
	t.Logf("median q-error on the join workload: materialized %.3f, sampled %.3f (budget %d, FOJ %d rows)",
		matMed, smpMed, budget, matView.NumRows())
	if smpMed > 1.5*matMed {
		t.Fatalf("sampled median q-error %.3f exceeds 1.5x materialized %.3f", smpMed, matMed)
	}
}
