package registry

import (
	"context"
	"testing"

	"duet/internal/core"
	"duet/internal/relation"
)

// TestBaseTableSwapRecomputesGraphAnchors pins the lifecycle gap fixed in
// this PR: a graph view caches exact-cardinality anchors (and per-edge join
// indexes) computed from the base tables registered alongside it, so when a
// base-table model is hot-swapped — the lifecycle retrain path, where the
// table grows with ingested rows — every view anchoring on it must drop those
// caches and recompute against the table now serving, not keep calibrating
// fresh estimates against a replaced generation's join sizes.
func TestBaseTableSwapRecomputesGraphAnchors(t *testing.T) {
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

	// Warm the anchor cache: a subset join-size query is answered exactly
	// from the base-table DP, and the result is cached per subtree.
	sub := "b.bk = c.bk"
	subDP := func(bt *relation.Table) float64 {
		n, err := relation.MultiJoinCardinality(&relation.JoinGraph{
			Tables: []*relation.Table{bt, c},
			Edges:  []relation.JoinEdge{{LeftTable: "b", LeftCol: "bk", RightTable: "c", RightCol: "bk"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return float64(n)
	}
	_, got, err := estimateExpr(context.Background(), reg, "", sub)
	if err != nil {
		t.Fatal(err)
	}
	if got != subDP(b) {
		t.Fatalf("pre-swap subset anchor %v, want %v", got, subDP(b))
	}

	// Grow b by re-appending its own first rows (raw values, the ingest
	// convention): the duplicated keys multiply match counts, so the true
	// subtree cardinality changes.
	rows := make([][]string, 60)
	for r := range rows {
		row := make([]string, b.NumCols())
		for ci, col := range b.Cols {
			row[ci] = col.ValueString(col.Codes.At(r))
		}
		rows[r] = row
	}
	grown, err := relation.AppendRows(b, rows)
	if err != nil {
		t.Fatal(err)
	}
	if subDP(grown) == subDP(b) {
		t.Fatal("fixture degenerate: appended rows did not change the subtree cardinality")
	}
	if err := reg.SwapModel("b", core.NewModel(grown, smallConfig(61)), SwapOpts{}); err != nil {
		t.Fatal(err)
	}

	// The cached anchor described the replaced table; the next query must
	// recompute it from the swapped-in one.
	_, got, err = estimateExpr(context.Background(), reg, "", sub)
	if err != nil {
		t.Fatal(err)
	}
	if got == subDP(b) {
		t.Fatalf("stale anchor survived the base-table swap: still %v", got)
	}
	if got != subDP(grown) {
		t.Fatalf("post-swap subset anchor %v, want %v", got, subDP(grown))
	}

	// The full edge set re-anchors too (sampled views always compute it from
	// the base tables).
	full := "a.ak = b.ak AND b.bk = c.bk AND c.ck = d.ck"
	res, err := reg.Resolve("", full)
	if err != nil {
		t.Fatal(err)
	}
	fullDP, err := relation.MultiJoinCardinality(&relation.JoinGraph{
		Tables: []*relation.Table{a, grown, c, d},
		Edges:  g.Edges,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact != float64(fullDP) {
		t.Fatalf("full-set anchor %v after swap, want %d", res.Exact, fullDP)
	}

	// Swapping a table no view references leaves graph state alone.
	if err := reg.SwapModel("abcd", core.NewModel(view, smallConfig(71)), SwapOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, got, err = estimateExpr(context.Background(), reg, "", sub); err != nil || got != subDP(grown) {
		t.Fatalf("anchor after view swap: %v, %v", got, err)
	}
}
