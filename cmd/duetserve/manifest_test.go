package main

import (
	"context"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"duet"
	"duet/cmd/internal/manifest"
)

// TestLegacyManifestGolden loads the committed PR2-era manifest (two-table
// joins only, pre-join-graph schema) and proves it still assembles and
// routes through the untouched legacy path: the join view answers the join
// expression with no fanout calibration, bitwise equal to estimating the
// routed query directly.
// estimateExpr routes and answers one expression, returning the model that
// answered alongside the estimate.
func estimateExpr(ctx context.Context, reg *duet.Registry, target, expr string) (string, float64, error) {
	res, err := reg.Query(ctx, duet.QueryRequest{Model: target, Expr: expr})
	if err != nil {
		return "", 0, err
	}
	return res.Models[0], res.Cards[0], nil
}

func TestLegacyManifestGolden(t *testing.T) {
	man, err := manifest.Load(filepath.Join("testdata", "legacy_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: t.TempDir()})
	defer reg.Close()
	if err := assembleRegistry(reg, man, "testdata", t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("assembled %d models, want 3", reg.Len())
	}

	expr := "orders.cust_id = customers.id AND orders.amount<=10"
	// The legacy route is expressible without calibration...
	res, err := reg.Resolve("", expr)
	if err != nil {
		t.Fatal(err)
	}
	name := res.Model
	if name != "orders_customers" {
		t.Fatalf("routed to %q", name)
	}
	if res.Calib != nil {
		t.Fatalf("legacy view picked up a fanout calibration: %+v", res)
	}
	// ...and the routed estimate is bitwise the direct estimate.
	replay, err := reg.Query(context.Background(), duet.QueryRequest{Model: name, Queries: []duet.Query{res.Query}})
	if err != nil {
		t.Fatal(err)
	}
	direct := replay.Cards[0]
	gotName, got, err := estimateExpr(context.Background(), reg, "", expr)
	if err != nil || gotName != name {
		t.Fatalf("routed estimate: %q %v", gotName, err)
	}
	if math.Float64bits(got) != math.Float64bits(direct) {
		t.Fatalf("routed %v != direct %v", got, direct)
	}
	// The view's predicates land on the legacy l_/r_ columns.
	tbl, err := reg.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	if c := tbl.Cols[res.Query.Preds[0].Col].Name; c != "l_amount" {
		t.Fatalf("predicate on %q, want l_amount", c)
	}
}

// TestGraphManifest loads the committed join-graph manifest (3-table chain,
// per-model serve overrides) and checks routing, the exact join-size answer,
// and that the view's cache-disabling override sticks.
func TestGraphManifest(t *testing.T) {
	man, err := manifest.Load(filepath.Join("testdata", "graph_manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: t.TempDir(), Serve: duet.ServeConfig{CacheSize: 64}})
	defer reg.Close()
	if err := assembleRegistry(reg, man, "testdata", t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 4 {
		t.Fatalf("assembled %d models, want 4", reg.Len())
	}

	// A 3-table chain query routes to the graph view.
	ctx := context.Background()
	expr := "orders.cust_id = customers.id AND customers.region_id = regions.id AND orders.amount<=10"
	name, _, err := estimateExpr(ctx, reg, "", expr)
	if err != nil || name != "ocr" {
		t.Fatalf("chain query: %q %v", name, err)
	}

	// With no value predicates the estimate is the exact 3-way inner join,
	// independently computable from the base tables.
	tables := make([]*duet.Table, 3)
	for i, n := range []string{"orders", "customers", "regions"} {
		if tables[i], err = reg.Table(n); err != nil {
			t.Fatal(err)
		}
	}
	exact, err := duet.JoinGraphCardinality(tables, []duet.JoinEdge{
		{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
		{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, card, err := estimateExpr(ctx, reg, "", "orders.cust_id = customers.id AND customers.region_id = regions.id")
	if err != nil {
		t.Fatal(err)
	}
	if card != float64(exact) {
		t.Fatalf("join-size estimate %v, want exact %d", card, exact)
	}

	// The view's serve override disables its cache; repeats never hit.
	for i := 0; i < 3; i++ {
		if _, _, err := estimateExpr(ctx, reg, "", expr); err != nil {
			t.Fatal(err)
		}
	}
	stats := reg.Stats()
	if got := stats.PerModel["ocr"].CacheHits; got != 0 {
		t.Fatalf("ocr cache override ignored: %d hits", got)
	}
	// A model without an override keeps the registry-wide cache.
	q := "orders.amount<=10"
	for i := 0; i < 3; i++ {
		if _, _, err := estimateExpr(ctx, reg, "orders", q); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Stats().PerModel["orders"].CacheHits; got == 0 {
		t.Fatal("orders should use the registry-wide cache")
	}
}

// TestSampledGraphManifest: a join-graph entry with a "sample" budget
// assembles a sampled view — the registered table holds budget rows, the
// spec carries the budget, and join-size queries still answer with the exact
// base-table cardinality (never the sample size).
func TestSampledGraphManifest(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join(dir, "m.json")
	man := `{
  "models": [
    {"name": "orders", "csv": "orders.csv", "train_epochs": 0},
    {"name": "customers", "csv": "customers.csv", "train_epochs": 0},
    {"name": "regions", "csv": "regions.csv", "train_epochs": 0}
  ],
  "joins": [{
    "name": "ocr",
    "tables": ["orders", "customers", "regions"],
    "edges": [
      {"left": "orders", "left_col": "cust_id", "right": "customers", "right_col": "id"},
      {"left": "customers", "left_col": "region_id", "right": "regions", "right_col": "id"}
    ],
    "sample": 6,
    "train_epochs": 1
  }]
}`
	if err := os.WriteFile(manPath, []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: t.TempDir()})
	defer reg.Close()
	if err := assembleRegistry(reg, parsed, "testdata", t.TempDir()); err != nil {
		t.Fatal(err)
	}
	view, err := reg.Table("ocr")
	if err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 6 {
		t.Fatalf("sampled view has %d rows, want the budget 6", view.NumRows())
	}
	var info *duet.ModelInfo
	for _, mi := range reg.Info() {
		if mi.Name == "ocr" {
			mi := mi
			info = &mi
		}
	}
	if info == nil || info.Graph == nil || info.Graph.Sample != 6 {
		t.Fatalf("registered spec lost the sample budget: %+v", info)
	}
	// Join-size answer is the exact inner join from the base tables.
	tables := make([]*duet.Table, 3)
	for i, n := range []string{"orders", "customers", "regions"} {
		if tables[i], err = reg.Table(n); err != nil {
			t.Fatal(err)
		}
	}
	exact, err := duet.JoinGraphCardinality(tables, []duet.JoinEdge{
		{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
		{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, card, err := estimateExpr(context.Background(), reg, "", "orders.cust_id = customers.id AND customers.region_id = regions.id")
	if err != nil {
		t.Fatal(err)
	}
	if card != float64(exact) {
		t.Fatalf("sampled join-size estimate %v, want exact %d", card, exact)
	}
}

// TestColumnarManifest packs a table into a .duetcol file, declares it as a
// manifest model through the "csv" field, and checks the mapped table
// assembles, serves, and resolves as the lifecycle Pack target.
func TestColumnarManifest(t *testing.T) {
	dir := t.TempDir()
	tbl := duet.SynCensus(600, 9)
	colPath := filepath.Join(dir, "census.duetcol")
	if err := duet.PackTable(colPath, tbl); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "deploy.json")
	man := `{
	  "models": [{"name": "census", "csv": "census.duetcol", "train_epochs": 1}],
	  "lifecycle": {"max_column_drift": 0.3, "min_appended": 32}
	}`
	if err := os.WriteFile(manPath, []byte(man), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Models[0].ColPath(dir); got != colPath {
		t.Fatalf("colPath = %q, want %q", got, colPath)
	}
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()
	if err := assembleRegistry(reg, m, dir, dir); err != nil {
		t.Fatal(err)
	}
	served, err := reg.Table("census")
	if err != nil {
		t.Fatal(err)
	}
	if served.NumRows() != tbl.NumRows() || served.Name != "census" {
		t.Fatalf("served table %s, want %d rows named census", served.Stats(), tbl.NumRows())
	}
	q, err := duet.ParseQuery(served, "age<=40")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := reg.Query(context.Background(), duet.QueryRequest{Model: "census", Queries: []duet.Query{q}})
	if err != nil || math.IsNaN(ans.Cards[0]) || ans.Cards[0] < 0 {
		t.Fatalf("estimate over mapped table: %+v, %v", ans, err)
	}
	lc, err := startLifecycle(reg, m, dir, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if stats := lc.Stats(); len(stats) != 1 || stats[0].Model != "census" {
		t.Fatalf("managed: %+v", stats)
	}
}

// TestExampleManifests loads every manifest under examples/, so a schema
// change that orphans one fails here rather than at a reader's first run.
func TestExampleManifests(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 2 {
		t.Fatalf("found %d example manifests, want the cluster and serving ones", len(paths))
	}
	for _, p := range paths {
		if _, err := manifest.Load(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestOneModelManifestServes assembles the one-model serving example and
// checks that /v1/estimate answers requests that name no model, the way a
// single-table deployment is queried.
func TestOneModelManifestServes(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "serving", "census.json")
	man, err := manifest.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()
	if err := assembleRegistry(reg, man, filepath.Dir(path), dir); err != nil {
		t.Fatal(err)
	}
	rec, out := doJSON(t, testHandler(reg), "POST", "/v1/estimate", map[string]any{"query": "age<=40 AND hours>30"})
	if rec.Code != http.StatusOK || out["model"] != "census" {
		t.Fatalf("unnamed estimate: %d %v", rec.Code, out)
	}
	if card, ok := out["card"].(float64); !ok || !(card > 0) {
		t.Fatalf("unnamed estimate card: %v", out)
	}
}

// TestProxyNeedsClusterBlock: -proxy reads its fleet from the manifest's
// "cluster" block alone, so a manifest without one is refused before the
// proxy listens.
func TestProxyNeedsClusterBlock(t *testing.T) {
	man, err := manifest.Load(filepath.Join("..", "..", "examples", "serving", "census.json"))
	if err != nil {
		t.Fatal(err)
	}
	err = runProxy("127.0.0.1:0", man, duet.NewObsSuite(duet.ObsConfig{}))
	if err == nil || !strings.Contains(err.Error(), `"cluster"`) {
		t.Fatalf("runProxy without a cluster block: err %v", err)
	}
}
