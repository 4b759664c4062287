package duet_test

import (
	"bytes"
	"context"
	"testing"

	"duet"
	"duet/internal/artifact"
)

func facadeTable() *duet.Table {
	return duet.SynCensus(800, 3)
}

func TestFacadeEndToEnd(t *testing.T) {
	tbl := facadeTable()
	m := duet.New(tbl, smallCfg())
	cfg := duet.DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 128
	cfg.Lambda = 0
	duet.Train(m, cfg)

	qs := duet.GenerateWorkload(tbl, duet.RandQConfig(tbl.NumCols(), 30))
	labeled := duet.Label(tbl, qs)
	for _, lq := range labeled {
		est := m.EstimateCard(lq.Query)
		if q := duet.QError(est, float64(lq.Card)); q < 1 {
			t.Fatalf("impossible q-error %v", q)
		}
	}
}

func smallCfg() duet.Config {
	c := duet.DefaultConfig()
	c.Hidden = []int{32, 32}
	return c
}

func TestPredRawValueMapping(t *testing.T) {
	// Build a table with known values and exercise raw-value predicates.
	csv := "price,qty\n10,1\n20,2\n30,3\n20,2\n40,1\n"
	tbl, err := duet.LoadCSV(bytes.NewReader([]byte(csv)), "orders", true)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    duet.Predicate
		want int64
	}{
		{duet.Pred(tbl, "price", duet.OpLe, 20), 3},  // 10,20,20
		{duet.Pred(tbl, "price", duet.OpLe, 25), 3},  // non-exact upper
		{duet.Pred(tbl, "price", duet.OpLt, 20), 1},  // 10
		{duet.Pred(tbl, "price", duet.OpGe, 25), 2},  // 30,40
		{duet.Pred(tbl, "price", duet.OpGt, 20), 2},  // 30,40
		{duet.Pred(tbl, "price", duet.OpGt, 25), 2},  // non-exact lower
		{duet.Pred(tbl, "price", duet.OpEq, 20), 2},  // exact
		{duet.Pred(tbl, "price", duet.OpEq, 25), 0},  // absent value
		{duet.Pred(tbl, "price", duet.OpGe, 100), 0}, // beyond domain
	}
	for _, tc := range cases {
		got := duet.Card(tbl, duet.Q(tc.p))
		if got != tc.want {
			t.Fatalf("predicate %v: card %d want %d", tc.p, got, tc.want)
		}
	}
}

func TestPredUnknownColumnPanics(t *testing.T) {
	tbl := facadeTable()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	duet.Pred(tbl, "no-such-column", duet.OpEq, 1)
}

// TestSaveLoadThroughFacade: a facade model saved into a model directory
// loads back through internal/artifact, as duetserve and duetquery load it.
func TestSaveLoadThroughFacade(t *testing.T) {
	tbl := facadeTable()
	m := duet.New(tbl, smallCfg())
	path := artifact.Dir(t.TempDir()).Path("facade")
	if err := artifact.Save(path, m); err != nil {
		t.Fatal(err)
	}
	m2, _, err := artifact.Load(path, tbl)
	if err != nil {
		t.Fatal(err)
	}
	q := duet.Q(duet.Predicate{Col: 0, Op: duet.OpLe, Code: 5})
	if m.EstimateCard(q) != m2.EstimateCard(q) {
		t.Fatal("loaded model disagrees")
	}
}

func TestSyntheticFacades(t *testing.T) {
	if duet.SynDMV(100, 1).NumCols() != 11 {
		t.Fatal("SynDMV")
	}
	if duet.SynKDD(100, 1).NumCols() != 100 {
		t.Fatal("SynKDD")
	}
	if c := duet.InQConfig(14, 10, 0); c.NumQueries != 10 || !c.GammaPreds {
		t.Fatal("InQConfig")
	}
}

// TestSampledJoinGraphFacade walks the public sampled-materialization flow:
// the one JoinGraphSpec builds the budget view in the BuildJoinGraphView
// layout and its sampler, training streams through TrainConfig.Source, and
// the registry serves the same spec's Sampled view, answering join sizes
// exactly from the base tables.
func TestSampledJoinGraphFacade(t *testing.T) {
	left := duet.SynCensus(300, 5)
	left.Name = "l"
	right := duet.SynCensus(200, 6)
	right.Name = "r"
	lk, rk := left.Cols[0].Name, right.Cols[0].Name
	edges := []duet.JoinEdge{{LeftTable: "l", LeftCol: lk, RightTable: "r", RightCol: rk}}
	tables := []*duet.Table{left, right}

	full, err := duet.BuildJoinGraphView("lr", tables, edges)
	if err != nil {
		t.Fatal(err)
	}
	spec := &duet.JoinGraphSpec{Tables: []string{"l", "r"}, Edges: edges, Sample: 256}
	view, sampler, err := spec.Build("lr", func(name string) (*duet.Table, error) {
		return map[string]*duet.Table{"l": left, "r": right}[name], nil
	}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if view.NumRows() != 256 || sampler.Total() != int64(full.NumRows()) {
		t.Fatalf("sample %d rows of Total %d; materialized FOJ %d", view.NumRows(), sampler.Total(), full.NumRows())
	}
	for i, c := range full.Cols {
		if view.Cols[i].Name != c.Name || view.Cols[i].NumDistinct() != c.NumDistinct() {
			t.Fatalf("layout mismatch at column %d: %s/%d vs %s/%d",
				i, view.Cols[i].Name, view.Cols[i].NumDistinct(), c.Name, c.NumDistinct())
		}
	}

	m := duet.New(view, smallCfg())
	tc := duet.DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchSize = 128
	tc.Lambda = 0
	tc.Source = sampler
	tc.SourceRows = 256
	duet.Train(m, tc)

	reg := duet.NewRegistry(duet.RegistryConfig{Dir: t.TempDir()})
	defer reg.Close()
	for _, tb := range tables {
		if err := reg.Add(tb.Name, tb, duet.New(tb, smallCfg()), duet.AddOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.Add("lr", view, m, duet.AddOpts{Graph: spec}); err != nil {
		t.Fatal(err)
	}
	exact, err := duet.JoinGraphCardinality(tables, edges)
	if err != nil {
		t.Fatal(err)
	}
	res, err := reg.Query(context.Background(), duet.QueryRequest{Expr: "l." + lk + " = r." + rk})
	if err != nil {
		t.Fatal(err)
	}
	if card := res.Cards[0]; card != float64(exact) {
		t.Fatalf("sampled join-size answer %v, want exact %d", card, exact)
	}
}
