// Multi-way join estimation over a join graph: materialize the full outer
// join of a 3-table chain (orders -> customers -> regions) with per-table
// fanout columns, train Duet on it, register it as a join-graph view, and
// let the registry router answer chain queries, subset joins, and exact
// join-size queries — all through textual expressions.
//
//	go run ./examples/joingraph
package main

import (
	"context"
	"fmt"

	"duet"
	"duet/internal/relation"
)

func main() {
	regions := relation.Generate(relation.SynConfig{
		Name: "regions", Rows: 60, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 60, Skew: 0, Parent: -1},
			{Name: "pop_bin", NDV: 10, Skew: 1.2, Parent: 0, Noise: 0.2},
		},
	})
	customers := relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 1500, Seed: 2,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 1600, Skew: 0, Parent: -1},
			{Name: "region_id", NDV: 64, Skew: 1.3, Parent: -1}, // some regions unknown
			{Name: "tier", NDV: 4, Skew: 1.8, Parent: 1, Noise: 0.2},
		},
	})
	orders := relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 8000, Seed: 3,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 1700, Skew: 1.3, Parent: -1}, // some customers unknown
			{Name: "amount_bin", NDV: 40, Skew: 1.4, Parent: 0, Noise: 0.3},
		},
	})

	// The join is declared once: these edges feed the exact oracle, the
	// materialization and the registered view's spec alike.
	edges := []duet.JoinEdge{
		{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
		{LeftTable: "customers", LeftCol: "region_id", RightTable: "regions", RightCol: "id"},
	}
	tables := []*duet.Table{orders, customers, regions}
	exact, err := duet.JoinGraphCardinality(tables, edges)
	check(err)
	fmt.Printf("orders ⋈ customers ⋈ regions: %d rows exactly (no materialization)\n", exact)

	view, err := duet.BuildJoinGraphView("ocr", tables, edges)
	check(err)
	fmt.Println("full outer join view:", view.Stats())

	fmt.Println("training Duet on the view (4 epochs)...")
	cfg := duet.DefaultConfig()
	model := duet.New(view, cfg)
	tc := duet.DefaultTrainConfig()
	tc.Epochs = 4
	tc.Lambda = 0
	duet.Train(model, tc)

	reg := duet.NewRegistry(duet.RegistryConfig{})
	defer reg.Close()
	// Base tables first (subset fanout corrections read them), then the view.
	for _, t := range tables {
		check(reg.Add(t.Name, t, duet.New(t, cfg), duet.AddOpts{}))
	}
	check(reg.Add("ocr", view, model, duet.AddOpts{Graph: &duet.JoinGraphSpec{
		Tables: []string{"orders", "customers", "regions"},
		Edges:  edges,
	}}))

	ctx := context.Background()
	chain := "orders.cust_id = customers.id AND customers.region_id = regions.id"
	for _, expr := range []string{
		chain, // join size: answered exactly via the fanout anchor
		chain + " AND orders.amount_bin<10",
		chain + " AND customers.tier=0 AND regions.pop_bin>=4",
		"orders.cust_id = customers.id AND customers.tier<=1", // subset join, fanout-corrected
	} {
		res, err := reg.Query(ctx, duet.QueryRequest{Expr: expr})
		check(err)
		fmt.Printf("%-72s -> %s: %.1f\n", expr, res.Models[0], res.Cards[0])
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
