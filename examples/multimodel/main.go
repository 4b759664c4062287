// Example: multi-model serving with join-aware routing and hot reload.
//
// One registry hosts many estimators — base tables and NeuroCard-style join
// views — behind a router that resolves textual queries to the right model.
// Join queries ("orders.cust_id = customers.id AND ...") are answered as
// single-table queries over a model trained on the materialized equi-join.
// File-backed models hot-reload atomically: the old estimator keeps
// answering its in-flight requests while the new one takes over.
//
// Run with: go run ./examples/multimodel
//
// The same registry is exposed over HTTP by cmd/duetserve:
//
//	go run ./cmd/duetserve -manifest deploy.json -modeldir models -watch 2s &
//	curl -s localhost:8080/v1/estimate -H 'Content-Type: application/json' -d '{"query": "orders.cust_id = customers.id AND orders.amount_bin<=10"}'
//	curl -s localhost:8080/v1/models
//	curl -s -X POST localhost:8080/v1/models/orders/reload
package main

import (
	"context"
	"fmt"
	"os"

	"duet"
	"duet/internal/relation"
)

func main() {
	// Two base tables with a foreign-key relationship.
	customers := relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 2000, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 2000, Skew: 0, Parent: -1},
			{Name: "region", NDV: 12, Skew: 1.5, Parent: 0, Noise: 0.1},
			{Name: "tier", NDV: 4, Skew: 1.8, Parent: 1, Noise: 0.2},
		},
	})
	orders := relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 12000, Seed: 2,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 2000, Skew: 1.3, Parent: -1},
			{Name: "amount_bin", NDV: 50, Skew: 1.4, Parent: 0, Noise: 0.3},
			{Name: "channel", NDV: 5, Skew: 1.6, Parent: -1},
		},
	})
	// The join view: materialize orders ⋈ customers and train over it, so
	// join queries become single-table queries (the substrate the paper
	// inherits from NeuroCard). Offline, a manifest declares the view and
	// duettrain -manifest FILE -join NAME trains it. The join is declared
	// once: the same edge builds the view and registers it below.
	join := duet.JoinEdge{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"}
	joined, err := duet.BuildJoinView("orders_customers", orders, join.LeftCol, customers, join.RightCol)
	check(err)
	fmt.Println("join view:", joined.Stats())

	// One registry owns all three estimators. Dir is where SaveModel and
	// hot reload look for weights.
	dir, err := os.MkdirTemp("", "duet-multimodel")
	check(err)
	defer os.RemoveAll(dir)
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()

	for _, m := range []struct {
		name string
		tbl  *duet.Table
		join *duet.JoinEdge
	}{
		{"customers", customers, nil},
		{"orders", orders, nil},
		{"orders_customers", joined, &join},
	} {
		fmt.Printf("training %s (3 epochs)...\n", m.name)
		model := duet.New(m.tbl, duet.DefaultConfig())
		tc := duet.DefaultTrainConfig()
		tc.Epochs = 3
		tc.Lambda = 0
		duet.Train(model, tc)
		check(reg.Add(m.name, m.tbl, model, duet.AddOpts{Join: m.join}))
	}

	ctx := context.Background()

	// The router sends each expression to the right estimator: named base
	// tables, or — for join expressions — the registered join view.
	for _, expr := range []string{
		"orders.amount_bin<=10",
		"customers.region<=3 AND customers.tier=1",
		"orders.cust_id = customers.id AND orders.amount_bin<=10",
		"orders.cust_id = customers.id AND customers.region<=3 AND orders.channel=2",
	} {
		res, err := reg.Query(ctx, duet.QueryRequest{Expr: expr})
		check(err)
		fmt.Printf("%-72s -> %-16s %10.1f\n", expr, res.Models[0], res.Cards[0])
	}

	// Ground truth for the last join estimate, via the exact executor on the
	// materialized join.
	q, err := duet.ParseQuery(joined, "l_amount_bin<=10")
	check(err)
	fmt.Printf("exact filtered join cardinality: %d\n", duet.Card(joined, q))

	// Hot reload: persist the current orders model, retrain a fresh one,
	// save it over the same file, and reload. In production the watcher
	// (RegistryConfig.WatchInterval) does the reload automatically; requests
	// in flight during the swap complete against the old model.
	_, err = reg.SaveModel("orders")
	check(err)
	check(reg.Reload("orders"))
	fmt.Println("orders model hot-reloaded")

	for _, mi := range reg.Info() {
		fmt.Printf("model %-16s table=%-16s rows=%-6d reloads=%d requests=%d\n",
			mi.Name, mi.Table, mi.Rows, mi.Reloads, mi.Serve.Requests)
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
