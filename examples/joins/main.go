// Join cardinality estimation: the paper inherits NeuroCard's approach —
// learn the estimator over the join result and answer join queries as
// single-table queries on it. This example joins an orders-like table with a
// customers-like table, trains Duet on the join, and estimates filtered join
// cardinalities.
//
//	go run ./examples/joins
package main

import (
	"fmt"

	"duet"
	"duet/internal/relation"
	"duet/internal/workload"
)

func main() {
	// customers(id, region, tier): id is the primary key.
	customers := relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 2000, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 2000, Skew: 0, Parent: -1},
			{Name: "region", NDV: 12, Skew: 1.5, Parent: 0, Noise: 0.1},
			{Name: "tier", NDV: 4, Skew: 1.8, Parent: 1, Noise: 0.2},
		},
	})
	// orders(cust_id, amount_bin, channel): many orders per customer.
	orders := relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 12000, Seed: 2,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 2000, Skew: 1.3, Parent: -1},
			{Name: "amount_bin", NDV: 50, Skew: 1.4, Parent: 0, Noise: 0.3},
			{Name: "channel", NDV: 5, Skew: 1.6, Parent: -1},
		},
	})

	card, err := relation.MultiJoinCardinality(&relation.JoinGraph{
		Tables: []*relation.Table{orders, customers},
		Edges:  []relation.JoinEdge{{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"}},
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("orders ⋈ customers: %d rows (orders %d × customers %d)\n",
		card, orders.NumRows(), customers.NumRows())

	joined, err := relation.EquiJoin("oc", orders, "cust_id", customers, "id")
	if err != nil {
		panic(err)
	}
	fmt.Println("materialized:", joined.Stats())

	fmt.Println("training Duet on the join result (6 epochs)...")
	m := duet.New(joined, duet.DefaultConfig())
	tc := duet.DefaultTrainConfig()
	tc.Epochs = 6
	tc.Lambda = 0
	duet.Train(m, tc)

	// Filtered join cardinalities, written as WHERE clauses over the join.
	exprs := []string{
		"r_region<=3",
		"l_channel=0 AND r_tier=0",
		"l_amount_bin<10 AND r_region>=6",
	}
	fmt.Printf("\n%-40s %10s %10s %8s\n", "join filter", "estimate", "exact", "q-error")
	for _, expr := range exprs {
		q, err := workload.ParseQuery(joined, expr)
		if err != nil {
			panic(err)
		}
		est := m.EstimateCard(q)
		act := duet.Card(joined, q)
		fmt.Printf("%-40s %10.1f %10d %8.3f\n", expr, est, act, duet.QError(est, float64(act)))
	}
}
