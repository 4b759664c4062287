package registry

import (
	"context"
	"math"
	"strings"
	"testing"

	"duet/internal/core"
	"duet/internal/relation"
	"duet/internal/serve"
)

// serveNoCache disables the result cache so reload effects are immediately
// observable through Estimate.
func serveNoCache() serve.Config { return serve.Config{CacheSize: -1} }

// joinFixture registers orders, customers, and their join view.
func joinFixture(t *testing.T) (*Registry, *relation.Table) {
	t.Helper()
	customers := relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 300, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 300, Skew: 0, Parent: -1},
			{Name: "region", NDV: 8, Skew: 1.4, Parent: 0, Noise: 0.1},
		},
	})
	orders := relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 900, Seed: 2,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 300, Skew: 1.2, Parent: -1},
			{Name: "amount", NDV: 32, Skew: 1.5, Parent: 0, Noise: 0.3},
		},
	})
	joined, err := relation.EquiJoin("orders_customers", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	reg := New(Config{Dir: t.TempDir()})
	t.Cleanup(func() { reg.Close() })
	for _, m := range []struct {
		name string
		tb   *relation.Table
		join *relation.JoinEdge
	}{
		{"orders", orders, nil},
		{"customers", customers, nil},
		{"orders_customers", joined, &relation.JoinEdge{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"}},
	} {
		if err := reg.Add(m.name, m.tb, core.NewModel(m.tb, smallConfig(7)), AddOpts{Join: m.join}); err != nil {
			t.Fatal(err)
		}
	}
	return reg, joined
}

func TestRouteJoinQuery(t *testing.T) {
	reg, joined := joinFixture(t)
	name, q, err := route(reg, "", "orders.cust_id = customers.id AND orders.amount<=10 AND customers.region>2")
	if err != nil {
		t.Fatal(err)
	}
	if name != "orders_customers" {
		t.Fatalf("routed to %q", name)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("got %d predicates", len(q.Preds))
	}
	// The predicates must land on the view's l_/r_ columns.
	if c := joined.Cols[q.Preds[0].Col].Name; c != "l_amount" {
		t.Fatalf("first predicate on %q", c)
	}
	if c := joined.Cols[q.Preds[1].Col].Name; c != "r_region" {
		t.Fatalf("second predicate on %q", c)
	}

	// Orientation-insensitive: flipped clause routes to the same view.
	name2, _, err := route(reg, "", "customers.id = orders.cust_id AND orders.amount<=10")
	if err != nil || name2 != name {
		t.Fatalf("flipped clause: %q, %v", name2, err)
	}

	// A predicate on the right join key rewrites onto the surviving left key.
	_, q3, err := route(reg, "", "orders.cust_id = customers.id AND customers.id<=100")
	if err != nil {
		t.Fatal(err)
	}
	if c := joined.Cols[q3.Preds[0].Col].Name; c != "l_cust_id" {
		t.Fatalf("right join key mapped to %q", c)
	}
}

func TestRouteJoinEstimateMatchesDirect(t *testing.T) {
	reg, _ := joinFixture(t)
	expr := "orders.cust_id = customers.id AND orders.amount<=10"
	name, q, err := route(reg, "", expr)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := estimate(context.Background(), reg, name, q)
	if err != nil {
		t.Fatal(err)
	}
	routedName, routed, err := estimateExpr(context.Background(), reg, "", expr)
	if err != nil || routedName != name {
		t.Fatalf("EstimateExpr: %q, %v", routedName, err)
	}
	if math.Float64bits(routed) != math.Float64bits(direct) {
		t.Fatalf("routed %v != direct %v", routed, direct)
	}
	s := reg.Stats()
	if s.JoinRouted == 0 || s.Routed < s.JoinRouted {
		t.Fatalf("stats: %+v", s)
	}
}

func TestRouteSingleTable(t *testing.T) {
	reg, _ := joinFixture(t)
	// Explicit target, unqualified and table-qualified predicates.
	for _, expr := range []string{"amount<=10", "orders.amount<=10"} {
		if name, q, err := route(reg, "orders", expr); err != nil || name != "orders" || len(q.Preds) != 1 {
			t.Fatalf("%q: %q %v %v", expr, name, q, err)
		}
	}
	// Join-view target accepts base-table-qualified predicates without a
	// join clause (the view is named explicitly).
	if _, q, err := route(reg, "orders_customers", "customers.region>2"); err != nil || len(q.Preds) != 1 {
		t.Fatalf("view-target routing: %v %v", q, err)
	}
	// Empty target with several models is ambiguous...
	if _, _, err := route(reg, "", "amount<=10"); err == nil {
		t.Fatal("ambiguous target accepted")
	}
	// ...unless the predicate qualifiers pin down one registered model.
	if name, _, err := route(reg, "", "orders.amount<=10"); err != nil || name != "orders" {
		t.Fatalf("qualifier inference: %q %v", name, err)
	}
	if _, _, err := route(reg, "", "orders.amount<=10 AND customers.region>2"); err == nil {
		t.Fatal("mixed qualifiers without a join clause accepted")
	}
}

func TestRouteErrors(t *testing.T) {
	reg, _ := joinFixture(t)
	for _, tc := range []struct {
		target, expr, wantSub string
	}{
		{"", "orders.cust_id = customers.region AND orders.amount<=1", "no join view registered"},
		{"orders", "orders.cust_id = customers.id", "does not serve the join"},
		{"", "orders.cust_id = customers.id AND amount<=1", "must be qualified"},
		{"", "orders.cust_id = customers.id AND shipments.x<=1", "not part of the join"},
		{"orders", "customers.region>2", "does not match model"},
		{"nope", "amount<=10", "unknown model"},
		{"", "orders.cust_id = customers.id AND orders.cust_id = customers.id", "duplicate join predicate"},
		{"", "orders.cust_id = customers.id AND customers.id = orders.cust_id", "duplicate join predicate"},
		{"orders", "amount<='x'", "string literal"},
		{"orders", "bogus<=10", "unknown column"},
	} {
		_, _, err := route(reg, tc.target, tc.expr)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Fatalf("Route(%q, %q) = %v, want substring %q", tc.target, tc.expr, err, tc.wantSub)
		}
	}
}

// TestJoinKindMismatch: registering a join view over kind-mismatched columns
// fails at EquiJoin time with a clear error.
func TestJoinKindMismatch(t *testing.T) {
	left := relation.NewTable("l", []*relation.Column{
		relation.NewIntColumn("k", []int64{1, 2, 3}),
	})
	right := relation.NewTable("r", []*relation.Column{
		relation.NewStringColumn("k", []string{"1", "2", "3"}),
	})
	if _, err := relation.EquiJoin("lr", left, "k", right, "k"); err == nil ||
		!strings.Contains(err.Error(), "kinds differ") {
		t.Fatalf("kind mismatch: %v", err)
	}
}

func TestDuplicateJoinViewRejected(t *testing.T) {
	reg, joined := joinFixture(t)
	spec := &relation.JoinEdge{LeftTable: "customers", LeftCol: "id", RightTable: "orders", RightCol: "cust_id"}
	// Same join in the flipped orientation must collide with the registered view.
	err := reg.Add("dup", joined, core.NewModel(joined, smallConfig(3)), AddOpts{Join: spec})
	if err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("duplicate join view: %v", err)
	}
}
