package registry

import (
	"context"
	"math"
	"strings"
	"testing"

	"duet/internal/core"
	"duet/internal/obs"
	"duet/internal/workload"
)

// TestQueryModesAgree: an expression answers bitwise the same alone (Expr),
// as a batch of one, at its position in a larger batch (Exprs), and as its
// resolution replayed pre-parsed (Queries) — join routing included.
func TestQueryModesAgree(t *testing.T) {
	reg, _ := joinFixture(t)
	ctx := context.Background()
	exprs := []string{
		"orders.amount<=10",
		"orders.cust_id = customers.id AND orders.amount<=10",
		"customers.region>2",
	}
	batch, err := reg.Query(ctx, QueryRequest{Exprs: exprs})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Cards) != len(exprs) || len(batch.Models) != len(exprs) {
		t.Fatalf("batch answered %d of %d", len(batch.Cards), len(exprs))
	}
	for i, expr := range exprs {
		single, err := reg.Query(ctx, QueryRequest{Expr: expr})
		if err != nil {
			t.Fatalf("Query %q: %v", expr, err)
		}
		if len(single.Models) != 1 || len(single.Cards) != 1 {
			t.Fatalf("Query %q: %+v", expr, single)
		}
		one, err := reg.Query(ctx, QueryRequest{Exprs: []string{expr}})
		if err != nil {
			t.Fatalf("Query batch of one %q: %v", expr, err)
		}
		res, err := reg.Resolve("", expr)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := reg.Query(ctx, QueryRequest{Model: res.Model, Queries: []workload.Query{res.Query}})
		if err != nil {
			t.Fatalf("Query replay %q: %v", expr, err)
		}
		for mode, got := range map[string]QueryResult{"batch of one": one, "replay": replay,
			"batch position": {Models: batch.Models[i : i+1], Cards: batch.Cards[i : i+1]}} {
			if got.Models[0] != single.Models[0] || math.Float64bits(got.Cards[0]) != math.Float64bits(single.Cards[0]) {
				t.Fatalf("%q %s: got (%q, %v), alone (%q, %v)", expr, mode, got.Models[0], got.Cards[0], single.Models[0], single.Cards[0])
			}
		}
	}
}

// TestQueryPreParsedPath: the Queries path answers positionally against the
// named model, independent of batch composition, and requires a model name.
func TestQueryPreParsedPath(t *testing.T) {
	reg, joined := joinFixture(t)
	ctx := context.Background()
	qs := testQueries(joined, 8)

	res, err := reg.Query(ctx, QueryRequest{Model: "orders_customers", Queries: qs})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := estimate(ctx, reg, "orders_customers", q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Cards[i]) != math.Float64bits(want) {
			t.Fatalf("query %d: %v in the batch, %v alone", i, res.Cards[i], want)
		}
		if res.Models[i] != "orders_customers" {
			t.Fatalf("query %d answered by %q", i, res.Models[i])
		}
	}

	if _, err := reg.Query(ctx, QueryRequest{Queries: qs}); err == nil {
		t.Fatal("pre-parsed queries without a model must error")
	}
}

// TestQueryObservesEstimateLatency: every QueryRequest mode lands one
// observation per answering model in duet_registry_estimate_seconds.
func TestQueryObservesEstimateLatency(t *testing.T) {
	ta := testTable("alpha", 3)
	reg := New(Config{Dir: t.TempDir(), Obs: obs.NewRegistry()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, core.NewModel(ta, smallConfig(5)), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	hist := reg.met.estSec.With("alpha")
	for i, req := range []QueryRequest{
		{Expr: "a<=3"},
		{Exprs: []string{"a<=3", "b>1"}},
		{Model: "alpha", Queries: testQueries(ta, 3)},
	} {
		before := hist.Count()
		if _, err := reg.Query(ctx, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got := hist.Count() - before; got != 1 {
			t.Fatalf("request %d (%+v) observed the latency histogram %d times, want 1", i, req, got)
		}
	}
}

// TestQueryValidation: a request must set exactly one input field.
func TestQueryValidation(t *testing.T) {
	reg, _ := joinFixture(t)
	ctx := context.Background()
	bad := []QueryRequest{
		{},
		{Expr: "orders.amount<=10", Exprs: []string{"orders.amount<=10"}},
		{Expr: "orders.amount<=10", Queries: []workload.Query{{}}},
		{Exprs: []string{"orders.amount<=10"}, Queries: []workload.Query{{}}},
	}
	for i, req := range bad {
		if _, err := reg.Query(ctx, req); err == nil {
			t.Fatalf("request %d should be rejected: %+v", i, req)
		}
	}
	// A bad expression in a batch names its position.
	_, err := reg.Query(ctx, QueryRequest{Exprs: []string{"orders.amount<=10", "no_such.thing<=1"}})
	if err == nil || !strings.Contains(err.Error(), "queries[1]") {
		t.Fatalf("batch error should name the failing position: %v", err)
	}
}

// TestSwapRecordsVersion: a versioned swap surfaces in ModelInfo and the
// per-model stats snapshot.
func TestSwapRecordsVersion(t *testing.T) {
	ta := testTable("alpha", 3)
	reg := New(Config{Dir: t.TempDir()})
	defer reg.Close()
	if err := reg.Add("alpha", ta, trainedModel(ta, 5), AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SwapModel("alpha", trainedModel(ta, 6), SwapOpts{Version: 4}); err != nil {
		t.Fatal(err)
	}
	infos := reg.Info()
	if len(infos) != 1 || infos[0].Version != 4 || infos[0].Swaps != 1 {
		t.Fatalf("info after versioned swap: %+v", infos)
	}
	st := reg.Stats().PerModel["alpha"]
	if st.Version != 4 || st.Swaps != 1 {
		t.Fatalf("stats after versioned swap: %+v", st)
	}
	// An unversioned swap keeps the recorded version.
	if err := reg.SwapModel("alpha", trainedModel(ta, 7), SwapOpts{}); err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats().PerModel["alpha"]; st.Version != 4 || st.Swaps != 2 {
		t.Fatalf("stats after unversioned swap: %+v", st)
	}
}
