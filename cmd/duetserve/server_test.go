package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"duet"
	"duet/cmd/internal/manifest"
	"duet/internal/relation"
)

// testServer builds a registry with two base models and a join view, the
// orders model file-backed so the reload endpoint has something to reload.
func testServer(t *testing.T) (*duet.Registry, string) {
	t.Helper()
	dir := t.TempDir()
	customers := relation.Generate(relation.SynConfig{
		Name: "customers", Rows: 200, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "id", NDV: 200, Skew: 0, Parent: -1},
			{Name: "region", NDV: 6, Skew: 1.4, Parent: 0, Noise: 0.1},
		},
	})
	orders := relation.Generate(relation.SynConfig{
		Name: "orders", Rows: 600, Seed: 2,
		Cols: []relation.ColSpec{
			{Name: "cust_id", NDV: 200, Skew: 1.2, Parent: -1},
			{Name: "amount", NDV: 24, Skew: 1.5, Parent: 0, Noise: 0.3},
		},
	})
	joined, err := relation.EquiJoin("orders_customers", orders, "cust_id", customers, "id")
	if err != nil {
		t.Fatal(err)
	}
	cfg := duet.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8

	ordersModel := duet.New(orders, cfg)
	ordersPath := filepath.Join(dir, "orders.duet")
	f, err := os.Create(ordersPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := ordersModel.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	t.Cleanup(func() { reg.Close() })
	if err := reg.Add("orders", orders, nil, duet.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("customers", customers, duet.New(customers, cfg), duet.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Add("orders_customers", joined, duet.New(joined, cfg), duet.AddOpts{
		Join: &duet.JoinEdge{LeftTable: "orders", LeftCol: "cust_id", RightTable: "customers", RightCol: "id"},
	}); err != nil {
		t.Fatal(err)
	}
	return reg, ordersPath
}

// testHandler mounts the /v1 API over a registry without lifecycle.
func testHandler(reg *duet.Registry) http.Handler {
	return duet.NewAPIServer(reg, nil, "", nil).Handler()
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := map[string]any{}
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec, out
}

func TestEstimateEndpointRouting(t *testing.T) {
	reg, _ := testServer(t)
	mux := testHandler(reg)

	// Named model.
	rec, out := doJSON(t, mux, "POST", "/v1/estimate", map[string]any{"model": "orders", "query": "amount<=10"})
	if rec.Code != http.StatusOK || out["model"] != "orders" || out["card"] == nil {
		t.Fatalf("named model: %d %v", rec.Code, out)
	}
	// Join expression, no model named: routes to the join view.
	rec, out = doJSON(t, mux, "POST", "/v1/estimate", map[string]any{
		"query": "orders.cust_id = customers.id AND orders.amount<=10"})
	if rec.Code != http.StatusOK || out["model"] != "orders_customers" {
		t.Fatalf("join routing: %d %v", rec.Code, out)
	}
	// Batch across models.
	rec, out = doJSON(t, mux, "POST", "/v1/estimate", map[string]any{
		"model":   "orders",
		"queries": []string{"amount<=10", "amount>12"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %v", rec.Code, out)
	}
	if cards, ok := out["cards"].([]any); !ok || len(cards) != 2 {
		t.Fatalf("batch cards: %v", out)
	}
	// Errors.
	for _, tc := range []struct {
		body map[string]any
		code int
	}{
		{map[string]any{"model": "nope", "query": "amount<=10"}, http.StatusNotFound},
		{map[string]any{"query": "amount<=10"}, http.StatusBadRequest}, // ambiguous target
		{map[string]any{"model": "orders"}, http.StatusBadRequest},     // no query
		{map[string]any{"model": "orders", "query": "bogus<=10"}, http.StatusBadRequest},
		{map[string]any{"query": "orders.cust_id = customers.region"}, http.StatusBadRequest}, // no such view
	} {
		rec, out := doJSON(t, mux, "POST", "/v1/estimate", tc.body)
		if rec.Code != tc.code {
			t.Fatalf("%v: got %d (%v), want %d", tc.body, rec.Code, out, tc.code)
		}
	}
}

func TestModelsAndStatsEndpoints(t *testing.T) {
	reg, _ := testServer(t)
	mux := testHandler(reg)
	rec, out := doJSON(t, mux, "GET", "/v1/models", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/models: %d", rec.Code)
	}
	models, ok := out["models"].([]any)
	if !ok || len(models) != 3 {
		t.Fatalf("/v1/models payload: %v", out)
	}
	rec, out = doJSON(t, mux, "GET", "/v1/healthz", nil)
	if rec.Code != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("/v1/healthz: %d %v", rec.Code, out)
	}
	rec, out = doJSON(t, mux, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK || out["per_model"] == nil {
		t.Fatalf("/v1/stats: %d %v", rec.Code, out)
	}
}

func TestReloadEndpoint(t *testing.T) {
	reg, _ := testServer(t)
	mux := testHandler(reg)
	rec, out := doJSON(t, mux, "POST", "/v1/models/orders/reload", nil)
	if rec.Code != http.StatusOK || out["status"] != "reloaded" {
		t.Fatalf("reload: %d %v", rec.Code, out)
	}
	rec, _ = doJSON(t, mux, "POST", "/v1/models/nope/reload", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("reload unknown: %d", rec.Code)
	}
	// In-memory models cannot reload.
	rec, _ = doJSON(t, mux, "POST", "/v1/models/customers/reload", nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("reload in-memory: %d", rec.Code)
	}
}

func TestManifestAssembly(t *testing.T) {
	dir := t.TempDir()
	body := fmt.Sprintf(`{
	  "models": [
	    {"name": "dmvdemo", "syn": "census", "rows": 800, "seed": 3, "train_epochs": 0},
	    {"name": "dmvdemo2", "syn": "census", "rows": 600, "seed": 4, "train_epochs": 0}
	  ],
	  "joins": []
	}`)
	manPath := filepath.Join(dir, "deploy.json")
	if err := os.WriteFile(manPath, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()
	if err := assembleRegistry(reg, man, dir, dir); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("assembled %d models", reg.Len())
	}
	// Untrained models with no file are still persisted for future reloads.
	if _, err := os.Stat(filepath.Join(dir, "dmvdemo.duet")); err != nil {
		t.Fatal(err)
	}
	// Bad manifests are rejected.
	for _, bad := range []string{
		`{"models": []}`,
		`{"models": [{"name": "a", "syn": "census"}, {"name": "a", "syn": "census"}]}`,
		`{"models": [{"name": "a", "syn": "census"}], "joins": [{"name": "j", "left": "a", "right": "missing"}]}`,
	} {
		if err := os.WriteFile(manPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := manifest.Load(manPath); err == nil {
			t.Fatalf("manifest accepted: %s", bad)
		}
	}
}
