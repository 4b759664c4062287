package main

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"duet"
)

// lifecycleServer wraps testServer's registry with a supervisor managing the
// orders model, mirroring what a manifest lifecycle block assembles.
func lifecycleServer(t *testing.T) (*duet.Registry, *duet.Lifecycle) {
	t.Helper()
	reg, _ := testServer(t)
	lc := duet.NewLifecycle(reg, duet.LifecyclePolicy{
		MaxMedianQErr: 1e9, // signals recorded, never tripped: endpoint tests stay deterministic
		CheckInterval: time.Hour,
	}, duet.LifecycleOptions{})
	t.Cleanup(lc.Close)
	cfg := duet.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	if err := lc.Manage("orders", duet.LifecycleManageOpts{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	return reg, lc
}

func TestLifecycleEndpoints(t *testing.T) {
	reg, lc := lifecycleServer(t)
	mux := duet.NewAPIServer(reg, lc, "", nil).Handler()

	// Ingest: numbers and strings both parse; the drift signal reports back.
	rec, out := doJSON(t, mux, "POST", "/v1/ingest", map[string]any{
		"model": "orders",
		"rows":  []any{[]any{1, 5}, []any{"2", "7"}},
	})
	if rec.Code != http.StatusOK || out["appended"] != float64(2) || out["pending_rows"] != float64(2) {
		t.Fatalf("/v1/ingest: %d %v", rec.Code, out)
	}

	// Feedback: single pair and batch form.
	rec, out = doJSON(t, mux, "POST", "/v1/feedback", map[string]any{
		"model": "orders", "query": "amount<=10", "card": 123,
	})
	if rec.Code != http.StatusOK || out["qerror"] == nil {
		t.Fatalf("/v1/feedback: %d %v", rec.Code, out)
	}
	rec, out = doJSON(t, mux, "POST", "/v1/feedback", map[string]any{
		"model": "orders",
		"items": []map[string]any{{"query": "amount<=5", "card": 40}, {"query": "amount>9", "card": 7}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/feedback batch: %d %v", rec.Code, out)
	}
	if results, ok := out["results"].([]any); !ok || len(results) != 2 {
		t.Fatalf("/v1/feedback batch results: %v", out)
	}

	// Lifecycle state reflects the recorded signals.
	rec, out = doJSON(t, mux, "GET", "/v1/lifecycle", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/lifecycle: %d %v", rec.Code, out)
	}
	models, ok := out["models"].([]any)
	if !ok || len(models) != 1 {
		t.Fatalf("/v1/lifecycle payload: %v", out)
	}
	ms := models[0].(map[string]any)
	if ms["model"] != "orders" || ms["pending_rows"] != float64(2) || ms["feedback_n"] != float64(3) {
		t.Fatalf("/v1/lifecycle state: %v", ms)
	}

	// Errors: unknown/unmanaged models, malformed rows, missing fields.
	for _, tc := range []struct {
		path string
		body map[string]any
		code int
	}{
		{"/v1/ingest", map[string]any{"model": "customers", "rows": []any{[]any{1, 2}}}, http.StatusNotFound},
		{"/v1/ingest", map[string]any{"model": "orders"}, http.StatusBadRequest},
		{"/v1/ingest", map[string]any{"model": "orders", "rows": []any{[]any{1}}}, http.StatusBadRequest},
		{"/v1/ingest", map[string]any{"model": "orders", "rows": []any{[]any{true, 2}}}, http.StatusBadRequest},
		{"/v1/feedback", map[string]any{"model": "orders", "query": "amount<=10"}, http.StatusBadRequest},
		{"/v1/feedback", map[string]any{"model": "orders"}, http.StatusBadRequest},
		{"/v1/feedback", map[string]any{"model": "customers", "query": "region<=2", "card": 5}, http.StatusNotFound},
	} {
		rec, out := doJSON(t, mux, "POST", tc.path, tc.body)
		if rec.Code != tc.code {
			t.Fatalf("%s %v: got %d (%v), want %d", tc.path, tc.body, rec.Code, out, tc.code)
		}
	}
}

func TestLifecycleEndpointsDisabled(t *testing.T) {
	reg, _ := testServer(t)
	mux := testHandler(reg)
	for _, req := range []struct{ method, path string }{
		{"POST", "/v1/ingest"}, {"POST", "/v1/feedback"}, {"GET", "/v1/lifecycle"},
	} {
		rec, _ := doJSON(t, mux, req.method, req.path, map[string]any{"model": "orders"})
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s %s without lifecycle: %d, want 404", req.method, req.path, rec.Code)
		}
	}
}

func TestManifestLifecycleBlock(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join(dir, "deploy.json")
	good := `{
	  "models": [{"name": "demo", "syn": "census", "rows": 400, "seed": 3, "train_epochs": 0}],
	  "lifecycle": {"max_median_qerr": 4, "min_feedback": 8, "max_column_drift": 0.3, "train_epochs": 1}
	}`
	if err := os.WriteFile(manPath, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.Lifecycle == nil || man.Lifecycle.MaxMedianQErr != 4 {
		t.Fatalf("lifecycle block not parsed: %+v", man.Lifecycle)
	}
	pol := man.Lifecycle.policy()
	if pol.MaxMedianQErr != 4 || pol.MinFeedback != 8 || pol.MaxColumnDrift != 0.3 || pol.TrainEpochs != 1 {
		t.Fatalf("policy rendering: %+v", pol)
	}

	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()
	if err := assembleRegistry(reg, man, dir, dir, false, duet.ServeConfig{}); err != nil {
		t.Fatal(err)
	}
	lc, err := startLifecycle(reg, man, dir, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if stats := lc.Stats(); len(stats) != 1 || stats[0].Model != "demo" {
		t.Fatalf("managed models: %+v", stats)
	}

	for _, bad := range []string{
		`{"models": [{"name": "a", "syn": "census"}], "lifecycle": {"max_median_qerr": -1}}`,
		`{"models": [{"name": "a", "syn": "census"}], "lifecycle": {"max_column_drift": 1.5}}`,
		`{"models": [{"name": "a", "syn": "census"}], "lifecycle": {}}`,
	} {
		if err := os.WriteFile(manPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadManifest(manPath); err == nil {
			t.Fatalf("manifest accepted: %s", bad)
		}
	}
}
