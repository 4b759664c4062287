package main

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"duet"
	"duet/cmd/internal/manifest"
	"duet/internal/artifact"
	"duet/internal/relation"
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
	man, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if man.Lifecycle == nil || man.Lifecycle.MaxMedianQErr != 4 {
		t.Fatalf("lifecycle block not parsed: %+v", man.Lifecycle)
	}
	pol := man.Lifecycle.Policy()
	if pol.MaxMedianQErr != 4 || pol.MinFeedback != 8 || pol.MaxColumnDrift != 0.3 || pol.TrainEpochs != 1 {
		t.Fatalf("policy rendering: %+v", pol)
	}

	reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
	defer reg.Close()
	if err := assembleRegistry(reg, man, dir, dir); err != nil {
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
		if _, err := manifest.Load(manPath); err == nil {
			t.Fatalf("manifest accepted: %s", bad)
		}
	}
}

// TestRestartLoadsNewestGeneration: a .duetcol-backed deployment whose
// retrains grew the dictionaries (and compacted them into the columnar file)
// must come back up on its newest generation — the seed weights no longer fit
// the compacted table — answer exactly as it did before the shutdown, and
// keep numbering generations where it left off.
func TestRestartLoadsNewestGeneration(t *testing.T) {
	dir := t.TempDir()
	seed := relation.Generate(relation.SynConfig{
		Name: "alpha", Rows: 400, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 40, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 16, Skew: 1.5, Parent: 0, Noise: 0.2},
			{Name: "b", NDV: 8, Skew: 1.1, Parent: -1},
		},
	})
	if err := duet.PackTable(filepath.Join(dir, "alpha.duetcol"), seed); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "deploy.json")
	if err := os.WriteFile(manPath, []byte(`{
	  "models": [{"name": "alpha", "csv": "alpha.duetcol", "train_epochs": 1}],
	  "lifecycle": {"max_column_drift": 0.3, "min_appended": 32, "train_epochs": 1, "check_interval_ms": 5}
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	// start assembles the deployment the way main does; stop tears it down.
	start := func() (http.Handler, *duet.Lifecycle, func()) {
		t.Helper()
		man, err := manifest.Load(manPath)
		if err != nil {
			t.Fatal(err)
		}
		reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
		if err := assembleRegistry(reg, man, dir, dir); err != nil {
			t.Fatalf("assemble: %v", err)
		}
		lc, err := startLifecycle(reg, man, dir, dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		return duet.NewAPIServer(reg, lc, dir, nil).Handler(), lc, func() { lc.Close(); reg.Close() }
	}
	// retrainTo ingests rows whose every value is new to the dictionaries and
	// waits for the retrain they trip to install generation want.
	retrainTo := func(h http.Handler, lc *duet.Lifecycle, want int) {
		t.Helper()
		rows := make([]any, 40)
		for i := range rows {
			rows[i] = []any{1000*want + i%20, 1000*want + i%8, 1000*want + i%4}
		}
		if rec, out := doJSON(t, h, "POST", "/v1/ingest", map[string]any{"model": "alpha", "rows": rows}); rec.Code != http.StatusOK {
			t.Fatalf("ingest: %d %v", rec.Code, out)
		}
		for deadline := time.Now().Add(60 * time.Second); lc.Stats()[0].Version != want; time.Sleep(5 * time.Millisecond) {
			if st := lc.Stats()[0]; st.LastError != "" || time.Now().After(deadline) {
				t.Fatalf("waiting for generation %d: %+v", want, st)
			}
		}
	}
	estimate := func(h http.Handler) float64 {
		t.Helper()
		rec, out := doJSON(t, h, "POST", "/v1/estimate", map[string]any{"model": "alpha", "query": "k<=10 AND b>=2"})
		if rec.Code != http.StatusOK {
			t.Fatalf("estimate: %d %v", rec.Code, out)
		}
		return out["card"].(float64)
	}
	// generations reads the version listing: the retained versions in the
	// order served, and the one serving.
	generations := func(h http.Handler) (retained []float64, serving float64) {
		t.Helper()
		rec, out := doJSON(t, h, "GET", "/v1/models/alpha/versions", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("versions: %d %v", rec.Code, out)
		}
		for _, v := range out["versions"].([]any) {
			retained = append(retained, v.(map[string]any)["version"].(float64))
		}
		return retained, out["serving"].(float64)
	}

	h, lc, stop := start()
	retrainTo(h, lc, 1)
	retrainTo(h, lc, 2)
	before := estimate(h)
	stop()

	h, lc, stop = start()
	defer stop()
	_, out := doJSON(t, h, "GET", "/v1/models", nil)
	if mi := out["models"].([]any)[0].(map[string]any); mi["version"] != float64(2) {
		t.Fatalf("restarted on generation %v, want 2: %v", mi["version"], mi)
	}
	if after := estimate(h); after != before {
		t.Fatalf("estimate changed across the restart: %v before, %v after", before, after)
	}
	if retained, serving := generations(h); !slices.Equal(retained, []float64{1, 2}) || serving != 2 {
		t.Fatalf("after restart: retained %v serving %v, want [1 2] serving 2", retained, serving)
	}
	retrainTo(h, lc, 3)
	if retained, serving := generations(h); !slices.Equal(retained, []float64{1, 2, 3}) || serving != 3 {
		t.Fatalf("after the third retrain: retained %v serving %v, want [1 2 3] serving 3", retained, serving)
	}
}

// TestRestartSkipsGenerationsThatDoNotFit: a table rebuilt from CSV or a
// generator has lost its ingested rows, so a generation trained after they
// grew the dictionaries no longer loads against it. The restart serves the
// newest generation that does — in the end the seed weights — rather than
// exiting.
func TestRestartSkipsGenerationsThatDoNotFit(t *testing.T) {
	dir := t.TempDir()
	manPath := filepath.Join(dir, "deploy.json")
	if err := os.WriteFile(manPath, []byte(`{"models": [{"name": "demo", "syn": "census", "rows": 300, "train_epochs": 0}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := manifest.Load(manPath)
	if err != nil {
		t.Fatal(err)
	}
	restart := func() duet.ModelInfo {
		t.Helper()
		reg := duet.NewRegistry(duet.RegistryConfig{Dir: dir})
		defer reg.Close()
		if err := assembleRegistry(reg, man, dir, dir); err != nil {
			t.Fatal(err)
		}
		return reg.Info()[0]
	}
	models := artifact.Dir(dir)
	if mi := restart(); mi.Version != 0 || mi.Path != models.Path("demo") {
		t.Fatalf("first start: version %d from %q, want the seed weights it just saved", mi.Version, mi.Path)
	}

	tbl, err := man.Models[0].BuildTable(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]string, tbl.NumCols())
	for i := range fresh {
		fresh[i] = "99999"
	}
	grown, err := duet.AppendRows(tbl, [][]string{fresh})
	if err != nil {
		t.Fatal(err)
	}
	for v, on := range map[int]*duet.Table{1: tbl, 2: grown} {
		if _, err := models.Put("demo", v, duet.New(on, modelConfig(false)).Save, nil); err != nil {
			t.Fatal(err)
		}
	}
	if mi := restart(); mi.Version != 1 || mi.Path != models.VersionPath("demo", 1) {
		t.Fatalf("restart: version %d from %q, want generation 1 (2 no longer fits)", mi.Version, mi.Path)
	}
	if err := os.Remove(models.VersionPath("demo", 1)); err != nil {
		t.Fatal(err)
	}
	if mi := restart(); mi.Version != 0 || mi.Path != models.Path("demo") {
		t.Fatalf("restart with no fitting generation: version %d from %q, want the seed", mi.Version, mi.Path)
	}
}
