package api_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"duet/internal/api"
	"duet/internal/cluster"
	"duet/internal/core"
	"duet/internal/registry"
	"duet/internal/relation"
)

// TestOnlyV1Answers: nothing is routed outside /v1. Every path that was once
// a bare alias gets the mux's own 404 on the replica and on the proxy, while
// its /v1 twin reaches a handler (which may itself refuse — the lifecycle
// routes answer an enveloped 404 on a replica with no supervisor).
func TestOnlyV1Answers(t *testing.T) {
	tbl := relation.Generate(relation.SynConfig{
		Name: "alpha", Rows: 300, Seed: 1,
		Cols: []relation.ColSpec{
			{Name: "k", NDV: 30, Skew: 1.2, Parent: -1},
			{Name: "a", NDV: 12, Skew: 1.5, Parent: 0, Noise: 0.2},
		},
	})
	cfg := core.DefaultConfig()
	cfg.Hidden = []int{16, 16}
	cfg.EmbedDim = 8
	reg := registry.New(registry.Config{Dir: t.TempDir()})
	t.Cleanup(func() { reg.Close() })
	if err := reg.Add("alpha", tbl, core.NewModel(tbl, cfg), registry.AddOpts{}); err != nil {
		t.Fatal(err)
	}
	replica := api.New(reg, nil, "", nil).Handler()
	member := httptest.NewServer(replica)
	t.Cleanup(member.Close)
	proxy, err := cluster.NewProxy(cluster.Config{Members: []string{member.URL}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(proxy.Close)

	const estimate = `{"model":"alpha","query":"a<=1"}`
	routes := []struct {
		method, path, body string
		onProxy            bool // the proxy has the /v1 twin too
		ok                 bool // the /v1 twin answers 200 on this fixture
	}{
		{"POST", "/estimate", estimate, true, true},
		{"GET", "/models", "", true, true},
		{"POST", "/models/alpha/reload", "", false, false},
		{"POST", "/ingest", `{"model":"alpha","rows":[["1","2"]]}`, true, false},
		{"POST", "/feedback", `{"model":"alpha","query":"a<=1","card":3}`, true, false},
		{"GET", "/lifecycle", "", false, false},
		{"GET", "/healthz", "", true, true},
		{"GET", "/stats", "", true, true},
	}
	muxes := []struct {
		name string
		h    http.Handler
	}{{"replica", replica}, {"proxy", proxy.Handler()}}
	for _, mux := range muxes {
		for _, rt := range routes {
			do := func(path string) *httptest.ResponseRecorder {
				req := httptest.NewRequest(rt.method, path, strings.NewReader(rt.body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				mux.h.ServeHTTP(rec, req)
				return rec
			}
			unrouted := func(rec *httptest.ResponseRecorder) bool {
				return rec.Code == http.StatusNotFound && !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json")
			}
			if rec := do(rt.path); !unrouted(rec) {
				t.Errorf("%s: %s %s is routed: %d %s", mux.name, rt.method, rt.path, rec.Code, rec.Body.String())
			}
			if mux.name == "proxy" && !rt.onProxy {
				continue
			}
			if rec := do("/v1" + rt.path); unrouted(rec) || rt.ok && rec.Code != http.StatusOK {
				t.Errorf("%s: %s /v1%s does not answer: %d %s", mux.name, rt.method, rt.path, rec.Code, rec.Body.String())
			}
		}
	}
}
